#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "ml/feature_presort.h"

namespace bbv::ml {

namespace {

struct SplitCandidate {
  bool found = false;
  size_t feature = 0;
  double threshold = 0.0;
  double gain = 0.0;
};

/// Whether either child of a split at `depth` into `left_count` and
/// `right_count` rows can be split again, i.e. whether the children will
/// ever scan their sorted entries. Mirrors the leaf test at the top of both
/// Grow functions.
bool ChildMaySplit(const TreeOptions& options, int depth, size_t left_count,
                   size_t right_count) {
  return depth + 1 < options.max_depth &&
         std::max(left_count, right_count) >= 2 * options.min_samples_leaf;
}

/// Partitions rows[begin, end) around x[feature] <= threshold and returns
/// the first right-hand position. std::partition fixes the row order, and
/// with it the summation order of every descendant's node sums.
size_t PartitionRows(const linalg::Matrix& features, std::vector<size_t>& rows,
                     size_t begin, size_t end, size_t feature,
                     double threshold) {
  const auto middle = std::partition(
      rows.begin() + static_cast<ptrdiff_t>(begin),
      rows.begin() + static_cast<ptrdiff_t>(end),
      [&](size_t row) { return features.At(row, feature) <= threshold; });
  return static_cast<size_t>(middle - rows.begin());
}

}  // namespace

namespace internal {

/// Per-Fit scratch state of the tree growers, allocated once per Fit so that
/// growing a regression-tree node allocates nothing but the node: the
/// candidate-feature buffer and the per-feature sorted entries of the split
/// search.
///
/// Invariant: for every feature f, entries [begin, end) of f hold the rows
/// of the node that owns rows[begin, end), bootstrap repeats included, in
/// ascending (value, target) order. SortEntries establishes it for the
/// root; SplitSorted keeps it for both children by stable-partitioning
/// every feature's entries.
class GrowContext {
 public:
  GrowContext(size_t num_features, double feature_fraction)
      : candidates_(num_features),
        num_candidates_(
            feature_fraction >= 1.0
                ? num_features
                : std::max<size_t>(
                      1, static_cast<size_t>(std::ceil(
                             feature_fraction *
                             static_cast<double>(num_features))))),
        sample_(!(feature_fraction >= 1.0)) {
    std::iota(candidates_.begin(), candidates_.end(), size_t{0});
  }

  /// Candidate features for a split: a random subset of size
  /// ceil(feature_fraction * d), or all features when the fraction is 1.
  /// The subset is drawn with exactly the Rng draws (and result order) of
  /// Rng::SampleWithoutReplacement, a partial Fisher-Yates shuffle.
  std::span<const size_t> Candidates(common::Rng& rng) {
    if (sample_) {
      const size_t n = candidates_.size();
      BBV_CHECK_LE(num_candidates_, n);
      std::iota(candidates_.begin(), candidates_.end(), size_t{0});
      for (size_t i = 0; i < num_candidates_; ++i) {
        std::swap(candidates_[i], candidates_[i + rng.UniformInt(n - i)]);
      }
    }
    return {candidates_.data(), num_candidates_};
  }

  /// Builds every feature's sorted entries for `rows` (bootstrap repeats
  /// included): expanded from `presort` in O(F * (N + n)) when there is
  /// one, otherwise sorted here, which needs no full-matrix index for a
  /// tree that is fitted once.
  void SortEntries(const linalg::Matrix& features,
                   std::span<const double> targets,
                   std::span<const size_t> rows,
                   const FeaturePresort* presort) {
    values_ = features.data().data();
    num_features_ = features.cols();
    BBV_CHECK_LE(features.rows(),
                 size_t{std::numeric_limits<uint32_t>::max()});
    goes_left_.assign(features.rows(), 0);
    spill_.resize(rows.size());
    sorted_.resize(features.cols());
    if (presort == nullptr) {
      for (size_t f = 0; f < features.cols(); ++f) {
        sorted_[f].assign(rows.begin(), rows.end());
        FeaturePresort::SortRows(features, targets, f, sorted_[f]);
      }
      return;
    }
    std::vector<uint32_t> repeats(features.rows(), 0);
    for (size_t row : rows) ++repeats[row];
    for (size_t f = 0; f < features.cols(); ++f) {
      sorted_[f].resize(rows.size());
      uint32_t* out = sorted_[f].data();
      const uint32_t* order = presort->Order(f);
      for (size_t rank = 0; rank < features.rows(); ++rank) {
        out = std::fill_n(out, repeats[order[rank]], order[rank]);
      }
    }
  }

  /// Values of `feature`: row r's is Column(feature)[r * num_features()],
  /// the row-major training matrix read in place.
  const double* Column(size_t feature) const { return values_ + feature; }
  size_t num_features() const { return num_features_; }

  /// The sorted entries of `feature` from position `begin` on.
  const uint32_t* Sorted(size_t feature, size_t begin) const {
    return sorted_[feature].data() + begin;
  }

  /// Splits the node owning entries [begin, end) at x[feature] <= threshold:
  /// every feature's entries are stable-partitioned, left rows first, so
  /// both children stay sorted. Row repeats share their row's side.
  void SplitSorted(size_t begin, size_t end, size_t feature,
                   double threshold) {
    const size_t count = end - begin;
    uint8_t* goes_left = goes_left_.data();
    uint32_t* spill = spill_.data();
    const double* column = Column(feature);
    const uint32_t* node = Sorted(feature, begin);
    for (size_t i = 0; i < count; ++i) {
      goes_left[node[i]] = column[node[i] * num_features_] <= threshold;
    }
    for (size_t f = 0; f < num_features_; ++f) {
      // Sorted by value, the split feature's left rows already lead.
      if (f == feature) continue;
      uint32_t* entries = sorted_[f].data() + begin;
      size_t left = 0;
      size_t right = 0;
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = entries[i];
        const size_t side = goes_left[row];
        entries[left] = row;  // left <= i: never overwrites an unread entry
        spill[right] = row;
        left += side;
        right += 1 - side;
      }
      std::copy_n(spill, right, entries + left);
    }
  }

 private:
  std::vector<size_t> candidates_;
  size_t num_candidates_;
  bool sample_;
  /// The row-major training matrix and its column count.
  const double* values_ = nullptr;
  size_t num_features_ = 0;
  /// sorted_[f][position]: one list of the tree's rows per feature. One
  /// allocation per feature keeps each under glibc's mmap threshold for
  /// common shapes; a single F * n buffer above it, freed after every tree,
  /// raises the threshold for the whole process and measurably grew peak
  /// RSS elsewhere.
  std::vector<std::vector<uint32_t>> sorted_;
  /// Right-hand rows of the feature being partitioned.
  std::vector<uint32_t> spill_;
  /// Side of the current split, by row id.
  std::vector<uint8_t> goes_left_;
};

}  // namespace internal

// ---------------------------------------------------------------------------
// RegressionTree
// ---------------------------------------------------------------------------

common::Status RegressionTree::Fit(const linalg::Matrix& features,
                                   const std::vector<double>& targets,
                                   const std::vector<size_t>& rows,
                                   common::Rng& rng,
                                   const FeaturePresort* presort) {
  if (features.rows() != targets.size()) {
    return common::Status::InvalidArgument(
        "features and targets disagree on the number of rows");
  }
  if (rows.empty()) {
    return common::Status::InvalidArgument("cannot fit a tree on zero rows");
  }
  if (*std::max_element(rows.begin(), rows.end()) >= features.rows()) {
    return common::Status::InvalidArgument("row id out of range");
  }
  if (presort != nullptr && (presort->num_rows() != features.rows() ||
                             presort->num_features() != features.cols())) {
    return common::Status::InvalidArgument(
        "feature presort does not match the training matrix shape");
  }
  internal::GrowContext context(features.cols(), options_.feature_fraction);
  context.SortEntries(features, targets, rows, presort);
  nodes_.clear();
  std::vector<size_t> mutable_rows = rows;
  Grow(features, targets, mutable_rows, 0, mutable_rows.size(), 0, context,
       rng);
  return common::Status::OK();
}

common::Status RegressionTree::Fit(const linalg::Matrix& features,
                                   const std::vector<double>& targets,
                                   common::Rng& rng,
                                   const FeaturePresort* presort) {
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), 0);
  return Fit(features, targets, rows, rng, presort);
}

int32_t RegressionTree::Grow(const linalg::Matrix& features,
                             const std::vector<double>& targets,
                             std::vector<size_t>& rows, size_t begin,
                             size_t end, int depth,
                             internal::GrowContext& context,
                             common::Rng& rng) {
  const size_t count = end - begin;
  double sum = 0.0;
  double sum_squares = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const double t = targets[rows[i]];
    sum += t;
    sum_squares += t * t;
  }
  const double n = static_cast<double>(count);
  const double mean = sum / n;
  const double node_sse = sum_squares - sum * sum / n;

  const int32_t node_id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].value = mean;

  if (depth >= options_.max_depth ||
      count < 2 * options_.min_samples_leaf || node_sse <= 0.0) {
    return node_id;
  }

  SplitCandidate best;
  for (size_t feature : context.Candidates(rng)) {
    // One pass over the node's rows in (value, target) order, the order the
    // sums have always been accumulated in.
    const double* column = context.Column(feature);
    const size_t stride = context.num_features();
    const uint32_t* sorted = context.Sorted(feature, begin);
    if (!(column[sorted[0] * stride] < column[sorted[count - 1] * stride])) {
      continue;  // constant on this node: unsplittable
    }
    double left_sum = 0.0;
    double left_sum_squares = 0.0;
    for (size_t i = 0; i + 1 < count; ++i) {
      const double target = targets[sorted[i]];
      left_sum += target;
      left_sum_squares += target * target;
      const double value = column[sorted[i] * stride];
      const double next = column[sorted[i + 1] * stride];
      if (value == next) continue;
      const size_t left_count = i + 1;
      const size_t right_count = count - left_count;
      if (left_count < options_.min_samples_leaf ||
          right_count < options_.min_samples_leaf) {
        continue;
      }
      const double nl = static_cast<double>(left_count);
      const double nr = static_cast<double>(right_count);
      const double right_sum = sum - left_sum;
      const double right_sum_squares = sum_squares - left_sum_squares;
      const double left_sse = left_sum_squares - left_sum * left_sum / nl;
      const double right_sse =
          right_sum_squares - right_sum * right_sum / nr;
      const double gain = node_sse - left_sse - right_sse;
      if (gain > best.gain) {
        best.found = true;
        best.feature = feature;
        best.threshold = 0.5 * (value + next);
        best.gain = gain;
      }
    }
  }

  if (!best.found || best.gain < options_.min_impurity_decrease) {
    return node_id;
  }

  const size_t split =
      PartitionRows(features, rows, begin, end, best.feature, best.threshold);
  if (split == begin || split == end) {
    // The midpoint of two adjacent feature values can round onto the larger
    // value, sending every row to one side. Such a split is unusable — the
    // empty child's mean would be NaN — so keep this node as a leaf.
    return node_id;
  }
  if (ChildMaySplit(options_, depth, split - begin, end - split)) {
    context.SplitSorted(begin, end, best.feature, best.threshold);
  }

  nodes_[node_id].feature = static_cast<int32_t>(best.feature);
  nodes_[node_id].threshold = best.threshold;
  const int32_t left =
      Grow(features, targets, rows, begin, split, depth + 1, context, rng);
  nodes_[node_id].left = left;
  const int32_t right =
      Grow(features, targets, rows, split, end, depth + 1, context, rng);
  nodes_[node_id].right = right;
  return node_id;
}

double RegressionTree::PredictRow(const double* row) const {
  BBV_CHECK(!nodes_.empty()) << "Predict before Fit";
  int32_t node = 0;
  while (nodes_[static_cast<size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<size_t>(node)];
    node = row[n.feature] <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<size_t>(node)].value;
}

std::vector<double> RegressionTree::Predict(
    const linalg::Matrix& features) const {
  std::vector<double> result(features.rows());
  PredictInto(features, result);
  return result;
}

void RegressionTree::PredictInto(const linalg::Matrix& features,
                                 std::span<double> out) const {
  BBV_CHECK(!nodes_.empty()) << "Predict before Fit";
  BBV_CHECK_EQ(out.size(), features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    // This loop IS the reference scalar walk the batch API falls back to.
    // bbv-lint: allow(batch-api) production batch paths ride ForestKernel
    out[i] = PredictRow(features.RowData(i));
  }
}

// ---------------------------------------------------------------------------
// DecisionTreeClassifier
// ---------------------------------------------------------------------------

common::Status DecisionTreeClassifier::Fit(const linalg::Matrix& features,
                                           const std::vector<int>& labels,
                                           int num_classes, common::Rng& rng) {
  if (features.rows() != labels.size()) {
    return common::Status::InvalidArgument(
        "features and labels disagree on the number of rows");
  }
  if (features.rows() == 0) {
    return common::Status::InvalidArgument("cannot fit on an empty matrix");
  }
  if (num_classes < 2) {
    return common::Status::InvalidArgument("need at least two classes");
  }
  num_classes_ = num_classes;
  nodes_.clear();
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), 0);
  // Class counts are integers, so the Gini scan is exact in any order of
  // tied values; the labels break value ties all the same.
  const std::vector<double> label_values(labels.begin(), labels.end());
  internal::GrowContext context(features.cols(), options_.feature_fraction);
  context.SortEntries(features, label_values, rows, nullptr);
  Grow(features, labels, rows, 0, rows.size(), 0, context, rng);
  return common::Status::OK();
}

int32_t DecisionTreeClassifier::Grow(const linalg::Matrix& features,
                                     const std::vector<int>& labels,
                                     std::vector<size_t>& rows, size_t begin,
                                     size_t end, int depth,
                                     internal::GrowContext& context,
                                     common::Rng& rng) {
  const size_t count = end - begin;
  const auto m = static_cast<size_t>(num_classes_);
  std::vector<double> class_counts(m, 0.0);
  for (size_t i = begin; i < end; ++i) {
    ++class_counts[static_cast<size_t>(labels[rows[i]])];
  }
  const double n = static_cast<double>(count);
  const int32_t node_id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].class_probabilities.resize(m);
  for (size_t k = 0; k < m; ++k) {
    nodes_[node_id].class_probabilities[k] = class_counts[k] / n;
  }
  double gini_sum = 0.0;
  for (double c : class_counts) gini_sum += c * c;
  // Weighted Gini impurity: n * (1 - sum p^2) = n - sum(c^2)/n.
  const double node_impurity = n - gini_sum / n;

  if (depth >= options_.max_depth ||
      count < 2 * options_.min_samples_leaf || node_impurity <= 0.0) {
    return node_id;
  }

  SplitCandidate best;
  std::vector<double> left_counts(m);
  for (size_t feature : context.Candidates(rng)) {
    const double* column = context.Column(feature);
    const size_t stride = context.num_features();
    const uint32_t* sorted = context.Sorted(feature, begin);
    if (!(column[sorted[0] * stride] < column[sorted[count - 1] * stride])) {
      continue;
    }
    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    double left_gini_sum = 0.0;  // sum of squared left counts
    for (size_t i = 0; i + 1 < count; ++i) {
      double& c = left_counts[static_cast<size_t>(labels[sorted[i]])];
      left_gini_sum += 2.0 * c + 1.0;  // (c+1)^2 - c^2
      c += 1.0;
      const double value = column[sorted[i] * stride];
      const double next = column[sorted[i + 1] * stride];
      if (value == next) continue;
      const size_t left_count = i + 1;
      const size_t right_count = count - left_count;
      if (left_count < options_.min_samples_leaf ||
          right_count < options_.min_samples_leaf) {
        continue;
      }
      const double nl = static_cast<double>(left_count);
      const double nr = static_cast<double>(right_count);
      double right_gini_sum = 0.0;
      for (size_t k = 0; k < m; ++k) {
        const double right = class_counts[k] - left_counts[k];
        right_gini_sum += right * right;
      }
      const double left_impurity = nl - left_gini_sum / nl;
      const double right_impurity = nr - right_gini_sum / nr;
      const double gain = node_impurity - left_impurity - right_impurity;
      if (gain > best.gain) {
        best.found = true;
        best.feature = feature;
        best.threshold = 0.5 * (value + next);
        best.gain = gain;
      }
    }
  }

  if (!best.found || best.gain < options_.min_impurity_decrease) {
    return node_id;
  }

  const size_t split =
      PartitionRows(features, rows, begin, end, best.feature, best.threshold);
  BBV_DCHECK(split > begin && split < end);
  if (ChildMaySplit(options_, depth, split - begin, end - split)) {
    context.SplitSorted(begin, end, best.feature, best.threshold);
  }

  nodes_[node_id].feature = static_cast<int32_t>(best.feature);
  nodes_[node_id].threshold = best.threshold;
  const int32_t left =
      Grow(features, labels, rows, begin, split, depth + 1, context, rng);
  nodes_[node_id].left = left;
  const int32_t right =
      Grow(features, labels, rows, split, end, depth + 1, context, rng);
  nodes_[node_id].right = right;
  return node_id;
}

linalg::Matrix DecisionTreeClassifier::PredictProba(
    const linalg::Matrix& features) const {
  BBV_CHECK(!nodes_.empty()) << "PredictProba before Fit";
  int32_t max_feature = -1;
  for (const Node& node : nodes_) {
    max_feature = std::max(max_feature, node.feature);
  }
  BBV_CHECK(max_feature < 0 ||
            static_cast<size_t>(max_feature) < features.cols())
      << "tree reads feature " << max_feature << " but the batch has "
      << features.cols() << " columns";
  const auto m = static_cast<size_t>(num_classes_);
  linalg::Matrix result(features.rows(), m);
  for (size_t i = 0; i < features.rows(); ++i) {
    const double* row = features.RowData(i);
    int32_t node = 0;
    while (nodes_[static_cast<size_t>(node)].feature >= 0) {
      const Node& n = nodes_[static_cast<size_t>(node)];
      node = row[n.feature] <= n.threshold ? n.left : n.right;
    }
    const auto& probabilities =
        nodes_[static_cast<size_t>(node)].class_probabilities;
    std::copy(probabilities.begin(), probabilities.end(), result.RowData(i));
  }
  return result;
}

}  // namespace bbv::ml

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace bbv::ml {

void RegressionTree::Save(common::BinaryWriter& writer) const {
  std::vector<int32_t> features;
  std::vector<int32_t> lefts;
  std::vector<int32_t> rights;
  std::vector<double> thresholds;
  std::vector<double> values;
  features.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    features.push_back(node.feature);
    lefts.push_back(node.left);
    rights.push_back(node.right);
    thresholds.push_back(node.threshold);
    values.push_back(node.value);
  }
  writer.WriteInt32Vector(features);
  writer.WriteInt32Vector(lefts);
  writer.WriteInt32Vector(rights);
  writer.WriteDoubleVector(thresholds);
  writer.WriteDoubleVector(values);
}

common::Result<RegressionTree> RegressionTree::Load(
    common::BinaryReader& reader) {
  BBV_ASSIGN_OR_RETURN(std::vector<int32_t> features,
                       reader.ReadInt32Vector());
  BBV_ASSIGN_OR_RETURN(std::vector<int32_t> lefts, reader.ReadInt32Vector());
  BBV_ASSIGN_OR_RETURN(std::vector<int32_t> rights, reader.ReadInt32Vector());
  BBV_ASSIGN_OR_RETURN(std::vector<double> thresholds,
                       reader.ReadDoubleVector());
  BBV_ASSIGN_OR_RETURN(std::vector<double> values, reader.ReadDoubleVector());
  const size_t count = features.size();
  if (lefts.size() != count || rights.size() != count ||
      thresholds.size() != count || values.size() != count || count == 0) {
    return common::Status::InvalidArgument("inconsistent tree arrays");
  }
  RegressionTree tree;
  tree.nodes_.resize(count);
  const auto node_count = static_cast<int32_t>(count);
  for (size_t i = 0; i < count; ++i) {
    Node& node = tree.nodes_[i];
    node.feature = features[i];
    node.left = lefts[i];
    node.right = rights[i];
    node.threshold = thresholds[i];
    node.value = values[i];
    // The trainer writes nodes in pre-order, so an internal node's
    // children come after it. Requiring that also rules out cycles, which
    // would make every prediction walk loop forever.
    const auto parent = static_cast<int32_t>(i);
    if (node.feature >= 0 &&
        (node.left <= parent || node.left >= node_count ||
         node.right <= parent || node.right >= node_count)) {
      return common::Status::InvalidArgument("corrupt tree child index");
    }
    if (!std::isfinite(node.threshold)) {
      return common::Status::InvalidArgument("non-finite tree threshold");
    }
    // A non-finite value would be served as a NaN/Inf prediction.
    if (!std::isfinite(node.value)) {
      return common::Status::InvalidArgument("non-finite tree value");
    }
  }
  return tree;
}

}  // namespace bbv::ml

// ---------------------------------------------------------------------------
// DecisionTreeClassifier serialization
// ---------------------------------------------------------------------------

namespace bbv::ml {

namespace {
constexpr char kCartMagic[] = "BBVCT";
constexpr uint32_t kCartVersion = 1;
}  // namespace

common::Status DecisionTreeClassifier::Save(std::ostream& out) const {
  if (nodes_.empty()) {
    return common::Status::FailedPrecondition("Save before Fit");
  }
  common::BinaryWriter writer(out);
  writer.WriteMagic(kCartMagic, kCartVersion);
  writer.WriteInt32(num_classes_);
  writer.WriteUint64(nodes_.size());
  for (const Node& node : nodes_) {
    writer.WriteInt32(node.feature);
    writer.WriteDouble(node.threshold);
    writer.WriteInt32(node.left);
    writer.WriteInt32(node.right);
    writer.WriteDoubleVector(node.class_probabilities);
  }
  return writer.status();
}

common::Result<DecisionTreeClassifier> DecisionTreeClassifier::Load(
    std::istream& in) {
  common::BinaryReader reader(in);
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kCartMagic, kCartVersion));
  DecisionTreeClassifier tree;
  BBV_ASSIGN_OR_RETURN(tree.num_classes_, reader.ReadInt32());
  BBV_ASSIGN_OR_RETURN(uint64_t count, reader.ReadUint64());
  if (tree.num_classes_ < 2 || count == 0 || count > 100'000'000) {
    return common::Status::InvalidArgument("corrupt tree header");
  }
  // Nodes are appended as they are read: a corrupt count must not allocate
  // up front.
  const auto node_count = static_cast<int32_t>(count);
  for (uint64_t i = 0; i < count; ++i) {
    Node& node = tree.nodes_.emplace_back();
    BBV_ASSIGN_OR_RETURN(node.feature, reader.ReadInt32());
    BBV_ASSIGN_OR_RETURN(node.threshold, reader.ReadDouble());
    BBV_ASSIGN_OR_RETURN(node.left, reader.ReadInt32());
    BBV_ASSIGN_OR_RETURN(node.right, reader.ReadInt32());
    BBV_ASSIGN_OR_RETURN(node.class_probabilities,
                         reader.ReadDoubleVector());
    if (node.class_probabilities.size() !=
        static_cast<size_t>(tree.num_classes_)) {
      return common::Status::InvalidArgument("corrupt leaf payload");
    }
    // Children come after their parent (pre-order), which also rules out
    // cycles that would make PredictProba loop forever.
    const auto parent = static_cast<int32_t>(i);
    if (node.feature >= 0 &&
        (node.left <= parent || node.left >= node_count ||
         node.right <= parent || node.right >= node_count)) {
      return common::Status::InvalidArgument("corrupt tree child index");
    }
    if (!std::isfinite(node.threshold)) {
      return common::Status::InvalidArgument("non-finite tree threshold");
    }
  }
  return tree;
}

}  // namespace bbv::ml
