#include "ml/decision_tree.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "ml/feature_binning.h"

namespace bbv::ml {

namespace {

/// Candidate features for a split: a random subset of size
/// ceil(feature_fraction * d), or all features when the fraction is 1.
std::vector<size_t> CandidateFeatures(size_t num_features, double fraction,
                                      common::Rng& rng) {
  if (fraction >= 1.0) {
    std::vector<size_t> all(num_features);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  const size_t k = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(fraction * static_cast<double>(num_features))));
  return rng.SampleWithoutReplacement(num_features, k);
}

struct SplitCandidate {
  bool found = false;
  size_t feature = 0;
  double threshold = 0.0;
  double gain = 0.0;
};

/// Shared sorted view for the exact split searches: fills `points` with
/// (feature value, payload) pairs over rows[begin, end), sorted ascending
/// by value (payload order breaks ties, deterministically). Returns false
/// when the feature is constant across the node, i.e. unsplittable — the
/// single guard both the regression and the Gini search used to duplicate.
template <typename Payload>
bool FillSortedFeaturePoints(const linalg::Matrix& features,
                             const std::vector<size_t>& rows, size_t begin,
                             size_t end, size_t feature,
                             const std::vector<Payload>& payload,
                             std::vector<std::pair<double, Payload>>& points) {
  points.clear();
  for (size_t i = begin; i < end; ++i) {
    points.emplace_back(features.At(rows[i], feature), payload[rows[i]]);
  }
  std::sort(points.begin(), points.end());
  return points.front().first < points.back().first;
}

/// Histogram split search for one feature of the node rows[begin, end):
/// accumulates per-bin (count, target sum) in a single unsorted pass over
/// the node's rows and scans the <= 255 candidate cuts. Gain uses the SSE
/// decomposition  node_sse - l_sse - r_sse = S_l^2/n_l + S_r^2/n_r - S^2/n,
/// which needs no per-bin squared sums. The winning threshold is the raw
/// cut value, so the later value-space partition splits rows exactly where
/// the histogram counted them (codes are lower-bound indices:
/// code(v) <= b  <=>  v <= cut[b]).
void BestBinnedSplit(const FeatureBinning& binning,
                     const std::vector<double>& targets,
                     const std::vector<size_t>& rows, size_t begin, size_t end,
                     size_t feature, double sum, size_t min_samples_leaf,
                     SplitCandidate& best) {
  const size_t num_cuts = binning.NumCuts(feature);
  if (num_cuts == 0) return;  // globally constant column
  const uint8_t* codes = binning.Codes(feature);
  std::array<double, FeatureBinning::kMaxCuts + 1> bin_sum;
  std::array<size_t, FeatureBinning::kMaxCuts + 1> bin_count;
  std::fill_n(bin_sum.begin(), num_cuts + 1, 0.0);
  std::fill_n(bin_count.begin(), num_cuts + 1, size_t{0});
  for (size_t i = begin; i < end; ++i) {
    const size_t row = rows[i];
    const size_t code = codes[row];
    bin_count[code] += 1;
    bin_sum[code] += targets[row];
  }
  const size_t count = end - begin;
  const double n = static_cast<double>(count);
  double left_sum = 0.0;
  size_t left_count = 0;
  for (size_t b = 0; b < num_cuts; ++b) {
    left_count += bin_count[b];
    left_sum += bin_sum[b];
    if (left_count == count) break;  // remaining bins are empty on this node
    if (left_count == 0 || left_count < min_samples_leaf ||
        count - left_count < min_samples_leaf) {
      continue;
    }
    const double nl = static_cast<double>(left_count);
    const double nr = static_cast<double>(count - left_count);
    const double right_sum = sum - left_sum;
    const double gain = left_sum * left_sum / nl +
                        right_sum * right_sum / nr - sum * sum / n;
    if (gain > best.gain) {
      best.found = true;
      best.feature = feature;
      best.threshold = binning.CutValue(feature, b);
      best.gain = gain;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// RegressionTree
// ---------------------------------------------------------------------------

common::Status RegressionTree::Fit(const linalg::Matrix& features,
                                   const std::vector<double>& targets,
                                   const std::vector<size_t>& rows,
                                   common::Rng& rng,
                                   const FeatureBinning* binning) {
  if (features.rows() != targets.size()) {
    return common::Status::InvalidArgument(
        "features and targets disagree on the number of rows");
  }
  if (rows.empty()) {
    return common::Status::InvalidArgument("cannot fit a tree on zero rows");
  }
  FeatureBinning local_binning;
  binning_ = nullptr;
  if (options_.binned_split_search) {
    if (binning == nullptr) {
      local_binning = FeatureBinning::Build(features);
      binning = &local_binning;
    }
    if (binning->num_rows() != features.rows() ||
        binning->num_features() != features.cols()) {
      return common::Status::InvalidArgument(
          "feature binning does not match the training matrix shape");
    }
    binning_ = binning;
  }
  nodes_.clear();
  std::vector<size_t> mutable_rows = rows;
  Grow(features, targets, mutable_rows, 0, mutable_rows.size(), 0, rng);
  binning_ = nullptr;
  return common::Status::OK();
}

common::Status RegressionTree::Fit(const linalg::Matrix& features,
                                   const std::vector<double>& targets,
                                   common::Rng& rng,
                                   const FeatureBinning* binning) {
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), 0);
  return Fit(features, targets, rows, rng, binning);
}

int32_t RegressionTree::Grow(const linalg::Matrix& features,
                             const std::vector<double>& targets,
                             std::vector<size_t>& rows, size_t begin,
                             size_t end, int depth, common::Rng& rng) {
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
  std::vector<std::pair<double, double>> points;  // (feature value, target)
  points.reserve(count);
  for (size_t feature :
       CandidateFeatures(features.cols(), options_.feature_fraction, rng)) {
    if (binning_ != nullptr) {
      BestBinnedSplit(*binning_, targets, rows, begin, end, feature, sum,
                      options_.min_samples_leaf, best);
      continue;
    }
    if (!FillSortedFeaturePoints(features, rows, begin, end, feature, targets,
                                 points)) {
      continue;
    }
    double left_sum = 0.0;
    double left_sum_squares = 0.0;
    for (size_t i = 0; i + 1 < count; ++i) {
      left_sum += points[i].second;
      left_sum_squares += points[i].second * points[i].second;
      if (points[i].first == points[i + 1].first) continue;
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
        best.threshold = 0.5 * (points[i].first + points[i + 1].first);
        best.gain = gain;
      }
    }
  }

  if (!best.found || best.gain < options_.min_impurity_decrease) {
    return node_id;
  }

  // Partition rows[begin, end) around the chosen threshold.
  auto middle = std::partition(
      rows.begin() + static_cast<ptrdiff_t>(begin),
      rows.begin() + static_cast<ptrdiff_t>(end), [&](size_t row) {
        return features.At(row, best.feature) <= best.threshold;
      });
  const size_t split =
      static_cast<size_t>(middle - rows.begin());
  if (split == begin || split == end) {
    // The midpoint of two adjacent feature values can round onto the larger
    // value, sending every row to one side. Such a split is unusable — the
    // empty child's mean would be NaN — so keep this node as a leaf.
    return node_id;
  }

  nodes_[node_id].feature = static_cast<int32_t>(best.feature);
  nodes_[node_id].threshold = best.threshold;
  const int32_t left =
      Grow(features, targets, rows, begin, split, depth + 1, rng);
  nodes_[node_id].left = left;
  const int32_t right =
      Grow(features, targets, rows, split, end, depth + 1, rng);
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
  Grow(features, labels, rows, 0, rows.size(), 0, rng);
  return common::Status::OK();
}

int32_t DecisionTreeClassifier::Grow(const linalg::Matrix& features,
                                     const std::vector<int>& labels,
                                     std::vector<size_t>& rows, size_t begin,
                                     size_t end, int depth, common::Rng& rng) {
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
  std::vector<std::pair<double, int>> points;  // (feature value, label)
  points.reserve(count);
  std::vector<double> left_counts(m);
  for (size_t feature :
       CandidateFeatures(features.cols(), options_.feature_fraction, rng)) {
    if (!FillSortedFeaturePoints(features, rows, begin, end, feature, labels,
                                 points)) {
      continue;
    }
    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    double left_gini_sum = 0.0;  // sum of squared left counts
    for (size_t i = 0; i + 1 < count; ++i) {
      double& c = left_counts[static_cast<size_t>(points[i].second)];
      left_gini_sum += 2.0 * c + 1.0;  // (c+1)^2 - c^2
      c += 1.0;
      if (points[i].first == points[i + 1].first) continue;
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
        best.threshold = 0.5 * (points[i].first + points[i + 1].first);
        best.gain = gain;
      }
    }
  }

  if (!best.found || best.gain < options_.min_impurity_decrease) {
    return node_id;
  }

  auto middle = std::partition(
      rows.begin() + static_cast<ptrdiff_t>(begin),
      rows.begin() + static_cast<ptrdiff_t>(end), [&](size_t row) {
        return features.At(row, best.feature) <= best.threshold;
      });
  const size_t split = static_cast<size_t>(middle - rows.begin());
  BBV_DCHECK(split > begin && split < end);

  nodes_[node_id].feature = static_cast<int32_t>(best.feature);
  nodes_[node_id].threshold = best.threshold;
  const int32_t left =
      Grow(features, labels, rows, begin, split, depth + 1, rng);
  nodes_[node_id].left = left;
  const int32_t right =
      Grow(features, labels, rows, split, end, depth + 1, rng);
  nodes_[node_id].right = right;
  return node_id;
}

linalg::Matrix DecisionTreeClassifier::PredictProba(
    const linalg::Matrix& features) const {
  BBV_CHECK(!nodes_.empty()) << "PredictProba before Fit";
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
  tree.nodes_.resize(count);
  const auto node_count = static_cast<int32_t>(count);
  for (Node& node : tree.nodes_) {
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
    if (node.feature >= 0 &&
        (node.left < 0 || node.left >= node_count || node.right < 0 ||
         node.right >= node_count)) {
      return common::Status::InvalidArgument("corrupt tree child index");
    }
  }
  return tree;
}

}  // namespace bbv::ml
