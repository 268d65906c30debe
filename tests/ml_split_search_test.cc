// Oracle tests for the exact split search. The trees grow from presorted,
// partitioned row lists; the reference below is the search they replaced,
// which re-sorted every candidate feature's (value, payload) pairs at every
// node. Both must serialize to the same bytes and leave the caller's Rng in
// the same state, for the regression tree inside random forests and
// gradient-boosted trees and for the Gini classification tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/string_util.h"
#include "core/performance_predictor.h"
#include "core/prediction_statistics.h"
#include "linalg/matrix.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/random_forest.h"

namespace bbv::ml {
namespace {

// ---------------------------------------------------------------------------
// Reference: the per-node-sort search
// ---------------------------------------------------------------------------

struct ReferenceNode {
  int32_t feature = -1;
  double threshold = 0.0;
  int32_t left = -1;
  int32_t right = -1;
  double value = 0.0;
  std::vector<double> class_probabilities;
};

std::vector<size_t> ReferenceCandidates(size_t num_features, double fraction,
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

/// (value, payload) pairs of one feature over rows[begin, end), sorted;
/// false when the feature is constant on the node.
template <typename Payload>
bool SortedPoints(const linalg::Matrix& features,
                  const std::vector<size_t>& rows, size_t begin, size_t end,
                  size_t feature, const std::vector<Payload>& payload,
                  std::vector<std::pair<double, Payload>>& points) {
  points.clear();
  for (size_t i = begin; i < end; ++i) {
    points.emplace_back(features.At(rows[i], feature), payload[rows[i]]);
  }
  std::sort(points.begin(), points.end());
  return points.front().first < points.back().first;
}

size_t Partition(const linalg::Matrix& features, std::vector<size_t>& rows,
                 size_t begin, size_t end, size_t feature, double threshold) {
  auto middle = std::partition(
      rows.begin() + static_cast<ptrdiff_t>(begin),
      rows.begin() + static_cast<ptrdiff_t>(end),
      [&](size_t row) { return features.At(row, feature) <= threshold; });
  return static_cast<size_t>(middle - rows.begin());
}

class ReferenceRegressionTree {
 public:
  explicit ReferenceRegressionTree(TreeOptions options) : options_(options) {}

  void Fit(const linalg::Matrix& features, const std::vector<double>& targets,
           std::vector<size_t> rows, common::Rng& rng) {
    nodes_.clear();
    Grow(features, targets, rows, 0, rows.size(), 0, rng);
  }

  double PredictRow(const double* row) const {
    size_t node = 0;
    while (nodes_[node].feature >= 0) {
      const ReferenceNode& n = nodes_[node];
      node = static_cast<size_t>(row[n.feature] <= n.threshold ? n.left
                                                                : n.right);
    }
    return nodes_[node].value;
  }

  /// Bytes in RegressionTree::Save's layout.
  std::string Bytes() const {
    std::vector<int32_t> features;
    std::vector<int32_t> lefts;
    std::vector<int32_t> rights;
    std::vector<double> thresholds;
    std::vector<double> values;
    for (const ReferenceNode& node : nodes_) {
      features.push_back(node.feature);
      lefts.push_back(node.left);
      rights.push_back(node.right);
      thresholds.push_back(node.threshold);
      values.push_back(node.value);
    }
    std::ostringstream out;
    common::BinaryWriter writer(out);
    writer.WriteInt32Vector(features);
    writer.WriteInt32Vector(lefts);
    writer.WriteInt32Vector(rights);
    writer.WriteDoubleVector(thresholds);
    writer.WriteDoubleVector(values);
    return out.str();
  }

 private:
  int32_t Grow(const linalg::Matrix& features,
               const std::vector<double>& targets, std::vector<size_t>& rows,
               size_t begin, size_t end, int depth, common::Rng& rng) {
    const size_t count = end - begin;
    double sum = 0.0;
    double sum_squares = 0.0;
    for (size_t i = begin; i < end; ++i) {
      const double t = targets[rows[i]];
      sum += t;
      sum_squares += t * t;
    }
    const double n = static_cast<double>(count);
    const double node_sse = sum_squares - sum * sum / n;
    const auto node_id = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_.back().value = sum / n;
    if (depth >= options_.max_depth ||
        count < 2 * options_.min_samples_leaf || node_sse <= 0.0) {
      return node_id;
    }
    bool found = false;
    size_t best_feature = 0;
    double best_threshold = 0.0;
    double best_gain = 0.0;
    std::vector<std::pair<double, double>> points;
    for (size_t feature : ReferenceCandidates(
             features.cols(), options_.feature_fraction, rng)) {
      if (!SortedPoints(features, rows, begin, end, feature, targets,
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
        const double gain = node_sse -
                            (left_sum_squares - left_sum * left_sum / nl) -
                            (right_sum_squares - right_sum * right_sum / nr);
        if (gain > best_gain) {
          found = true;
          best_feature = feature;
          best_threshold = 0.5 * (points[i].first + points[i + 1].first);
          best_gain = gain;
        }
      }
    }
    if (!found || best_gain < options_.min_impurity_decrease) return node_id;
    const size_t split =
        Partition(features, rows, begin, end, best_feature, best_threshold);
    if (split == begin || split == end) return node_id;
    nodes_[static_cast<size_t>(node_id)].feature =
        static_cast<int32_t>(best_feature);
    nodes_[static_cast<size_t>(node_id)].threshold = best_threshold;
    const int32_t left =
        Grow(features, targets, rows, begin, split, depth + 1, rng);
    nodes_[static_cast<size_t>(node_id)].left = left;
    const int32_t right =
        Grow(features, targets, rows, split, end, depth + 1, rng);
    nodes_[static_cast<size_t>(node_id)].right = right;
    return node_id;
  }

  TreeOptions options_;
  std::vector<ReferenceNode> nodes_;
};

class ReferenceClassifier {
 public:
  explicit ReferenceClassifier(TreeOptions options) : options_(options) {}

  void Fit(const linalg::Matrix& features, const std::vector<int>& labels,
           int num_classes, common::Rng& rng) {
    num_classes_ = num_classes;
    nodes_.clear();
    std::vector<size_t> rows(features.rows());
    std::iota(rows.begin(), rows.end(), 0);
    Grow(features, labels, rows, 0, rows.size(), 0, rng);
  }

  /// Bytes in DecisionTreeClassifier::Save's layout.
  std::string Bytes() const {
    std::ostringstream out;
    common::BinaryWriter writer(out);
    writer.WriteMagic("BBVCT", 1);
    writer.WriteInt32(num_classes_);
    writer.WriteUint64(nodes_.size());
    for (const ReferenceNode& node : nodes_) {
      writer.WriteInt32(node.feature);
      writer.WriteDouble(node.threshold);
      writer.WriteInt32(node.left);
      writer.WriteInt32(node.right);
      writer.WriteDoubleVector(node.class_probabilities);
    }
    return out.str();
  }

 private:
  int32_t Grow(const linalg::Matrix& features, const std::vector<int>& labels,
               std::vector<size_t>& rows, size_t begin, size_t end, int depth,
               common::Rng& rng) {
    const size_t count = end - begin;
    const auto m = static_cast<size_t>(num_classes_);
    std::vector<double> class_counts(m, 0.0);
    for (size_t i = begin; i < end; ++i) {
      ++class_counts[static_cast<size_t>(labels[rows[i]])];
    }
    const double n = static_cast<double>(count);
    const auto node_id = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
    for (double c : class_counts) {
      nodes_.back().class_probabilities.push_back(c / n);
    }
    double gini_sum = 0.0;
    for (double c : class_counts) gini_sum += c * c;
    const double node_impurity = n - gini_sum / n;
    if (depth >= options_.max_depth ||
        count < 2 * options_.min_samples_leaf || node_impurity <= 0.0) {
      return node_id;
    }
    bool found = false;
    size_t best_feature = 0;
    double best_threshold = 0.0;
    double best_gain = 0.0;
    std::vector<std::pair<double, int>> points;
    std::vector<double> left_counts(m);
    for (size_t feature : ReferenceCandidates(
             features.cols(), options_.feature_fraction, rng)) {
      if (!SortedPoints(features, rows, begin, end, feature, labels,
                        points)) {
        continue;
      }
      std::fill(left_counts.begin(), left_counts.end(), 0.0);
      double left_gini_sum = 0.0;
      for (size_t i = 0; i + 1 < count; ++i) {
        double& c = left_counts[static_cast<size_t>(points[i].second)];
        left_gini_sum += 2.0 * c + 1.0;
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
        const double gain = node_impurity - (nl - left_gini_sum / nl) -
                            (nr - right_gini_sum / nr);
        if (gain > best_gain) {
          found = true;
          best_feature = feature;
          best_threshold = 0.5 * (points[i].first + points[i + 1].first);
          best_gain = gain;
        }
      }
    }
    if (!found || best_gain < options_.min_impurity_decrease) return node_id;
    const size_t split =
        Partition(features, rows, begin, end, best_feature, best_threshold);
    nodes_[static_cast<size_t>(node_id)].feature =
        static_cast<int32_t>(best_feature);
    nodes_[static_cast<size_t>(node_id)].threshold = best_threshold;
    const int32_t left =
        Grow(features, labels, rows, begin, split, depth + 1, rng);
    nodes_[static_cast<size_t>(node_id)].left = left;
    const int32_t right =
        Grow(features, labels, rows, split, end, depth + 1, rng);
    nodes_[static_cast<size_t>(node_id)].right = right;
    return node_id;
  }

  TreeOptions options_;
  int num_classes_ = 0;
  std::vector<ReferenceNode> nodes_;
};

// ---------------------------------------------------------------------------
// Cases
// ---------------------------------------------------------------------------

struct Case {
  linalg::Matrix features;
  std::vector<double> targets;
  std::vector<int> labels;  // 3 classes
};

/// Columns chosen for the ways a presorted scan can diverge from a sort:
/// continuous values; small integers (value ties); a binary column; a
/// constant column; +0.0 / -0.0 mixed with +/-1; values rounded to one
/// decimal (ties among near-continuous values). With `coarse_targets` the
/// targets come from a 3-value set, so whole (value, target) pairs tie.
Case MakeCase(size_t n, bool coarse_targets, uint64_t seed) {
  common::Rng rng(seed);
  Case c{linalg::Matrix(n, 6), std::vector<double>(n), std::vector<int>(n)};
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.Uniform(0.0, 1.0);
    c.features.At(i, 0) = x;
    c.features.At(i, 1) = static_cast<double>(rng.UniformInt(4));
    c.features.At(i, 2) = static_cast<double>(rng.UniformInt(2));
    c.features.At(i, 3) = 3.0;
    const double signed_zero[] = {-0.0, 0.0, -1.0, 1.0, 0.0, -0.0};
    c.features.At(i, 4) = signed_zero[rng.UniformInt(6)];
    c.features.At(i, 5) = std::round(rng.Uniform(0.0, 1.0) * 10.0) / 10.0;
    const double signal =
        x + 0.3 * c.features.At(i, 1) - 0.5 * c.features.At(i, 4);
    c.targets[i] = coarse_targets
                       ? 0.5 * static_cast<double>(rng.UniformInt(3))
                       : signal + rng.Gaussian(0.0, 0.1);
    c.labels[i] = static_cast<int>(rng.UniformInt(3));
    if (rng.Uniform(0.0, 1.0) < 0.6) {
      c.labels[i] = signal < 0.5 ? 0 : (signal < 1.2 ? 1 : 2);
    }
  }
  return c;
}

const size_t kSizes[] = {2, 3, 5, 17, 64, 200, 500};

std::string TreeBytes(const RegressionTree& tree) {
  std::ostringstream out;
  common::BinaryWriter writer(out);
  tree.Save(writer);
  return out.str();
}

/// Tree options spanning the depth and leaf-size boundaries for `n` rows:
/// a stump-only depth, shallow and deep trees, and minimum leaf sizes from
/// 1 up to exactly half the rows (the root can split only in the middle)
/// and past it (the root stays a leaf).
std::vector<TreeOptions> BoundaryOptions(size_t n, double feature_fraction) {
  std::vector<TreeOptions> all;
  for (int depth : {0, 1, 3, 10}) {
    for (size_t leaf : {size_t{1}, size_t{2}, size_t{5},
                        std::max<size_t>(1, n / 2), n / 2 + 1}) {
      TreeOptions options;
      options.max_depth = depth;
      options.min_samples_leaf = leaf;
      options.feature_fraction = feature_fraction;
      all.push_back(options);
    }
  }
  return all;
}

// ---------------------------------------------------------------------------
// Oracle tests
// ---------------------------------------------------------------------------

TEST(SplitSearchOracleTest, RandomForestMatchesPerNodeSort) {
  int fits = 0;
  for (size_t n : kSizes) {
    for (bool coarse : {false, true}) {
      const Case c = MakeCase(n, coarse, 100 + n);
      for (double fraction : {0.33, 1.0}) {
        for (const TreeOptions& tree : BoundaryOptions(n, fraction)) {
          RandomForestRegressor::Options options;
          options.num_trees = 3;
          options.tree = tree;
          RandomForestRegressor forest(options);
          common::Rng rng(7 + n);
          ASSERT_TRUE(forest.Fit(c.features, c.targets, rng).ok());

          common::Rng reference_rng(7 + n);
          std::vector<common::Rng> tree_rngs =
              reference_rng.ForkStreams(options.num_trees);
          for (int t = 0; t < options.num_trees; ++t) {
            std::vector<size_t> rows(n);
            for (size_t& row : rows) row = tree_rngs[t].UniformInt(n);
            ReferenceRegressionTree reference(tree);
            reference.Fit(c.features, c.targets, rows, tree_rngs[t]);
            ASSERT_EQ(TreeBytes(forest.trees()[t]), reference.Bytes())
                << "n=" << n << " coarse=" << coarse
                << " fraction=" << fraction << " depth=" << tree.max_depth
                << " leaf=" << tree.min_samples_leaf << " tree=" << t;
          }
          EXPECT_EQ(rng.NextUint64(), reference_rng.NextUint64());
          ++fits;
        }
      }
    }
  }
  EXPECT_EQ(fits, 7 * 2 * 2 * 20);
}

TEST(SplitSearchOracleTest, DirectFitWithRepeatedRowsMatchesPerNodeSort) {
  for (size_t n : kSizes) {
    const Case c = MakeCase(n, /*coarse_targets=*/true, 200 + n);
    // Every row twice, the first one five times more, in scrambled order.
    std::vector<size_t> rows;
    for (size_t row = 0; row < n; ++row) rows.insert(rows.end(), 2, row);
    rows.insert(rows.end(), 5, 0);
    common::Rng shuffle(3);
    shuffle.Shuffle(rows);
    for (const TreeOptions& options : BoundaryOptions(n, 0.5)) {
      RegressionTree tree(options);
      common::Rng rng(11);
      ASSERT_TRUE(tree.Fit(c.features, c.targets, rows, rng).ok());
      ReferenceRegressionTree reference(options);
      common::Rng reference_rng(11);
      reference.Fit(c.features, c.targets, rows, reference_rng);
      ASSERT_EQ(TreeBytes(tree), reference.Bytes())
          << "n=" << n << " depth=" << options.max_depth
          << " leaf=" << options.min_samples_leaf;
      EXPECT_EQ(rng.NextUint64(), reference_rng.NextUint64());
    }
  }
}

/// GradientBoostedTrees::Fit replayed with reference trees; returns the
/// trees' bytes in ensemble order.
std::string ReferenceBoostedTreeBytes(const linalg::Matrix& features,
                                      const std::vector<int>& labels,
                                      int num_classes,
                                      const GradientBoostedTrees::Options& o,
                                      common::Rng& rng) {
  const size_t n = features.rows();
  const auto m = static_cast<size_t>(num_classes);
  std::vector<double> prior(m, 0.0);
  for (int label : labels) prior[static_cast<size_t>(label)] += 1.0;
  linalg::Matrix scores(n, m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < m; ++k) {
      scores.At(i, k) =
          std::log(std::max(prior[k], 1.0) / static_cast<double>(n));
    }
  }
  const size_t sample_size = std::max<size_t>(
      2, static_cast<size_t>(o.subsample * static_cast<double>(n)));
  std::vector<size_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::string bytes;
  std::vector<double> gradients(n);
  for (int round = 0; round < o.num_rounds; ++round) {
    const linalg::Matrix probabilities = linalg::Softmax(scores);
    const std::vector<size_t> sample =
        o.subsample >= 1.0 ? all_rows
                           : rng.SampleWithoutReplacement(n, sample_size);
    for (size_t k = 0; k < m; ++k) {
      for (size_t i = 0; i < n; ++i) {
        const double y = labels[i] == static_cast<int>(k) ? 1.0 : 0.0;
        gradients[i] = y - probabilities.At(i, k);
      }
      ReferenceRegressionTree tree(o.tree);
      tree.Fit(features, gradients, sample, rng);
      bytes += tree.Bytes();
      for (size_t i = 0; i < n; ++i) {
        // The reference tree has no kernel; its walk replays the boosting
        // loop's per-row update.
        // bbv-lint: allow(batch-api) test-local reference tree
        const double prediction = tree.PredictRow(features.RowData(i));
        scores.At(i, k) += o.learning_rate * prediction;
      }
    }
  }
  return bytes;
}

TEST(SplitSearchOracleTest, GradientBoostingMatchesPerNodeSort) {
  for (size_t n : {size_t{3}, size_t{17}, size_t{64}, size_t{200}}) {
    for (bool coarse : {false, true}) {
      const Case c = MakeCase(n, coarse, 300 + n);
      for (int num_classes : {2, 3}) {
        std::vector<int> labels = c.labels;
        for (int& label : labels) label %= num_classes;
        for (double subsample : {0.7, 1.0}) {
          for (const TreeOptions& tree : BoundaryOptions(n, 1.0)) {
            GradientBoostedTrees::Options options;
            options.num_rounds = 3;
            options.subsample = subsample;
            options.tree = tree;
            GradientBoostedTrees model(options);
            common::Rng rng(17);
            ASSERT_TRUE(model.Fit(c.features, labels, num_classes, rng).ok());
            std::string bytes;
            for (const RegressionTree& t : model.trees()) {
              bytes += TreeBytes(t);
            }
            common::Rng reference_rng(17);
            ASSERT_EQ(bytes,
                      ReferenceBoostedTreeBytes(c.features, labels,
                                                num_classes, options,
                                                reference_rng))
                << "n=" << n << " coarse=" << coarse
                << " classes=" << num_classes << " subsample=" << subsample
                << " depth=" << tree.max_depth
                << " leaf=" << tree.min_samples_leaf;
            EXPECT_EQ(rng.NextUint64(), reference_rng.NextUint64());
          }
        }
      }
    }
  }
}

TEST(SplitSearchOracleTest, ClassifierMatchesPerNodeSort) {
  for (size_t n : kSizes) {
    const Case c = MakeCase(n, /*coarse_targets=*/false, 400 + n);
    for (double fraction : {0.33, 1.0}) {
      for (const TreeOptions& options : BoundaryOptions(n, fraction)) {
        DecisionTreeClassifier tree(options);
        common::Rng rng(19);
        ASSERT_TRUE(tree.Fit(c.features, c.labels, 3, rng).ok());
        std::ostringstream out;
        ASSERT_TRUE(tree.Save(out).ok());
        ReferenceClassifier reference(options);
        common::Rng reference_rng(19);
        reference.Fit(c.features, c.labels, 3, reference_rng);
        ASSERT_EQ(out.str(), reference.Bytes())
            << "n=" << n << " fraction=" << fraction
            << " depth=" << options.max_depth
            << " leaf=" << options.min_samples_leaf;
        EXPECT_EQ(rng.NextUint64(), reference_rng.NextUint64());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden digest
// ---------------------------------------------------------------------------

// Algorithm 1's final stage at the production shape: 105 meta-examples of
// 2 * 29 percentile features, the {25, 50, 100} 5-fold CV grid, the final
// forest and conformal calibration. The digest was recorded with the
// per-node-sort search; any change to the fitted bytes breaks it.
TEST(SplitSearchGoldenTest, PredictorSaveDigestIsPinned) {
  const size_t width = 2 * core::DefaultPercentilePoints().size();
  common::Rng data_rng(2020);
  std::vector<std::vector<double>> statistics(105);
  std::vector<double> scores(statistics.size());
  for (size_t i = 0; i < statistics.size(); ++i) {
    const double quality = data_rng.Uniform(0.5, 1.0);
    for (size_t j = 0; j < width; ++j) {
      // Coarse grid values, so columns carry ties like real percentiles.
      const double raw = quality * static_cast<double>(j % 29 + 1) / 29.0 +
                         data_rng.Gaussian(0.0, 0.05);
      statistics[i].push_back(std::round(raw * 50.0) / 50.0);
    }
    scores[i] = quality + data_rng.Gaussian(0.0, 0.02);
  }
  core::PerformancePredictor predictor;
  common::Rng rng(1);
  ASSERT_TRUE(predictor.TrainFromStatistics(statistics, scores, 0.9, rng).ok());
  std::ostringstream out;
  ASSERT_TRUE(predictor.Save(out).ok());
  EXPECT_EQ(common::Fnv1aHash(out.str()), 0x740bb6be9e409bdeULL);
  EXPECT_EQ(rng.NextUint64(), 0x8349f1cc2cc4fbd8ULL);
}

}  // namespace
}  // namespace bbv::ml
