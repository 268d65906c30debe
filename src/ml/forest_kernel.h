#ifndef BBV_ML_FOREST_KERNEL_H_
#define BBV_ML_FOREST_KERNEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "ml/decision_tree.h"

namespace bbv::ml {

/// Flattened, cache-friendly inference representation compiled from a fitted
/// RegressionTree ensemble. This is the batch hot path behind every
/// tree-ensemble prediction: the performance predictor's meta-training
/// collection corrupts the held-out set hundreds of times and scores every
/// copy through the forest, so ensemble inference dominates both training
/// and serving-time EstimateScore calls.
///
/// Layout: the internal nodes of all trees live in contiguous
/// structure-of-arrays columns (`feature`, `threshold`, `left`, `right`)
/// indexed by one global node id, and leaf payloads live in a separate
/// `value` array. Children are encoded by sign — a non-negative child is the
/// global id of another internal node, a negative child `c` is the leaf
/// `value[~c]` — so traversal is a branch-light compare/select loop with no
/// leaf test against a sentinel feature.
///
/// Traversal is blocked row x tree: a tile of rows stays resident in cache
/// while every tree walks it in ensemble order, and tiles fan out over
/// common::ParallelFor. Each tile writes only its own output slots and
/// accumulates per row in fixed tree order, so results are bit-identical to
/// the legacy one-row-at-a-time node walk at every BBV_THREADS setting
/// (determinism contract, see README "Concurrency model").
class ForestKernel {
 public:
  /// Empty kernel; every inference entry point BBV_CHECKs against it.
  ForestKernel() = default;

  /// Compiles the flattened representation from fitted trees (every tree
  /// must have at least one node). The kernel copies what it needs; the
  /// source trees can be discarded or mutated afterwards.
  static ForestKernel Compile(std::span<const RegressionTree> trees);

  bool empty() const { return roots_.empty(); }
  size_t num_trees() const { return roots_.size(); }
  size_t num_internal_nodes() const { return feature_.size(); }
  size_t num_leaves() const { return leaf_value_.size(); }
  /// Largest feature index any split reads, or -1 for all-leaf ensembles.
  /// Batch entry points check it against the input's column count, so a
  /// mis-shaped matrix fails fast instead of reading out of bounds.
  int32_t max_feature() const { return max_feature_; }

  /// Strided accumulation: for every row r and every tree t (in ensemble
  /// order), out[r * stride + t % stride] += scale * tree_t(row r). With
  /// stride == num_classes and scale == learning_rate this is exactly the
  /// gradient-boosted score update; out must be pre-filled with the base
  /// scores. `out.size()` must equal features.rows() * stride.
  void AccumulateInto(const linalg::Matrix& features, double scale,
                      size_t stride, std::span<double> out) const;

  /// Mean across trees for every row (random-forest semantics); writes one
  /// prediction per row. `out.size()` must equal features.rows().
  void PredictMeanInto(const linalg::Matrix& features,
                       std::span<double> out) const;

  /// Scalar convenience path: mean across trees for one feature row. The
  /// caller guarantees
  /// `row` has at least max_feature() + 1 entries.
  double PredictRowMean(const double* row) const;

  /// Per-tree leaf responses for one feature row, in ensemble order:
  /// out[t] = tree_t(row). This exposes the
  /// quantile-regression-forest view of the ensemble — the spread of these
  /// values is the difficulty signal core::ConformalCalibrator's
  /// kQuantileForest mode scales intervals by. `out.size()` must equal
  /// num_trees(); `row` must have at least max_feature() + 1 entries.
  void PredictRowValuesInto(const double* row, std::span<double> out) const;

 private:
  /// Shared tiled traversal; when `mean` is set, stride is 1 and every
  /// output slot is divided by num_trees() after accumulation.
  void Run(const linalg::Matrix& features, double scale, size_t stride,
           bool mean, std::span<double> out) const;

  /// Walk over rows [begin, end) of one tile.
  void RunTile(const linalg::Matrix& features, size_t begin, size_t end,
                    double scale, size_t stride, std::span<double> out) const;

  double TraverseRow(size_t tree, const double* row) const {
    int32_t node = roots_[tree];
    while (node >= 0) {
      const auto i = static_cast<size_t>(node);
      node = row[feature_[i]] <= threshold_[i] ? left_[i] : right_[i];
    }
    return leaf_value_[static_cast<size_t>(~node)];
  }

  // Structure-of-arrays internal nodes, global ids across all trees.
  std::vector<int32_t> feature_;
  std::vector<double> threshold_;
  std::vector<int32_t> left_;
  std::vector<int32_t> right_;
  // Leaf payloads, indexed by ~child for negative children.
  std::vector<double> leaf_value_;
  // Per-tree root, sign-encoded like a child (a single-leaf tree has a
  // negative root).
  std::vector<int32_t> roots_;
  int32_t max_feature_ = -1;
  // Whether the whole flattened ensemble fits in L1: compact ensembles
  // (e.g. depth-3 boosted trees) are traversed rows-outer so each row's
  // accumulator stays hot, large ones trees-outer so a row tile amortizes
  // pulling each tree through cache. Either order sums per output slot in
  // ascending tree order, so the choice never changes a single bit.
  bool compact_ = false;
};

}  // namespace bbv::ml

#endif  // BBV_ML_FOREST_KERNEL_H_
