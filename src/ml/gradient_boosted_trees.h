#ifndef BBV_ML_GRADIENT_BOOSTED_TREES_H_
#define BBV_ML_GRADIENT_BOOSTED_TREES_H_

#include <span>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "ml/classifier.h"
#include "ml/decision_tree.h"
#include "ml/forest_kernel.h"

namespace bbv::ml {

/// Gradient-boosted decision-tree classifier (xgboost-style softmax
/// boosting): each round fits one regression tree per class to the negative
/// log-loss gradient, with shrinkage and optional row subsampling. This is
/// the paper's `xgb` black box model and also the prediction model inside
/// the performance validator.
///
/// Batch inference rides the flattened ForestKernel compiled at fit/load
/// time: the strided accumulation out[r, t % num_classes] += lr * tree_t(r)
/// reproduces the per-row boosting update bit-for-bit.
class GradientBoostedTrees : public Classifier {
 public:
  struct Options {
    int num_rounds = 50;
    double learning_rate = 0.2;
    /// Fraction of rows sampled (without replacement) per round.
    double subsample = 0.8;
    TreeOptions tree;

    Options() {
      tree.max_depth = 3;
      tree.min_samples_leaf = 5;
    }
  };

  GradientBoostedTrees() : GradientBoostedTrees(Options{}) {}
  explicit GradientBoostedTrees(Options options) : options_(options) {}

  common::Status Fit(const linalg::Matrix& features,
                     const std::vector<int>& labels, int num_classes,
                     common::Rng& rng) override;
  linalg::Matrix PredictProba(const linalg::Matrix& features) const override;
  std::string Name() const override { return "xgb"; }

  /// Allocation-free batch surface: writes the row-major (n x num_classes)
  /// probability matrix into `out` (whose size must equal
  /// features.rows() * num_classes()) through the flattened kernel.
  /// Requires a prior Fit or Load.
  void PredictProbaInto(const linalg::Matrix& features,
                        std::span<double> out) const;

  /// Serialization core: appends the versioned ensemble record to an open
  /// archive. Byte-identical to what the stream overload below writes.
  common::Status Save(common::BinaryWriter& writer) const;
  static common::Result<GradientBoostedTrees> Load(
      common::BinaryReader& reader);

  /// Thin stream wrappers over the archive core; Load restores the ensemble
  /// and recompiles the kernel for bit-identical inference.
  common::Status Save(std::ostream& out) const;
  static common::Result<GradientBoostedTrees> Load(std::istream& in);

  int num_rounds_fitted() const {
    return num_classes_ == 0
               ? 0
               : static_cast<int>(trees_.size()) / num_classes_;
  }

  /// Fitted trees in boosting order (legacy node-walk reference for kernel
  /// equivalence harnesses); trees()[round * num_classes + k] boosts class k.
  const std::vector<RegressionTree>& trees() const { return trees_; }
  const std::vector<double>& base_scores() const { return base_scores_; }
  double learning_rate() const { return options_.learning_rate; }

  /// Compiled inference kernel (empty before Fit/Load).
  const ForestKernel& kernel() const { return kernel_; }

 private:
  Options options_;
  bool fitted_ = false;
  /// trees_[round * num_classes + k] boosts the score of class k.
  std::vector<RegressionTree> trees_;
  std::vector<double> base_scores_;  // log-prior per class
  ForestKernel kernel_;
};

}  // namespace bbv::ml

#endif  // BBV_ML_GRADIENT_BOOSTED_TREES_H_
