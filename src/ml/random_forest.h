#ifndef BBV_ML_RANDOM_FOREST_H_
#define BBV_ML_RANDOM_FOREST_H_

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "ml/decision_tree.h"
#include "ml/forest_kernel.h"

namespace bbv::ml {

/// Random-forest regressor: bootstrap-bagged CART regression trees with
/// per-split feature subsampling. This is the regression model behind the
/// paper's performance predictor (scikit-learn RandomForestRegressor,
/// grid-searched over the number of trees).
///
/// Inference rides the flattened ForestKernel compiled at fit/load time:
/// Predict/PredictInto are the batch surfaces (tiled, deterministic,
/// bit-identical to the legacy per-node walk), and PredictRow is the scalar
/// convenience path for single feature vectors.
class RandomForestRegressor {
 public:
  struct Options {
    int num_trees = 100;
    TreeOptions tree;
    /// Bootstrap sample size as a fraction of the training set.
    double bootstrap_fraction = 1.0;

    Options() {
      tree.max_depth = 10;
      tree.min_samples_leaf = 2;
      tree.feature_fraction = 0.33;  // ~ one third of features per split
    }
  };

  RandomForestRegressor() : RandomForestRegressor(Options{}) {}
  explicit RandomForestRegressor(Options options) : options_(options) {}

  /// Trains the ensemble; targets are arbitrary reals (scores in [0,1] for
  /// the performance-prediction task). Compiles the inference kernel from
  /// the fitted trees before returning.
  common::Status Fit(const linalg::Matrix& features,
                     const std::vector<double>& targets, common::Rng& rng);

  /// Mean prediction across trees for each row; requires fitted().
  std::vector<double> Predict(const linalg::Matrix& features) const;

  /// Allocation-free batch surface: writes the mean prediction per row of
  /// `features` into `out` (whose size must equal features.rows()) through
  /// the flattened kernel. This is THE batch path — new batch call sites
  /// must not loop over PredictRow. Requires fitted().
  void PredictInto(const linalg::Matrix& features,
                   std::span<double> out) const;

  /// Scalar convenience path for a single feature vector (e.g. one
  /// percentile-statistics row at serving time); not the batch path.
  /// Requires fitted().
  double PredictRow(const double* row) const;

  bool fitted() const { return !trees_.empty(); }
  int num_trees() const { return static_cast<int>(trees_.size()); }

  /// Fitted trees (legacy node-walk reference for kernel equivalence
  /// harnesses; empty before Fit).
  const std::vector<RegressionTree>& trees() const { return trees_; }

  /// Compiled inference kernel (empty before Fit/Load).
  const ForestKernel& kernel() const { return kernel_; }

  /// Serialization core: appends the versioned ensemble record (magic,
  /// version, tree count, trees) to an open archive. Byte-identical to what
  /// the stream overload below writes.
  common::Status Save(common::BinaryWriter& writer) const;
  static common::Result<RandomForestRegressor> Load(
      common::BinaryReader& reader);

  /// Thin stream wrappers over the archive core; Load restores the ensemble
  /// and recompiles the kernel so Predict produces bit-identical results
  /// without retraining.
  common::Status Save(std::ostream& out) const;
  static common::Result<RandomForestRegressor> Load(std::istream& in);

 private:
  Options options_;
  std::vector<RegressionTree> trees_;
  ForestKernel kernel_;
};

}  // namespace bbv::ml

#endif  // BBV_ML_RANDOM_FOREST_H_
