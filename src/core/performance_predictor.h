#ifndef BBV_CORE_PERFORMANCE_PREDICTOR_H_
#define BBV_CORE_PERFORMANCE_PREDICTOR_H_

#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/serialize.h"
#include "common/rng.h"
#include "core/conformal.h"
#include "core/score_estimate.h"
#include "data/dataset.h"
#include "errors/error_gen.h"
#include "linalg/matrix.h"
#include "ml/black_box.h"
#include "ml/random_forest.h"

namespace bbv::core {

/// Which prediction-quality score L the predictor estimates.
enum class ScoreMetric {
  kAccuracy,
  kRocAuc,
};

/// Computes the chosen score of `probabilities` against `labels`.
double ComputeScore(ScoreMetric metric, const linalg::Matrix& probabilities,
                    const std::vector<int>& labels);

/// Row-index-view variant: score of the sub-batch `rows` of `probabilities`,
/// with `labels` indexed by full-matrix row id. Lets the subsampled
/// meta-training path score repetitions without materializing a sub-matrix
/// per draw.
double ComputeScore(ScoreMetric metric, const linalg::Matrix& probabilities,
                    const std::vector<size_t>& rows,
                    const std::vector<int>& labels);

/// The paper's core contribution (Algorithms 1 & 2): a regression model that
/// estimates a black box classifier's prediction quality on unseen,
/// unlabeled serving data from percentiles of the model's output
/// distribution. Trained on synthetically corrupted copies of the held-out
/// test set produced by user-specified error generators.
class PerformancePredictor {
 public:
  struct Options {
    /// Corrupted copies of D_test generated per error generator
    /// (the paper repeats corruption ~100 times per column/error combo).
    int corruptions_per_generator = 100;
    /// Clean (uncorrupted) copies mixed into the training set, covering the
    /// paper's p_err = 0 case.
    int clean_copies = 5;
    /// Percentile grid for the output statistics.
    std::vector<double> percentile_points;
    /// Score to predict.
    ScoreMetric metric = ScoreMetric::kAccuracy;
    /// When non-zero, every meta-training example is computed on a random
    /// row subset of this size instead of the full test set. Set this to
    /// the expected serving batch size so the output statistics carry the
    /// same sampling noise at training and serving time.
    size_t meta_batch_size = 0;
    /// Grid searched over the random forest's tree count with
    /// `cv_folds`-fold cross validation minimizing MAE (paper §4).
    std::vector<int> tree_count_grid = {25, 50, 100};
    int cv_folds = 5;
    /// Conformal calibration of the estimate intervals (ScoreEstimate
    /// lo/hi). When on, training runs an out-of-fold residual pass *after*
    /// the final regressor fit — the fitted forest (and hence every
    /// `.point`) is byte-for-byte what an uncalibrated train produces.
    /// Calibration is skipped (estimates stay degenerate) when there are
    /// fewer meta-training examples than calibration folds.
    bool conformal_calibration = true;
    /// Nonconformity mode: kSplitConformal for constant-width intervals,
    /// kQuantileForest for locally scaled ones (see ConformalCalibrator).
    ConformalCalibrator::Mode conformal_mode =
        ConformalCalibrator::Mode::kSplitConformal;
    /// Folds of the out-of-fold residual pass.
    int calibration_folds = 5;
    /// Nominal marginal coverage of the intervals the EstimateScore*
    /// surfaces return; explicit-coverage overloads exist for callers that
    /// sweep coverage levels.
    double coverage_level = 0.9;
  };

  PerformancePredictor() : PerformancePredictor(Options{}) {}
  explicit PerformancePredictor(Options options);

  /// Algorithm 1: corrupts `test` with every generator in `generators`,
  /// records (output percentiles, true score) pairs, and fits the random
  /// forest regressor. `model` must already be trained; `test` must be
  /// labeled and disjoint from the model's training data.
  common::Status Train(
      const ml::BlackBox& model, const data::Dataset& test,
      const std::vector<const errors::ErrorGen*>& generators,
      common::Rng& rng);

  /// Variant of Algorithm 1 for callers that already generated the
  /// (prediction statistics, score) pairs — e.g. the performance validator,
  /// which shares one corruption pass between itself and its internal
  /// predictor. `test_score` is the clean-test reference score l_test.
  common::Status TrainFromStatistics(
      const std::vector<std::vector<double>>& statistics,
      const std::vector<double>& scores, double test_score, common::Rng& rng);

  /// Algorithm 2: estimated score of `model` on the unlabeled serving
  /// batch, as a point with its conformal interval (degenerate when the
  /// predictor is uncalibrated). The interval sits at
  /// Options::coverage_level.
  common::Result<ScoreEstimate> EstimateScore(
      const ml::BlackBox& model, const data::DataFrame& serving) const;

  /// Estimated score from precomputed model outputs.
  common::Result<ScoreEstimate> EstimateScoreFromProba(
      const linalg::Matrix& probabilities) const;
  /// Explicit-coverage overload for callers sweeping coverage levels.
  common::Result<ScoreEstimate> EstimateScoreFromProba(
      const linalg::Matrix& probabilities, double coverage_level) const;

  /// One estimation-error measurement on a *labeled* serving frame: the
  /// model predicts `serving` once, and the shared probabilities feed both
  /// the estimate (Algorithm 2) and the true score against `labels`. This is
  /// the probe the adversarial corruption search maximizes
  /// (errors::CorruptionSearch::ErrorProbe — errors sits below core in the
  /// layering DAG, so the search takes this hook as a std::function instead
  /// of depending on the predictor).
  struct EstimationErrorProbe {
    /// Point estimate (== estimate.point, kept as a thin accessor so the
    /// committed adversarial fixtures replay bytes-unchanged).
    double estimated_score = 0.0;
    double actual_score = 0.0;
    /// |estimated - actual| — the quantity the search maximizes.
    double abs_error = 0.0;
    /// The full interval-carrying estimate behind estimated_score.
    ScoreEstimate estimate;
  };
  common::Result<EstimationErrorProbe> ProbeEstimationError(
      const ml::BlackBox& model, const data::DataFrame& serving,
      const std::vector<int>& labels) const;

  /// Estimated score from a precomputed percentile feature vector — the
  /// entry point for the streaming serving layer, whose mergeable sketches
  /// produce the same num_classes * percentile_points() features without
  /// retaining rows. Takes a span so callers hand over their statistics
  /// buffer without copying; `statistics` must match the feature dimension
  /// the regressor was trained on.
  common::Result<ScoreEstimate> EstimateScoreFromStatistics(
      std::span<const double> statistics) const;
  /// Explicit-coverage overload for callers sweeping coverage levels.
  common::Result<ScoreEstimate> EstimateScoreFromStatistics(
      std::span<const double> statistics, double coverage_level) const;

  /// Batch variant for the multi-tenant serving layer: one percentile
  /// feature row per pending request, all scored through a single
  /// ForestKernel batch call instead of one scalar walk per request.
  /// Bit-identical per row to EstimateScoreFromStatistics — the kernel's
  /// exact batch path accumulates trees in the same order as the scalar
  /// walk, and the interval is a pure function of the point (plus, in
  /// quantile-forest mode, the per-row tree spread, computed identically on
  /// both paths). `statistics` must have feature_dimension() columns and
  /// `out.size()` rows. The point-only overload is the serving fast path
  /// for consumers that do not read intervals.
  common::Status EstimateScoresFromStatistics(const linalg::Matrix& statistics,
                                              std::span<double> out) const;
  common::Status EstimateScoresFromStatistics(
      const linalg::Matrix& statistics, std::span<ScoreEstimate> out) const;

  /// Percentile grid the regressor's features are built on. Streaming
  /// consumers must query their sketches at exactly these points.
  const std::vector<double>& percentile_points() const {
    return options_.percentile_points;
  }

  /// Length of the percentile feature vector the regressor expects
  /// (num_classes * percentile grid size); 0 before training.
  size_t feature_dimension() const { return feature_dimension_; }

  /// Score the black box achieved on the clean held-out test set
  /// (the paper's l_test reference value).
  double test_score() const { return test_score_; }

  /// Number of (statistics, score) training pairs collected.
  size_t num_training_examples() const { return num_training_examples_; }

  /// Tree count selected by cross-validation.
  int selected_tree_count() const { return selected_tree_count_; }

  bool trained() const { return trained_; }

  /// The conformal calibration state (uncalibrated before training, or
  /// when Options::conformal_calibration is off / the meta-training set is
  /// too small for the fold pass).
  const ConformalCalibrator& calibrator() const { return calibrator_; }
  /// Coverage level the default EstimateScore* surfaces use.
  double coverage_level() const { return options_.coverage_level; }

  /// Persists the trained predictor (random forest, percentile grid, score
  /// metric, reference test score and conformal calibration state) so it
  /// can be deployed next to a serving system and reloaded without
  /// retraining.
  common::Status Save(std::ostream& out) const;
  static common::Result<PerformancePredictor> Load(std::istream& in);

 private:
  /// Out-of-fold residual pass feeding calibrator_; runs after the final
  /// regressor fit and on an internal fixed-seed Rng, so both the forest
  /// bytes and the caller's Rng stream are calibration-independent.
  common::Status CalibrateConformal(const linalg::Matrix& features,
                                    const std::vector<double>& scores);
  /// Inter-quartile range of the final forest's per-tree predictions for
  /// one feature row (the kQuantileForest difficulty signal).
  double TreeValueSpread(const double* row) const;
  /// Interval around a point prediction for the feature row `row` at the
  /// given coverage (row is only walked in quantile-forest mode).
  ScoreEstimate IntervalFor(double point, const double* row,
                            double coverage_level) const;

  Options options_;
  bool trained_ = false;
  double test_score_ = 0.0;
  size_t num_training_examples_ = 0;
  size_t feature_dimension_ = 0;
  int selected_tree_count_ = 0;
  ml::RandomForestRegressor regressor_;
  ConformalCalibrator calibrator_;
};

}  // namespace bbv::core

#endif  // BBV_CORE_PERFORMANCE_PREDICTOR_H_
