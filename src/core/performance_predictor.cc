#include "core/performance_predictor.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/prediction_statistics.h"
#include "ml/cross_validation.h"
#include "ml/metrics.h"
#include "stats/descriptive.h"

namespace bbv::core {

double ComputeScore(ScoreMetric metric, const linalg::Matrix& probabilities,
                    const std::vector<int>& labels) {
  switch (metric) {
    case ScoreMetric::kAccuracy:
      return ml::AccuracyFromProba(probabilities, labels);
    case ScoreMetric::kRocAuc:
      return ml::RocAucFromProba(probabilities, labels);
  }
  BBV_CHECK(false) << "unreachable";
  return 0.0;
}

double ComputeScore(ScoreMetric metric, const linalg::Matrix& probabilities,
                    const std::vector<size_t>& rows,
                    const std::vector<int>& labels) {
  switch (metric) {
    case ScoreMetric::kAccuracy:
      return ml::AccuracyFromProba(probabilities, rows, labels);
    case ScoreMetric::kRocAuc:
      return ml::RocAucFromProba(probabilities, rows, labels);
  }
  BBV_CHECK(false) << "unreachable";
  return 0.0;
}

PerformancePredictor::PerformancePredictor(Options options)
    : options_(std::move(options)) {
  if (options_.percentile_points.empty()) {
    options_.percentile_points = DefaultPercentilePoints();
  }
}

common::Status PerformancePredictor::Train(
    const ml::BlackBox& model, const data::Dataset& test,
    const std::vector<const errors::ErrorGen*>& generators,
    common::Rng& rng) {
  const common::telemetry::TraceSpan span("predictor.train");
  common::telemetry::IncrementCounter("predictor.train.calls");
  if (test.NumRows() == 0) {
    return common::Status::InvalidArgument("empty test dataset");
  }
  if (generators.empty()) {
    return common::Status::InvalidArgument(
        "need at least one error generator");
  }

  // Score on the clean test data (line 2 of Algorithm 1).
  BBV_ASSIGN_OR_RETURN(linalg::Matrix clean_probabilities,
                       model.PredictProba(test.features));
  test_score_ = ComputeScore(options_.metric, clean_probabilities, test.labels);

  // Collect the meta-training set M (lines 3-12). Every corrupt → predict →
  // score pass is independent, so the collection fans out over the shared
  // thread pool: one pre-forked Rng per task keeps the collected set (and
  // hence the serialized model) bit-identical at every thread count.
  const bool subsample = options_.meta_batch_size > 0 &&
                         options_.meta_batch_size < test.NumRows();
  std::vector<const errors::ErrorGen*> task_generators;
  for (int c = 0; c < options_.clean_copies; ++c) {
    task_generators.push_back(nullptr);  // clean copy
  }
  for (const errors::ErrorGen* generator : generators) {
    BBV_CHECK(generator != nullptr);
    for (int repetition = 0; repetition < options_.corruptions_per_generator;
         ++repetition) {
      task_generators.push_back(generator);
    }
  }
  common::telemetry::IncrementCounter("predictor.meta_examples",
                                      task_generators.size());
  std::vector<common::Rng> task_rngs = rng.ForkStreams(task_generators.size());
  std::vector<std::vector<double>> feature_rows(task_generators.size());
  std::vector<double> scores(task_generators.size());
  BBV_RETURN_NOT_OK(common::ParallelFor(
      task_generators.size(), [&](size_t task) -> common::Status {
        common::Rng& task_rng = task_rngs[task];
        const linalg::Matrix* probabilities = &clean_probabilities;
        linalg::Matrix corrupted_probabilities;
        if (task_generators[task] != nullptr) {
          BBV_ASSIGN_OR_RETURN(
              data::DataFrame corrupted,
              task_generators[task]->Corrupt(test.features, task_rng));
          BBV_ASSIGN_OR_RETURN(corrupted_probabilities,
                               model.PredictProba(corrupted));
          probabilities = &corrupted_probabilities;
        }
        if (subsample) {
          // Row-index view: no per-repetition sub-matrix/label copies.
          const std::vector<size_t> rows = task_rng.SampleWithoutReplacement(
              test.NumRows(), options_.meta_batch_size);
          feature_rows[task] = PredictionStatistics(
              *probabilities, rows, options_.percentile_points);
          scores[task] =
              ComputeScore(options_.metric, *probabilities, rows, test.labels);
        } else {
          feature_rows[task] = PredictionStatistics(
              *probabilities, options_.percentile_points);
          scores[task] =
              ComputeScore(options_.metric, *probabilities, test.labels);
        }
        return common::Status::OK();
      }));
  return TrainFromStatistics(feature_rows, scores, test_score_, rng);
}

common::Status PerformancePredictor::TrainFromStatistics(
    const std::vector<std::vector<double>>& statistics,
    const std::vector<double>& scores, double test_score, common::Rng& rng) {
  if (statistics.size() != scores.size()) {
    return common::Status::InvalidArgument(
        "statistics and scores disagree on the number of examples");
  }
  if (statistics.empty()) {
    return common::Status::InvalidArgument("no meta-training examples");
  }
  test_score_ = test_score;
  const linalg::Matrix features = linalg::Matrix::FromRows(statistics);
  num_training_examples_ = scores.size();
  feature_dimension_ = features.cols();

  // Grid search over the number of trees with k-fold CV on MAE (line 13;
  // paper §4 trains a RandomForestRegressor with five-fold CV).
  BBV_CHECK(!options_.tree_count_grid.empty());
  int best_trees = options_.tree_count_grid.front();
  double best_mae = -1.0;
  if (options_.tree_count_grid.size() > 1 &&
      scores.size() >= static_cast<size_t>(options_.cv_folds)) {
    for (int tree_count : options_.tree_count_grid) {
      auto factory = [tree_count]() {
        ml::RandomForestRegressor::Options forest_options;
        forest_options.num_trees = tree_count;
        return ml::RandomForestRegressor(forest_options);
      };
      BBV_ASSIGN_OR_RETURN(
          double mae,
          ml::CrossValRegressionMae(factory, features, scores,
                                    options_.cv_folds, rng));
      if (best_mae < 0.0 || mae < best_mae) {
        best_mae = mae;
        best_trees = tree_count;
      }
    }
  }
  selected_tree_count_ = best_trees;

  ml::RandomForestRegressor::Options forest_options;
  forest_options.num_trees = best_trees;
  regressor_ = ml::RandomForestRegressor(forest_options);
  BBV_RETURN_NOT_OK(regressor_.Fit(features, scores, rng));
  // The conformal pass runs strictly AFTER the final fit and on its own
  // internal Rng: it neither perturbs the Rng draws the forest consumed nor
  // advances the caller's stream, so the regressor, every `.point`
  // downstream (including the committed adversarial-search probe fixtures),
  // and every later draw from `rng` are byte-identical whether calibration
  // is on or off.
  calibrator_ = ConformalCalibrator();
  if (options_.conformal_calibration && options_.calibration_folds >= 2 &&
      scores.size() >= static_cast<size_t>(options_.calibration_folds)) {
    BBV_RETURN_NOT_OK(CalibrateConformal(features, scores));
  }
  trained_ = true;
  return common::Status::OK();
}

common::Status PerformancePredictor::CalibrateConformal(
    const linalg::Matrix& features, const std::vector<double>& scores) {
  const common::telemetry::TraceSpan span("predictor.calibrate");
  const bool scaled =
      options_.conformal_mode == ConformalCalibrator::Mode::kQuantileForest;
  // Fixed-seed internal stream, deliberately NOT the training Rng: drawing
  // the fold permutation from the caller's stream would shift every Rng
  // consumer downstream of Train, breaking seed-pinned fixtures and replays
  // that predate calibration. The fold split only needs to be deterministic,
  // which a constant seed plus the example count provides.
  common::Rng rng(0xC0'4F'0B'A1ull + scores.size());
  const std::vector<ml::Fold> folds = ml::KFoldIndices(
      scores.size(), options_.calibration_folds, rng);
  // Fold refits are independent and write disjoint slots; one pre-forked
  // stream per fold keeps the residual multiset — and hence the canonical
  // sorted calibration state — byte-identical at every BBV_THREADS.
  std::vector<common::Rng> fold_rngs = rng.ForkStreams(folds.size());
  std::vector<std::vector<double>> fold_predictions(folds.size());
  std::vector<std::vector<double>> fold_spreads(folds.size());
  BBV_RETURN_NOT_OK(common::ParallelFor(
      folds.size(), [&](size_t f) -> common::Status {
        const ml::Fold& fold = folds[f];
        const linalg::Matrix train_x = features.SelectRows(fold.train_rows);
        const linalg::Matrix test_x = features.SelectRows(fold.test_rows);
        std::vector<double> train_y;
        train_y.reserve(fold.train_rows.size());
        for (size_t row : fold.train_rows) train_y.push_back(scores[row]);
        ml::RandomForestRegressor::Options forest_options;
        forest_options.num_trees = selected_tree_count_;
        ml::RandomForestRegressor fold_model(forest_options);
        BBV_RETURN_NOT_OK(fold_model.Fit(train_x, train_y, fold_rngs[f]));
        fold_predictions[f].resize(fold.test_rows.size());
        fold_model.PredictInto(test_x, fold_predictions[f]);
        if (scaled) {
          // Difficulty scale from the FINAL forest, not the fold model: the
          // normalized-conformal guarantee needs one fixed sigma(x) shared
          // between calibration and serving, and fold forests (fit on a 1 -
          // 1/folds fraction) have systematically wider tree spreads, which
          // would deflate every calibration score and undercover at serving
          // time. Residuals above stay honest (out-of-fold) regardless.
          fold_spreads[f].reserve(fold.test_rows.size());
          for (size_t i = 0; i < fold.test_rows.size(); ++i) {
            fold_spreads[f].push_back(TreeValueSpread(test_x.RowData(i)));
          }
        }
        return common::Status::OK();
      }));
  // Serial assembly in fold-major order; the calibrator canonicalizes by
  // sorting, so assembly order never reaches the stored state anyway.
  std::vector<double> truths;
  std::vector<double> predictions;
  std::vector<double> spreads;
  truths.reserve(scores.size());
  predictions.reserve(scores.size());
  if (scaled) spreads.reserve(scores.size());
  for (size_t f = 0; f < folds.size(); ++f) {
    for (size_t i = 0; i < folds[f].test_rows.size(); ++i) {
      truths.push_back(scores[folds[f].test_rows[i]]);
      predictions.push_back(fold_predictions[f][i]);
      if (scaled) spreads.push_back(fold_spreads[f][i]);
    }
  }
  BBV_ASSIGN_OR_RETURN(
      calibrator_,
      ConformalCalibrator::Calibrate(options_.conformal_mode, truths,
                                     predictions, spreads));
  common::telemetry::IncrementCounter("predictor.calibration_examples",
                                      truths.size());
  return common::Status::OK();
}

double PerformancePredictor::TreeValueSpread(const double* row) const {
  const ml::ForestKernel& kernel = regressor_.kernel();
  std::vector<double> tree_values(kernel.num_trees());
  kernel.PredictRowValuesInto(row, tree_values);
  const stats::SortedView view(std::move(tree_values));
  return view.Percentile(75.0) - view.Percentile(25.0);
}

ScoreEstimate PerformancePredictor::IntervalFor(
    double point, const double* row, double coverage_level) const {
  if (!calibrator_.calibrated()) return ScoreEstimate::Degenerate(point);
  const bool scaled =
      calibrator_.mode() == ConformalCalibrator::Mode::kQuantileForest;
  const double spread = scaled ? TreeValueSpread(row) : 0.0;
  return calibrator_.Interval(point, spread, coverage_level);
}

namespace {
constexpr char kPredictorMagic[] = "BBVPP";
// Version 2 added the trained feature dimension, which guards
// EstimateScoreFromStatistics against mis-sized feature vectors. Version 3
// carries the conformal calibration state (coverage level, mode, sorted
// residual quantiles) so a deployed predictor serves the same intervals it
// was trained with.
constexpr uint32_t kPredictorVersion = 3;
}  // namespace

common::Status PerformancePredictor::Save(std::ostream& out) const {
  if (!trained_) {
    return common::Status::FailedPrecondition("Save before Train");
  }
  common::BinaryWriter writer(out);
  writer.WriteMagic(kPredictorMagic, kPredictorVersion);
  writer.WriteInt32(static_cast<int32_t>(options_.metric));
  writer.WriteDouble(test_score_);
  writer.WriteDoubleVector(options_.percentile_points);
  writer.WriteInt32(static_cast<int32_t>(selected_tree_count_));
  writer.WriteUint64(num_training_examples_);
  writer.WriteUint64(feature_dimension_);
  writer.WriteDouble(options_.coverage_level);
  // Canonical calibration state: sorted residuals, so equal calibration
  // multisets — e.g. the same train at different BBV_THREADS — serialize
  // byte-identically.
  calibrator_.Save(writer);
  BBV_RETURN_NOT_OK(writer.status());
  // Chain the forest's archive core onto the open writer; the bytes are
  // identical to the pre-redesign nested stream Save.
  return regressor_.Save(writer);
}

common::Result<PerformancePredictor> PerformancePredictor::Load(
    std::istream& in) {
  common::BinaryReader reader(in);
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kPredictorMagic, kPredictorVersion));
  BBV_ASSIGN_OR_RETURN(int32_t metric, reader.ReadInt32());
  if (metric < 0 || metric > static_cast<int32_t>(ScoreMetric::kRocAuc)) {
    return common::Status::InvalidArgument("corrupt score metric");
  }
  Options options;
  options.metric = static_cast<ScoreMetric>(metric);
  PerformancePredictor predictor(options);
  BBV_ASSIGN_OR_RETURN(predictor.test_score_, reader.ReadDouble());
  BBV_ASSIGN_OR_RETURN(predictor.options_.percentile_points,
                       reader.ReadDoubleVector());
  if (predictor.options_.percentile_points.empty()) {
    return common::Status::InvalidArgument("corrupt percentile grid");
  }
  // The quantile machinery BBV_CHECKs that the grid is sorted and within
  // [0, 100]; a predictor file is untrusted input, so reject a bad grid here
  // instead of aborting at the first serving-time estimate.
  for (size_t i = 0; i < predictor.options_.percentile_points.size(); ++i) {
    const double point = predictor.options_.percentile_points[i];
    if (!std::isfinite(point) || point < 0.0 || point > 100.0 ||
        (i > 0 && point <= predictor.options_.percentile_points[i - 1])) {
      return common::Status::InvalidArgument("corrupt percentile grid");
    }
  }
  BBV_ASSIGN_OR_RETURN(int32_t tree_count, reader.ReadInt32());
  predictor.selected_tree_count_ = tree_count;
  BBV_ASSIGN_OR_RETURN(uint64_t examples, reader.ReadUint64());
  predictor.num_training_examples_ = examples;
  BBV_ASSIGN_OR_RETURN(uint64_t feature_dimension, reader.ReadUint64());
  // The feature vector is num_classes * |grid| by construction; anything
  // else is corrupt and would wedge every class-count check downstream.
  if (feature_dimension == 0 ||
      feature_dimension % predictor.options_.percentile_points.size() != 0) {
    return common::Status::InvalidArgument("corrupt feature dimension");
  }
  predictor.feature_dimension_ = feature_dimension;
  BBV_ASSIGN_OR_RETURN(double coverage_level, reader.ReadDouble());
  if (!(coverage_level > 0.0 && coverage_level < 1.0)) {
    return common::Status::InvalidArgument("corrupt coverage level");
  }
  predictor.options_.coverage_level = coverage_level;
  BBV_ASSIGN_OR_RETURN(predictor.calibrator_,
                       ConformalCalibrator::Load(reader));
  predictor.options_.conformal_mode = predictor.calibrator_.mode();
  BBV_ASSIGN_OR_RETURN(predictor.regressor_,
                       ml::RandomForestRegressor::Load(reader));
  // A split on a feature past the trained width would read beyond every
  // statistics row the size checks at serving time let through.
  const int32_t max_feature = predictor.regressor_.kernel().max_feature();
  if (max_feature >= 0 &&
      static_cast<uint64_t>(max_feature) >= feature_dimension) {
    return common::Status::InvalidArgument(
        "forest splits on a feature beyond the feature dimension");
  }
  predictor.trained_ = true;
  return predictor;
}

common::Result<ScoreEstimate> PerformancePredictor::EstimateScore(
    const ml::BlackBox& model, const data::DataFrame& serving) const {
  BBV_ASSIGN_OR_RETURN(linalg::Matrix probabilities,
                       model.PredictProba(serving));
  return EstimateScoreFromProba(probabilities);
}

common::Result<PerformancePredictor::EstimationErrorProbe>
PerformancePredictor::ProbeEstimationError(
    const ml::BlackBox& model, const data::DataFrame& serving,
    const std::vector<int>& labels) const {
  const common::telemetry::TraceSpan span("predictor.probe_error");
  if (!trained_) {
    return common::Status::FailedPrecondition(
        "ProbeEstimationError before Train");
  }
  if (labels.size() != serving.NumRows()) {
    return common::Status::InvalidArgument(
        "probe labels size " + std::to_string(labels.size()) +
        " != serving rows " + std::to_string(serving.NumRows()));
  }
  BBV_ASSIGN_OR_RETURN(linalg::Matrix probabilities,
                       model.PredictProba(serving));
  EstimationErrorProbe probe;
  BBV_ASSIGN_OR_RETURN(probe.estimate, EstimateScoreFromProba(probabilities));
  probe.estimated_score = probe.estimate.point;
  probe.actual_score = ComputeScore(options_.metric, probabilities, labels);
  probe.abs_error = std::fabs(probe.estimated_score - probe.actual_score);
  return probe;
}

common::Result<ScoreEstimate> PerformancePredictor::EstimateScoreFromProba(
    const linalg::Matrix& probabilities) const {
  return EstimateScoreFromProba(probabilities, options_.coverage_level);
}

common::Result<ScoreEstimate> PerformancePredictor::EstimateScoreFromProba(
    const linalg::Matrix& probabilities, double coverage_level) const {
  const common::telemetry::TraceSpan span("predictor.estimate");
  if (!trained_) {
    return common::Status::FailedPrecondition("EstimateScore before Train");
  }
  common::telemetry::IncrementCounter("predictor.estimate.calls");
  common::telemetry::IncrementCounter("predictor.estimate.rows",
                                      probabilities.rows());
  const std::vector<double> statistics =
      PredictionStatistics(probabilities, options_.percentile_points);
  if (statistics.size() != feature_dimension_) {
    return common::Status::InvalidArgument(
        "serving batch has " + std::to_string(probabilities.cols()) +
        " classes but the predictor was trained on " +
        std::to_string(feature_dimension_ /
                       options_.percentile_points.size()));
  }
  const double point = regressor_.PredictRow(statistics.data());
  return IntervalFor(point, statistics.data(), coverage_level);
}

common::Result<ScoreEstimate>
PerformancePredictor::EstimateScoreFromStatistics(
    std::span<const double> statistics) const {
  return EstimateScoreFromStatistics(statistics, options_.coverage_level);
}

common::Result<ScoreEstimate>
PerformancePredictor::EstimateScoreFromStatistics(
    std::span<const double> statistics, double coverage_level) const {
  const common::telemetry::TraceSpan span("predictor.estimate");
  if (!trained_) {
    return common::Status::FailedPrecondition("EstimateScore before Train");
  }
  if (statistics.size() != feature_dimension_) {
    // The regressor indexes features by position; a mis-sized vector would
    // read out of bounds, so reject it before inference.
    return common::Status::InvalidArgument(
        "feature vector has " + std::to_string(statistics.size()) +
        " entries but the predictor was trained on " +
        std::to_string(feature_dimension_));
  }
  common::telemetry::IncrementCounter("predictor.estimate.calls");
  const double point = regressor_.PredictRow(statistics.data());
  return IntervalFor(point, statistics.data(), coverage_level);
}

common::Status PerformancePredictor::EstimateScoresFromStatistics(
    const linalg::Matrix& statistics, std::span<double> out) const {
  const common::telemetry::TraceSpan span("predictor.estimate_batch");
  if (!trained_) {
    return common::Status::FailedPrecondition("EstimateScore before Train");
  }
  if (statistics.cols() != feature_dimension_) {
    return common::Status::InvalidArgument(
        "feature matrix has " + std::to_string(statistics.cols()) +
        " columns but the predictor was trained on " +
        std::to_string(feature_dimension_));
  }
  if (out.size() != statistics.rows()) {
    return common::Status::InvalidArgument(
        "output span holds " + std::to_string(out.size()) +
        " slots for " + std::to_string(statistics.rows()) + " feature rows");
  }
  if (statistics.rows() == 0) return common::Status::OK();
  common::telemetry::IncrementCounter("predictor.estimate.calls",
                                      statistics.rows());
  common::telemetry::IncrementCounter("predictor.estimate.batches");
  regressor_.PredictInto(statistics, out);
  return common::Status::OK();
}

common::Status PerformancePredictor::EstimateScoresFromStatistics(
    const linalg::Matrix& statistics, std::span<ScoreEstimate> out) const {
  const common::telemetry::TraceSpan span("predictor.estimate_batch");
  if (!trained_) {
    return common::Status::FailedPrecondition("EstimateScore before Train");
  }
  if (statistics.cols() != feature_dimension_) {
    return common::Status::InvalidArgument(
        "feature matrix has " + std::to_string(statistics.cols()) +
        " columns but the predictor was trained on " +
        std::to_string(feature_dimension_));
  }
  if (out.size() != statistics.rows()) {
    return common::Status::InvalidArgument(
        "output span holds " + std::to_string(out.size()) +
        " slots for " + std::to_string(statistics.rows()) + " feature rows");
  }
  if (statistics.rows() == 0) return common::Status::OK();
  common::telemetry::IncrementCounter("predictor.estimate.calls",
                                      statistics.rows());
  common::telemetry::IncrementCounter("predictor.estimate.batches");
  // Points through the one kernel batch call (bit-identical to the scalar
  // walk), then the interval per row — a pure function of the point and,
  // in quantile-forest mode, the same per-row spread the scalar path
  // computes, so batched and scalar estimates match bit for bit.
  std::vector<double> points(statistics.rows());
  regressor_.PredictInto(statistics, points);
  for (size_t i = 0; i < statistics.rows(); ++i) {
    out[i] = IntervalFor(points[i], statistics.RowData(i),
                         options_.coverage_level);
  }
  return common::Status::OK();
}

}  // namespace bbv::core
