#include "core/performance_validator.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/prediction_statistics.h"
#include "ml/cross_validation.h"
#include "ml/metrics.h"
#include "stats/hypothesis.h"

namespace bbv::core {

namespace {

/// The validator only ever consumes the internal predictor's point
/// estimate (BuildFeatures / the degenerate fallback), so the conformal
/// calibration pass — five extra fold refits per Train — would be pure
/// cost here. Keep it off.
PerformancePredictor::Options WithoutCalibration(
    PerformancePredictor::Options options) {
  options.conformal_calibration = false;
  return options;
}

}  // namespace

PerformanceValidator::PerformanceValidator(Options options)
    : options_(std::move(options)),
      predictor_(WithoutCalibration(options_.predictor)) {
  if (options_.percentile_points.empty()) {
    options_.percentile_points = DefaultPercentilePoints();
  }
  BBV_CHECK(options_.threshold > 0.0 && options_.threshold < 1.0);
}

common::Status PerformanceValidator::Train(
    const ml::BlackBox& model, const data::Dataset& test,
    const std::vector<const errors::ErrorGen*>& generators,
    common::Rng& rng) {
  const common::telemetry::TraceSpan span("validator.train");
  common::telemetry::IncrementCounter("validator.train.calls");
  if (test.NumRows() == 0) {
    return common::Status::InvalidArgument("empty test dataset");
  }
  if (generators.empty()) {
    return common::Status::InvalidArgument(
        "need at least one error generator");
  }
  BBV_ASSIGN_OR_RETURN(linalg::Matrix clean_probabilities,
                       model.PredictProba(test.features));
  test_score_ =
      ComputeScore(options_.metric, clean_probabilities, test.labels);

  // Split the test rows into a KS-reference half and a meta-example half.
  // At validation time the serving batch is disjoint from the retained
  // reference outputs, so the meta-examples must be disjoint from them too
  // — otherwise the training-time KS statistics are biased low (overlapping
  // samples) and every real serving batch looks shifted.
  std::vector<size_t> shuffled_rows = rng.Permutation(test.NumRows());
  const size_t reference_count = test.NumRows() / 2;
  const std::vector<size_t> reference_rows(
      shuffled_rows.begin(),
      shuffled_rows.begin() + static_cast<ptrdiff_t>(reference_count));
  const std::vector<size_t> example_rows(
      shuffled_rows.begin() + static_cast<ptrdiff_t>(reference_count),
      shuffled_rows.end());
  if (example_rows.empty() || reference_rows.empty()) {
    return common::Status::InvalidArgument(
        "test dataset too small to split into reference and example halves");
  }
  test_probabilities_ = clean_probabilities.SelectRows(reference_rows);

  // One corruption pass shared between the internal performance predictor
  // and the validator's decision model. The passes are independent, so they
  // fan out over the shared thread pool with one pre-forked Rng per task;
  // results land in per-task slots, keeping training bit-identical at every
  // thread count.
  const size_t batch_size =
      options_.meta_batch_size > 0
          ? std::min(options_.meta_batch_size, example_rows.size())
          : example_rows.size();
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
  std::vector<common::Rng> task_rngs = rng.ForkStreams(task_generators.size());
  std::vector<linalg::Matrix> probability_batches(task_generators.size());
  std::vector<std::vector<double>> statistics_rows(task_generators.size());
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
        // Pick the meta-example rows from the example half only.
        std::vector<size_t> rows = example_rows;
        if (batch_size < example_rows.size()) {
          const std::vector<size_t> picks =
              task_rng.SampleWithoutReplacement(example_rows.size(),
                                                batch_size);
          rows.clear();
          rows.reserve(batch_size);
          for (size_t pick : picks) rows.push_back(example_rows[pick]);
        }
        // The batch is materialized because BuildFeatures later runs
        // per-class KS tests against its columns; statistics and score use
        // the row view.
        statistics_rows[task] = PredictionStatistics(
            *probabilities, rows, options_.percentile_points);
        scores[task] =
            ComputeScore(options_.metric, *probabilities, rows, test.labels);
        probability_batches[task] = probabilities->SelectRows(rows);
        return common::Status::OK();
      }));

  BBV_RETURN_NOT_OK(predictor_.TrainFromStatistics(statistics_rows, scores,
                                                   test_score_, rng));

  // Meta-labels: 1 = quality within the threshold, 0 = violation.
  std::vector<int> labels(scores.size());
  const double floor = (1.0 - options_.threshold) * test_score_;
  for (size_t i = 0; i < scores.size(); ++i) {
    labels[i] = scores[i] >= floor ? 1 : 0;
  }

  std::vector<std::vector<double>> feature_rows;
  feature_rows.reserve(probability_batches.size());
  for (const linalg::Matrix& probabilities : probability_batches) {
    feature_rows.push_back(BuildFeatures(probabilities));
  }

  const bool has_ok =
      std::any_of(labels.begin(), labels.end(), [](int l) { return l == 1; });
  const bool has_violation =
      std::any_of(labels.begin(), labels.end(), [](int l) { return l == 0; });
  if (!has_ok || !has_violation) {
    // All corrupted copies fell on one side of the threshold; fall back to
    // thresholding the internal predictor's estimate at inference time.
    degenerate_ = true;
    degenerate_label_ = has_ok ? 1 : 0;
    trained_ = true;
    return common::Status::OK();
  }

  decision_model_ = ml::GradientBoostedTrees(options_.gbdt);
  BBV_RETURN_NOT_OK(decision_model_.Fit(linalg::Matrix::FromRows(feature_rows),
                                        labels, 2, rng));

  // Calibrate the decision operating point with out-of-fold predictions:
  // pick the P(ok) cutoff that maximizes the F1 of the alarm class. The
  // in-sample fit is near-perfect (any cutoff looks optimal), so we collect
  // honest probabilities from k-fold refits first. This corrects the class
  // imbalance at loose thresholds, where few corrupted copies violate.
  const linalg::Matrix meta_features = linalg::Matrix::FromRows(feature_rows);
  std::vector<double> oof_p_ok(labels.size(), 0.5);
  const int folds = 3;
  if (labels.size() >= 2 * folds) {
    const std::vector<ml::Fold> splits =
        ml::KFoldIndices(labels.size(), folds, rng);
    // Fold refits are independent and write disjoint oof_p_ok slots, so
    // they run concurrently, each on its own pre-forked stream.
    std::vector<common::Rng> fold_rngs = rng.ForkStreams(splits.size());
    BBV_RETURN_NOT_OK(common::ParallelFor(
        splits.size(), [&](size_t f) -> common::Status {
          const ml::Fold& fold = splits[f];
          std::vector<int> fold_labels;
          fold_labels.reserve(fold.train_rows.size());
          for (size_t row : fold.train_rows) fold_labels.push_back(labels[row]);
          const bool fold_has_both =
              std::any_of(fold_labels.begin(), fold_labels.end(),
                          [](int l) { return l == 0; }) &&
              std::any_of(fold_labels.begin(), fold_labels.end(),
                          [](int l) { return l == 1; });
          if (!fold_has_both) return common::Status::OK();
          ml::GradientBoostedTrees fold_model(options_.gbdt);
          BBV_RETURN_NOT_OK(fold_model.Fit(
              meta_features.SelectRows(fold.train_rows), fold_labels, 2,
              fold_rngs[f]));
          const linalg::Matrix fold_decisions = fold_model.PredictProba(
              meta_features.SelectRows(fold.test_rows));
          for (size_t i = 0; i < fold.test_rows.size(); ++i) {
            oof_p_ok[fold.test_rows[i]] = fold_decisions.At(i, 1);
          }
          return common::Status::OK();
        }));
  }
  std::vector<int> alarm_truth(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    alarm_truth[i] = labels[i] == 0 ? 1 : 0;
  }
  double best_f1 = -1.0;
  double best_cut = 0.5;
  for (int step = 1; step <= 19; ++step) {
    const double cut = 0.05 * static_cast<double>(step);
    std::vector<int> alarm_predictions(labels.size());
    for (size_t i = 0; i < labels.size(); ++i) {
      alarm_predictions[i] = oof_p_ok[i] >= cut ? 0 : 1;
    }
    const double f1 = ml::F1Score(alarm_predictions, alarm_truth);
    if (f1 > best_f1) {
      best_f1 = f1;
      best_cut = cut;
    }
  }
  decision_threshold_ = best_cut;
  trained_ = true;
  return common::Status::OK();
}

std::vector<double> PerformanceValidator::BuildFeatures(
    const linalg::Matrix& probabilities) const {
  std::vector<double> features =
      PredictionStatistics(probabilities, options_.percentile_points);
  // Hypothesis-test features: per-class two-sample KS between the batch
  // outputs and the retained clean test outputs [13].
  if (options_.use_ks_features) {
    for (size_t k = 0; k < probabilities.cols(); ++k) {
      const stats::TestResult ks = stats::TwoSampleKsTest(
          probabilities.Col(k), test_probabilities_.Col(k));
      features.push_back(ks.statistic);
      features.push_back(ks.p_value);
    }
  }
  // The internal performance predictor's estimate and the implied relative
  // drop against the clean test score.
  if (options_.use_predictor_feature) {
    const auto estimate = predictor_.EstimateScoreFromProba(probabilities);
    const double estimated_score =
        estimate.ok() ? estimate->point : test_score_;
    features.push_back(estimated_score);
    features.push_back(test_score_ > 0.0
                           ? (test_score_ - estimated_score) / test_score_
                           : 0.0);
  }
  return features;
}

size_t PerformanceValidator::FeatureWidth(size_t num_classes) const {
  return num_classes * options_.percentile_points.size() +
         (options_.use_ks_features ? 2 * num_classes : 0) +
         (options_.use_predictor_feature ? 2 : 0);
}

common::Result<bool> PerformanceValidator::Validate(
    const ml::BlackBox& model, const data::DataFrame& serving) const {
  BBV_ASSIGN_OR_RETURN(linalg::Matrix probabilities,
                       model.PredictProba(serving));
  return ValidateFromProba(probabilities);
}

common::Result<bool> PerformanceValidator::ValidateFromProba(
    const linalg::Matrix& probabilities) const {
  const common::telemetry::TraceSpan span("validator.validate");
  if (!trained_) {
    return common::Status::FailedPrecondition("Validate before Train");
  }
  common::telemetry::IncrementCounter("validator.validate.calls");
  bool verdict = false;
  if (degenerate_) {
    // Decision via the predictor estimate against the threshold.
    BBV_ASSIGN_OR_RETURN(ScoreEstimate estimate,
                         predictor_.EstimateScoreFromProba(probabilities));
    verdict = estimate.point >= (1.0 - options_.threshold) * test_score_;
  } else {
    const std::vector<double> features = BuildFeatures(probabilities);
    const linalg::Matrix decision = decision_model_.PredictProba(
        linalg::Matrix(1, features.size(), features));
    verdict = decision.At(0, 1) >= decision_threshold_;
  }
  if (!verdict) common::telemetry::IncrementCounter("validator.rejections");
  return verdict;
}

}  // namespace bbv::core

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace bbv::core {

namespace {
constexpr char kValidatorMagic[] = "BBVPV";
constexpr uint32_t kValidatorVersion = 1;
}  // namespace

common::Status PerformanceValidator::Save(std::ostream& out) const {
  if (!trained_) {
    return common::Status::FailedPrecondition("Save before Train");
  }
  common::BinaryWriter writer(out);
  writer.WriteMagic(kValidatorMagic, kValidatorVersion);
  writer.WriteDouble(options_.threshold);
  writer.WriteInt32(static_cast<int32_t>(options_.metric));
  writer.WriteDoubleVector(options_.percentile_points);
  writer.WriteInt32(options_.use_ks_features ? 1 : 0);
  writer.WriteInt32(options_.use_predictor_feature ? 1 : 0);
  writer.WriteDouble(test_score_);
  writer.WriteInt32(degenerate_ ? 1 : 0);
  writer.WriteInt32(degenerate_label_);
  writer.WriteDouble(decision_threshold_);
  writer.WriteUint64(test_probabilities_.rows());
  writer.WriteUint64(test_probabilities_.cols());
  writer.WriteDoubleVector(test_probabilities_.data());
  BBV_RETURN_NOT_OK(writer.status());
  BBV_RETURN_NOT_OK(predictor_.Save(out));
  if (!degenerate_) {
    BBV_RETURN_NOT_OK(decision_model_.Save(out));
  }
  return writer.status();
}

common::Result<PerformanceValidator> PerformanceValidator::Load(
    std::istream& in) {
  common::BinaryReader reader(in);
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kValidatorMagic, kValidatorVersion));
  Options options;
  BBV_ASSIGN_OR_RETURN(options.threshold, reader.ReadDouble());
  if (options.threshold <= 0.0 || options.threshold >= 1.0) {
    return common::Status::InvalidArgument("corrupt threshold");
  }
  BBV_ASSIGN_OR_RETURN(int32_t metric, reader.ReadInt32());
  if (metric < 0 || metric > static_cast<int32_t>(ScoreMetric::kRocAuc)) {
    return common::Status::InvalidArgument("corrupt score metric");
  }
  options.metric = static_cast<ScoreMetric>(metric);
  BBV_ASSIGN_OR_RETURN(options.percentile_points, reader.ReadDoubleVector());
  if (options.percentile_points.empty()) {
    return common::Status::InvalidArgument("corrupt percentile grid");
  }
  BBV_ASSIGN_OR_RETURN(int32_t use_ks, reader.ReadInt32());
  options.use_ks_features = use_ks != 0;
  BBV_ASSIGN_OR_RETURN(int32_t use_predictor, reader.ReadInt32());
  options.use_predictor_feature = use_predictor != 0;

  PerformanceValidator validator(options);
  BBV_ASSIGN_OR_RETURN(validator.test_score_, reader.ReadDouble());
  BBV_ASSIGN_OR_RETURN(int32_t degenerate, reader.ReadInt32());
  validator.degenerate_ = degenerate != 0;
  BBV_ASSIGN_OR_RETURN(validator.degenerate_label_, reader.ReadInt32());
  BBV_ASSIGN_OR_RETURN(validator.decision_threshold_, reader.ReadDouble());
  BBV_ASSIGN_OR_RETURN(uint64_t rows, reader.ReadUint64());
  BBV_ASSIGN_OR_RETURN(uint64_t cols, reader.ReadUint64());
  BBV_ASSIGN_OR_RETURN(std::vector<double> values,
                       reader.ReadDoubleVector());
  if (values.size() != rows * cols) {
    return common::Status::InvalidArgument("corrupt retained test outputs");
  }
  validator.test_probabilities_ =
      linalg::Matrix(rows, cols, std::move(values));
  BBV_ASSIGN_OR_RETURN(validator.predictor_,
                       PerformancePredictor::Load(in));
  if (!validator.degenerate_) {
    BBV_ASSIGN_OR_RETURN(validator.decision_model_,
                         ml::GradientBoostedTrees::Load(in));
    // Every decision reads a BuildFeatures vector, whose width the
    // retained test outputs fix.
    const int32_t max_feature = validator.decision_model_.kernel().max_feature();
    if (max_feature >= 0 &&
        static_cast<size_t>(max_feature) >= validator.FeatureWidth(cols)) {
      return common::Status::InvalidArgument(
          "decision model splits on a feature beyond the feature width");
    }
  }
  validator.trained_ = true;
  return validator;
}

}  // namespace bbv::core
