#include "core/monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/telemetry.h"
#include "datasets/tabular.h"
#include "errors/numeric_errors.h"
#include "json_test_util.h"
#include "ml/black_box.h"
#include "ml/sgd_logistic_regression.h"
#include "stats/quantile_sketch.h"

namespace bbv::core {
namespace {

struct Fixture {
  data::Dataset serving;
  std::unique_ptr<ml::BlackBoxModel> model;
  PerformancePredictor predictor;
};

Fixture MakeFixture(common::Rng& rng) {
  data::Dataset dataset = datasets::MakeIncome(2500, rng);
  auto [source, serving] = data::TrainTestSplit(dataset, 0.7, rng);
  auto [train, test] = data::TrainTestSplit(source, 0.7, rng);
  Fixture fixture;
  fixture.serving = std::move(serving);
  fixture.model = std::make_unique<ml::BlackBoxModel>(
      std::make_unique<ml::SgdLogisticRegression>());
  BBV_CHECK(fixture.model->Train(train, rng).ok());
  PerformancePredictor::Options options;
  options.corruptions_per_generator = 25;
  options.tree_count_grid = {25};
  fixture.predictor = PerformancePredictor(options);
  static const errors::NumericOutliers kOutliers;
  static const errors::Scaling kScaling;
  std::vector<const errors::ErrorGen*> generators = {&kOutliers, &kScaling};
  BBV_CHECK(fixture.predictor.Train(*fixture.model, test, generators, rng)
                .ok());
  return fixture;
}

TEST(ModelMonitorTest, CleanBatchesDoNotAlarm) {
  common::Rng rng(1);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor monitor(fixture.model.get(), fixture.predictor);
  const auto report = monitor.Observe(fixture.serving.features);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->alarm);
  EXPECT_EQ(report->rows, fixture.serving.NumRows());
  EXPECT_EQ(report->batch_id, 0u);
  EXPECT_NEAR(report->estimate.point, report->reference_score, 0.06);
}

TEST(ModelMonitorTest, CatastrophicBatchesAlarm) {
  common::Rng rng(2);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor::Options options;
  options.alarm_threshold = 0.05;
  ModelMonitor monitor(fixture.model.get(), fixture.predictor, options);
  const errors::Scaling severe({}, errors::FractionRange{0.95, 1.0},
                               {1000.0});
  int alarms = 0;
  for (int i = 0; i < 5; ++i) {
    const auto corrupted =
        severe.Corrupt(fixture.serving.features, rng).ValueOrDie();
    const auto report = monitor.Observe(corrupted);
    ASSERT_TRUE(report.ok());
    if (report->alarm) ++alarms;
  }
  EXPECT_GE(alarms, 4);
  EXPECT_EQ(monitor.alarms_raised(), static_cast<size_t>(alarms));
}

TEST(ModelMonitorTest, HistoryIsBounded) {
  common::Rng rng(3);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor::Options options;
  options.history_limit = 3;
  ModelMonitor monitor(fixture.model.get(), fixture.predictor, options);
  const auto proba =
      fixture.model->PredictProba(fixture.serving.features).ValueOrDie();
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(monitor.Observe(proba).ok());
  }
  EXPECT_EQ(monitor.history().size(), 3u);
  EXPECT_EQ(monitor.batches_observed(), 7u);
  // Oldest entries were dropped; the last report has id 6.
  EXPECT_EQ(monitor.history().back().batch_id, 6u);
  EXPECT_EQ(monitor.history().front().batch_id, 4u);
}

TEST(ModelMonitorTest, EmptyBatchRejected) {
  common::Rng rng(4);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor monitor(fixture.model.get(), fixture.predictor);
  EXPECT_FALSE(monitor.Observe(linalg::Matrix()).ok());
}

TEST(ModelMonitorTest, SummaryMentionsCounts) {
  common::Rng rng(5);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor monitor(fixture.model.get(), fixture.predictor);
  ASSERT_TRUE(monitor.Observe(fixture.serving.features).ok());
  const std::string summary = monitor.Summary();
  EXPECT_NE(summary.find("1 batches observed"), std::string::npos);
  EXPECT_NE(summary.find("median="), std::string::npos);
}

TEST(ModelMonitorTest, AlarmFiresExactlyAtThreshold) {
  common::Rng rng(6);
  Fixture fixture = MakeFixture(rng);
  const errors::Scaling severe({}, errors::FractionRange{0.95, 1.0},
                               {1000.0});
  const auto corrupted =
      severe.Corrupt(fixture.serving.features, rng).ValueOrDie();
  const auto proba = fixture.model->PredictProba(corrupted).ValueOrDie();
  // Deterministic relative drop of this exact batch.
  const double estimate =
      fixture.predictor.EstimateScoreFromProba(proba).ValueOrDie().point;
  const double reference = fixture.predictor.test_score();
  const double drop = (reference - estimate) / reference;
  ASSERT_GT(drop, 0.0);
  ASSERT_LT(drop, 1.0);

  // >= semantics: a drop exactly at the threshold alarms... (point-drop
  // policy, so the comparison under test sees exactly `drop`)
  ModelMonitor::Options at_options;
  at_options.alarm_policy = ModelMonitor::AlarmPolicy::kPointDrop;
  at_options.alarm_threshold = drop;
  ModelMonitor at_monitor(fixture.model.get(), fixture.predictor, at_options);
  const auto at_report = at_monitor.Observe(proba);
  ASSERT_TRUE(at_report.ok());
  EXPECT_TRUE(at_report->alarm);

  // ...while a threshold just above it does not.
  ModelMonitor::Options above_options;
  above_options.alarm_policy = ModelMonitor::AlarmPolicy::kPointDrop;
  above_options.alarm_threshold = drop + 1e-9;
  ModelMonitor above_monitor(fixture.model.get(), fixture.predictor,
                             above_options);
  const auto above_report = above_monitor.Observe(proba);
  ASSERT_TRUE(above_report.ok());
  EXPECT_FALSE(above_report->alarm);
}

TEST(ModelMonitorTest, HistoryTrimsAtExactBoundary) {
  common::Rng rng(7);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor::Options options;
  options.history_limit = 3;
  ModelMonitor monitor(fixture.model.get(), fixture.predictor, options);
  const auto proba =
      fixture.model->PredictProba(fixture.serving.features).ValueOrDie();
  // Exactly at the limit: nothing is dropped yet.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(monitor.Observe(proba).ok());
  }
  EXPECT_EQ(monitor.history().size(), 3u);
  EXPECT_EQ(monitor.history().front().batch_id, 0u);
  // One past the limit: only the oldest entry goes.
  ASSERT_TRUE(monitor.Observe(proba).ok());
  EXPECT_EQ(monitor.history().size(), 3u);
  EXPECT_EQ(monitor.history().front().batch_id, 1u);
  EXPECT_EQ(monitor.history().back().batch_id, 3u);
}

TEST(ModelMonitorTest, ExportJsonRoundTrips) {
  common::Rng rng(8);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor monitor(fixture.model.get(), fixture.predictor);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(monitor.Observe(fixture.serving.features).ok());
  }
  const std::string json = monitor.ExportJson();
  EXPECT_TRUE(bbv::testing::JsonParses(json)) << json;
  for (const char* key :
       {"\"monitor\"", "\"reference_score\"", "\"alarm_threshold\"",
        "\"batches_observed\"", "\"alarm_rate\"", "\"history\"",
        "\"batch_id\"", "\"relative_drop\"", "\"latency_seconds\"",
        "\"estimate_calls_total\"", "\"alarms_total\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ModelMonitorTest, ExportJsonOfEmptyHistoryRoundTrips) {
  common::Rng rng(9);
  Fixture fixture = MakeFixture(rng);
  const ModelMonitor monitor(fixture.model.get(), fixture.predictor);
  EXPECT_TRUE(bbv::testing::JsonParses(monitor.ExportJson()));
}

PerformancePredictor TrainTinyPredictor(double test_score, common::Rng& rng) {
  PerformancePredictor::Options options;
  options.tree_count_grid = {5};
  PerformancePredictor predictor(options);
  const std::vector<std::vector<double>> statistics = {
      {0.1}, {0.2}, {0.3}, {0.4}};
  const std::vector<double> scores = {0.9, 0.8, 0.7, 0.6};
  BBV_CHECK(
      predictor.TrainFromStatistics(statistics, scores, test_score, rng).ok());
  return predictor;
}

TEST(ModelMonitorTest, CreateRejectsDegenerateReferenceScore) {
  common::Rng rng(10);
  const ml::BlackBoxModel model(std::make_unique<ml::SgdLogisticRegression>());
  for (double degenerate :
       {0.0, -0.25, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    const auto monitor =
        ModelMonitor::Create(&model, TrainTinyPredictor(degenerate, rng));
    EXPECT_FALSE(monitor.ok()) << degenerate;
    EXPECT_NE(monitor.status().ToString().find("reference score"),
              std::string::npos);
  }
}

TEST(ModelMonitorTest, CreateRejectsBadConfiguration) {
  common::Rng rng(11);
  PerformancePredictor predictor = TrainTinyPredictor(0.8, rng);
  const ml::BlackBoxModel model(std::make_unique<ml::SgdLogisticRegression>());
  EXPECT_FALSE(ModelMonitor::Create(nullptr, predictor).ok());
  EXPECT_FALSE(ModelMonitor::Create(&model, PerformancePredictor()).ok());
  ModelMonitor::Options bad_threshold;
  bad_threshold.alarm_threshold = 1.5;
  EXPECT_FALSE(ModelMonitor::Create(&model, predictor, bad_threshold).ok());
  ModelMonitor::Options no_history;
  no_history.history_limit = 0;
  EXPECT_FALSE(ModelMonitor::Create(&model, predictor, no_history).ok());
  EXPECT_TRUE(ModelMonitor::Create(&model, predictor).ok());
}

TEST(ModelMonitorTest, ReportsCarryLatencyAndTelemetrySnapshot) {
  const bool was_enabled = common::telemetry::Enabled();
  common::telemetry::SetEnabled(true);
  common::Rng rng(12);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor monitor(fixture.model.get(), fixture.predictor);
  const auto report = monitor.Observe(fixture.serving.features);
  common::telemetry::SetEnabled(was_enabled);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->latency_seconds, 0.0);
  EXPECT_GE(report->estimate_calls_total, 1u);
  EXPECT_EQ(report->alarms_total, monitor.alarms_raised());
  EXPECT_EQ(monitor.history().back().latency_seconds,
            report->latency_seconds);
}

TEST(ModelMonitorTest, WindowedCreateRejectsBadSketchResolution) {
  common::Rng rng(13);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor::Options options;
  options.window_batches = 4;
  for (int bits : {0, -3, 25}) {
    options.sketch_resolution_bits = bits;
    EXPECT_FALSE(
        ModelMonitor::Create(fixture.model.get(), fixture.predictor, options)
            .ok())
        << bits;
  }
  options.sketch_resolution_bits = 12;
  EXPECT_TRUE(
      ModelMonitor::Create(fixture.model.get(), fixture.predictor, options)
          .ok());
}

TEST(ModelMonitorTest, WindowedHandlesEmptyAndSingleRowBatches) {
  common::Rng rng(14);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor::Options options;
  options.window_batches = 3;
  ModelMonitor monitor(fixture.model.get(), fixture.predictor, options);

  EXPECT_FALSE(monitor.Observe(linalg::Matrix()).ok());
  EXPECT_EQ(monitor.batches_observed(), 0u);

  const auto proba =
      fixture.model->PredictProba(fixture.serving.features).ValueOrDie();
  const auto single = monitor.Observe(proba.SelectRows({0}));
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->rows, 1u);
  EXPECT_EQ(single->window_batches_used, 1u);
  EXPECT_EQ(single->window_rows, 1u);
  EXPECT_TRUE(std::isfinite(single->windowed_estimate.point));
  EXPECT_TRUE(std::isfinite(single->windowed_relative_drop));
}

TEST(ModelMonitorTest, WindowedEvictsWhenBatchCountExceedsWindow) {
  common::Rng rng(15);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor::Options options;
  options.window_batches = 2;
  ModelMonitor monitor(fixture.model.get(), fixture.predictor, options);
  const auto proba =
      fixture.model->PredictProba(fixture.serving.features).ValueOrDie();
  for (int i = 0; i < 5; ++i) {
    const auto report = monitor.Observe(proba);
    ASSERT_TRUE(report.ok());
    // The merged summary never covers more than window_batches batches.
    EXPECT_EQ(report->window_batches_used,
              std::min<size_t>(static_cast<size_t>(i) + 1, 2u));
    EXPECT_EQ(report->window_rows,
              report->window_batches_used * proba.rows());
  }
  EXPECT_EQ(monitor.batches_observed(), 5u);
  const std::string summary = monitor.Summary();
  EXPECT_NE(summary.find("sliding window"), std::string::npos);
  const std::string json = monitor.ExportJson();
  EXPECT_TRUE(bbv::testing::JsonParses(json));
  for (const char* key :
       {"\"window_batches\"", "\"windowed_estimate\"",
        "\"windowed_relative_drop\"", "\"window_batches_used\"",
        "\"window_rows\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ModelMonitorTest, WindowedRejectsNonFiniteWithoutPollutingWindow) {
  common::Rng rng(16);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor::Options options;
  options.window_batches = 4;
  ModelMonitor monitor(fixture.model.get(), fixture.predictor, options);
  const auto proba =
      fixture.model->PredictProba(fixture.serving.features).ValueOrDie();
  ASSERT_TRUE(monitor.Observe(proba).ok());

  linalg::Matrix poisoned = proba;
  poisoned.At(2, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(monitor.Observe(poisoned).ok());
  EXPECT_EQ(monitor.batches_observed(), 1u);

  // The rejected batch must not occupy a window slot.
  const auto next = monitor.Observe(proba);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->window_batches_used, 2u);
  EXPECT_EQ(next->window_rows, 2u * proba.rows());
}

TEST(ModelMonitorTest, SwapPredictorStartsNewEpochAndClearsWindow) {
  common::Rng rng(17);
  Fixture fixture = MakeFixture(rng);
  const auto shared =
      std::make_shared<const PerformancePredictor>(fixture.predictor);
  ModelMonitor::Options options;
  options.window_batches = 4;
  auto monitor = ModelMonitor::CreateForProba("tenant", shared, options);
  ASSERT_TRUE(monitor.ok());
  const auto proba =
      fixture.model->PredictProba(fixture.serving.features).ValueOrDie();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(monitor->Observe(proba).ok());
  }
  EXPECT_EQ(monitor->history().back().window_batches_used, 3u);
  EXPECT_EQ(monitor->history().back().epoch, 0u);
  EXPECT_EQ(monitor->epoch(), 0u);

  // Rejected swaps keep the old predictor, window and epoch.
  EXPECT_FALSE(monitor->SwapPredictor(nullptr).ok());
  EXPECT_FALSE(
      monitor->SwapPredictor(std::make_shared<const PerformancePredictor>())
          .ok());
  EXPECT_EQ(monitor->epoch(), 0u);

  ASSERT_TRUE(monitor->SwapPredictor(shared).ok());
  EXPECT_EQ(monitor->epoch(), 1u);
  // Epoch boundary: the window must not straddle the swap, so the first
  // post-swap report covers exactly its own batch.
  const auto report = monitor->Observe(proba);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->window_batches_used, 1u);
  EXPECT_EQ(report->window_rows, proba.rows());
  EXPECT_EQ(report->epoch, 1u);

  const std::string json = monitor->ExportJson();
  EXPECT_TRUE(bbv::testing::JsonParses(json));
  EXPECT_NE(json.find("\"predictor_epoch\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\""), std::string::npos);
}

TEST(ModelMonitorTest, ProbaOnlyMonitorRejectsObserveAndNullPredictor) {
  common::Rng rng(18);
  Fixture fixture = MakeFixture(rng);
  EXPECT_FALSE(
      ModelMonitor::CreateForProba("tenant", nullptr, {}).ok());
  auto monitor = ModelMonitor::CreateForProba(
      "tenant",
      std::make_shared<const PerformancePredictor>(fixture.predictor), {});
  ASSERT_TRUE(monitor.ok());
  // No black box is attached, so frame-level observation cannot work; the
  // failure must be a Status, not a crash.
  EXPECT_FALSE(monitor->Observe(fixture.serving.features).ok());
  EXPECT_TRUE(
      monitor
          ->Observe(
              fixture.model->PredictProba(fixture.serving.features)
                  .ValueOrDie())
          .ok());
  EXPECT_NE(monitor->Summary().find("tenant"), std::string::npos);
}

TEST(ModelMonitorTest, HistoryRingKeepsTheNewestReports) {
  common::Rng rng(19);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor::Options options;
  options.history_limit = 5;
  ModelMonitor monitor(fixture.model.get(), fixture.predictor, options);
  const auto proba =
      fixture.model->PredictProba(fixture.serving.features).ValueOrDie();
  std::vector<ModelMonitor::BatchReport> returned;
  for (size_t i = 0; i < 3 * options.history_limit; ++i) {
    // Distinct row counts tell the reports apart.
    const auto report = monitor.Observe(proba.SelectRows(
        std::vector<size_t>(i + 1, i % proba.rows())));
    ASSERT_TRUE(report.ok());
    returned.push_back(*report);
    const size_t kept = std::min(returned.size(), options.history_limit);
    ASSERT_EQ(monitor.history().size(), kept);
    for (size_t j = 0; j < kept; ++j) {
      const ModelMonitor::BatchReport& expected =
          returned[returned.size() - kept + j];
      EXPECT_EQ(monitor.history()[j].batch_id, expected.batch_id);
      EXPECT_EQ(monitor.history()[j].rows, expected.rows);
      EXPECT_EQ(monitor.history()[j].estimate, expected.estimate);
    }
  }
  EXPECT_EQ(monitor.history().front().batch_id, 10u);
  EXPECT_EQ(monitor.history().back().batch_id, 14u);
}

// ---------------------------------------------------------------------------
// Window oracle: the running window sum against the dense-bank ring it
// replaced
// ---------------------------------------------------------------------------

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// The windowed fields of one report.
struct WindowFields {
  ScoreEstimate estimate;
  double relative_drop = 0.0;
  double certified_drop = 0.0;
  size_t batches_used = 0;
  uint64_t rows = 0;
  bool alarm = false;
};

void ExpectBitwiseEqual(const WindowFields& expected,
                        const ModelMonitor::BatchReport& report,
                        size_t batch) {
  EXPECT_EQ(Bits(report.windowed_estimate.point),
            Bits(expected.estimate.point))
      << batch;
  EXPECT_EQ(Bits(report.windowed_estimate.lo), Bits(expected.estimate.lo))
      << batch;
  EXPECT_EQ(Bits(report.windowed_estimate.hi), Bits(expected.estimate.hi))
      << batch;
  EXPECT_EQ(Bits(report.windowed_estimate.coverage_level),
            Bits(expected.estimate.coverage_level))
      << batch;
  EXPECT_EQ(Bits(report.windowed_relative_drop), Bits(expected.relative_drop))
      << batch;
  EXPECT_EQ(Bits(report.windowed_certified_drop),
            Bits(expected.certified_drop))
      << batch;
  EXPECT_EQ(report.window_batches_used, expected.batches_used) << batch;
  EXPECT_EQ(report.window_rows, expected.rows) << batch;
  EXPECT_EQ(report.alarm, expected.alarm) << batch;
}

/// The window as the monitor kept it before the running sum: a ring of
/// per-batch sketch banks, copied and re-merged for every report, with the
/// exact per-batch estimate computed first.
class DenseRingOracle {
 public:
  DenseRingOracle(std::shared_ptr<const PerformancePredictor> predictor,
                  ModelMonitor::Options options)
      : predictor_(std::move(predictor)), options_(options) {}

  /// The report's windowed fields, or nullopt for a rejected batch.
  std::optional<WindowFields> Observe(const linalg::Matrix& probabilities) {
    if (probabilities.rows() == 0) return std::nullopt;
    stats::QuantileSketch::Options sketch_options;
    sketch_options.resolution_bits = options_.sketch_resolution_bits;
    stats::QuantileSketchBank batch_bank(0, sketch_options);
    if (!batch_bank.Observe(probabilities).ok()) return std::nullopt;
    const auto exact = predictor_->EstimateScoreFromProba(probabilities);
    if (!exact.ok() || !std::isfinite(exact->point)) return std::nullopt;
    stats::QuantileSketchBank merged = batch_bank;
    const size_t prior = std::min(ring_.size(), options_.window_batches - 1);
    for (size_t i = ring_.size() - prior; i < ring_.size(); ++i) {
      if (!merged.Merge(ring_[i]).ok()) return std::nullopt;
    }
    const auto windowed = predictor_->EstimateScoreFromStatistics(
        merged.PercentileFeatures(predictor_->percentile_points()));
    if (!windowed.ok() || !std::isfinite(windowed->point)) return std::nullopt;
    const double reference = predictor_->test_score();
    WindowFields fields;
    fields.estimate = *windowed;
    fields.relative_drop = (reference - windowed->point) / reference;
    fields.certified_drop = (reference - windowed->hi) / reference;
    fields.batches_used = prior + 1;
    fields.rows = merged.rows_observed();
    fields.alarm = (options_.alarm_policy ==
                            ModelMonitor::AlarmPolicy::kCertifiedDrop
                        ? fields.certified_drop
                        : fields.relative_drop) >= options_.alarm_threshold;
    ring_.push_back(std::move(batch_bank));
    while (ring_.size() > options_.window_batches) ring_.pop_front();
    return fields;
  }

  void Clear() { ring_.clear(); }
  void Swap(std::shared_ptr<const PerformancePredictor> predictor) {
    ring_.clear();
    predictor_ = std::move(predictor);
  }

 private:
  std::shared_ptr<const PerformancePredictor> predictor_;
  ModelMonitor::Options options_;
  std::deque<stats::QuantileSketchBank> ring_;
};

TEST(ModelMonitorTest, RunningWindowSumMatchesDenseRingOracle) {
  common::Rng rng(20);
  Fixture fixture = MakeFixture(rng);
  const auto predictor =
      std::make_shared<const PerformancePredictor>(fixture.predictor);
  // The swapped-in predictor alarms against a different reference.
  PerformancePredictor retrained = fixture.predictor;
  common::Rng retrain_rng(21);
  const errors::NumericOutliers outliers;
  std::vector<const errors::ErrorGen*> generators = {&outliers};
  ASSERT_TRUE(retrained
                  .Train(*fixture.model, fixture.serving, generators,
                         retrain_rng)
                  .ok());
  const auto swapped =
      std::make_shared<const PerformancePredictor>(std::move(retrained));

  // A stream of batches of 1..60 rows, drifting half way through, with
  // rejected batches mixed in: empty, NaN and three-class ones.
  const auto clean =
      fixture.model->PredictProba(fixture.serving.features).ValueOrDie();
  const errors::Scaling severe({}, errors::FractionRange{0.6, 0.9},
                               {1000.0});
  const auto drifted =
      fixture.model
          ->PredictProba(
              severe.Corrupt(fixture.serving.features, rng).ValueOrDie())
          .ValueOrDie();
  std::vector<linalg::Matrix> stream;
  for (size_t b = 0; b < 48; ++b) {
    const linalg::Matrix& source = b < 20 ? clean : drifted;
    std::vector<size_t> rows(1 + rng.UniformInt(60));
    for (size_t& row : rows) row = rng.UniformInt(source.rows());
    stream.push_back(source.SelectRows(rows));
  }
  stream[5] = linalg::Matrix();
  for (const size_t b : {8, 31}) {
    stream[b].At(stream[b].rows() - 1, 1) =
        std::numeric_limits<double>::quiet_NaN();
  }
  for (const size_t b : {17, 33}) {
    linalg::Matrix three(stream[b].rows(), 3);
    for (size_t i = 0; i < three.rows(); ++i) {
      three.At(i, 0) = stream[b].At(i, 0) / 2.0;
      three.At(i, 1) = stream[b].At(i, 0) / 2.0;
      three.At(i, 2) = stream[b].At(i, 1);
    }
    stream[b] = std::move(three);
  }
  // A three-class batch that carries an Inf as well.
  stream[28] = stream[17];
  stream[28].At(0, 2) = std::numeric_limits<double>::infinity();

  for (const size_t window : {1, 2, 4, 7}) {
    for (const auto policy : {ModelMonitor::AlarmPolicy::kCertifiedDrop,
                              ModelMonitor::AlarmPolicy::kPointDrop}) {
      ModelMonitor::Options options;
      options.window_batches = window;
      options.alarm_policy = policy;
      options.alarm_threshold = 0.02;
      options.sketch_resolution_bits = 10;
      auto full = ModelMonitor::CreateForProba("full", predictor, options);
      auto windowed_only =
          ModelMonitor::CreateForProba("window", predictor, options);
      ASSERT_TRUE(full.ok() && windowed_only.ok());
      DenseRingOracle oracle(predictor, options);
      size_t accepted = 0;
      size_t alarms = 0;
      for (size_t b = 0; b < stream.size(); ++b) {
        if (b == 13) {
          ASSERT_TRUE(full->SwapPredictor(swapped).ok());
          ASSERT_TRUE(windowed_only->SwapPredictor(swapped).ok());
          oracle.Swap(swapped);
        }
        if (b == 27) {
          full->ClearWindow();
          windowed_only->ClearWindow();
          oracle.Clear();
        }
        const std::optional<WindowFields> expected = oracle.Observe(stream[b]);
        const auto report = full->Observe(stream[b]);
        const auto step = windowed_only->ObserveWindow(stream[b]);
        ASSERT_EQ(report.ok(), expected.has_value()) << window << " " << b;
        ASSERT_EQ(step.ok(), expected.has_value()) << window << " " << b;
        if (!expected.has_value()) continue;
        ExpectBitwiseEqual(*expected, *report, b);
        ExpectBitwiseEqual(*expected, *step, b);
        EXPECT_EQ(step->batch_id, report->batch_id);
        EXPECT_EQ(step->epoch, report->epoch);
        EXPECT_EQ(step->alarms_total, report->alarms_total);
        ++accepted;
        if (expected->alarm) ++alarms;
      }
      EXPECT_EQ(accepted, stream.size() - 6);
      EXPECT_EQ(full->batches_observed(), accepted);
      EXPECT_EQ(windowed_only->batches_observed(), accepted);
      EXPECT_EQ(full->alarms_raised(), alarms);
      EXPECT_EQ(windowed_only->alarms_raised(), alarms);
      EXPECT_TRUE(windowed_only->history().empty());
      // The stream must exercise both alarm outcomes.
      EXPECT_GT(alarms, 0u) << window;
      EXPECT_LT(alarms, accepted) << window;
    }
  }
}

TEST(ModelMonitorTest, ObserveWindowNeedsAWindow) {
  common::Rng rng(22);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor monitor(fixture.model.get(), fixture.predictor);
  const auto proba =
      fixture.model->PredictProba(fixture.serving.features).ValueOrDie();
  EXPECT_EQ(monitor.ObserveWindow(proba).status().code(),
            common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(monitor.batches_observed(), 0u);
}

}  // namespace
}  // namespace bbv::core
