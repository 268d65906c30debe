#include "core/performance_predictor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/prediction_statistics.h"
#include "datasets/tabular.h"
#include "errors/missing_values.h"
#include "errors/numeric_errors.h"
#include "ml/black_box.h"
#include "ml/sgd_logistic_regression.h"

namespace bbv::core {
namespace {

struct Fixture {
  data::Dataset train;
  data::Dataset test;
  data::Dataset serving;
  std::unique_ptr<ml::BlackBoxModel> model;
};

Fixture MakeFixture(common::Rng& rng, size_t rows = 3000) {
  data::Dataset dataset = datasets::MakeIncome(rows, rng);
  dataset = data::BalanceClasses(dataset, rng);
  auto [source, serving] = data::TrainTestSplit(dataset, 0.7, rng);
  auto [train, test] = data::TrainTestSplit(source, 0.7, rng);
  Fixture fixture;
  fixture.train = std::move(train);
  fixture.test = std::move(test);
  fixture.serving = std::move(serving);
  fixture.model = std::make_unique<ml::BlackBoxModel>(
      std::make_unique<ml::SgdLogisticRegression>());
  BBV_CHECK(fixture.model->Train(fixture.train, rng).ok());
  return fixture;
}

PerformancePredictor::Options FastOptions() {
  PerformancePredictor::Options options;
  options.corruptions_per_generator = 25;
  options.tree_count_grid = {30};
  return options;
}

TEST(ComputeScoreTest, AccuracyAndAucDispatch) {
  const linalg::Matrix proba =
      linalg::Matrix::FromRows({{0.9, 0.1}, {0.2, 0.8}});
  EXPECT_DOUBLE_EQ(ComputeScore(ScoreMetric::kAccuracy, proba, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(ComputeScore(ScoreMetric::kRocAuc, proba, {0, 1}), 1.0);
}

TEST(PerformancePredictorTest, TrainRequiresDataAndGenerators) {
  common::Rng rng(1);
  Fixture fixture = MakeFixture(rng, 1000);
  PerformancePredictor predictor(FastOptions());
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  EXPECT_FALSE(
      predictor.Train(*fixture.model, data::Dataset(), generators, rng).ok());
  EXPECT_FALSE(predictor.Train(*fixture.model, fixture.test, {}, rng).ok());
}

TEST(PerformancePredictorTest, EstimateBeforeTrainFails) {
  PerformancePredictor predictor;
  EXPECT_FALSE(
      predictor.EstimateScoreFromProba(linalg::Matrix(10, 2)).ok());
}

TEST(PerformancePredictorTest, RecordsMetaTrainingSize) {
  common::Rng rng(2);
  Fixture fixture = MakeFixture(rng, 1500);
  PerformancePredictor::Options options = FastOptions();
  options.clean_copies = 3;
  PerformancePredictor predictor(options);
  const errors::MissingValues missing;
  const errors::NumericOutliers outliers;
  std::vector<const errors::ErrorGen*> generators = {&missing, &outliers};
  ASSERT_TRUE(
      predictor.Train(*fixture.model, fixture.test, generators, rng).ok());
  EXPECT_EQ(predictor.num_training_examples(), 3u + 2u * 25u);
  EXPECT_TRUE(predictor.trained());
  EXPECT_GT(predictor.test_score(), 0.5);
}

TEST(PerformancePredictorTest, EstimatesCleanScoreAccurately) {
  common::Rng rng(3);
  Fixture fixture = MakeFixture(rng);
  PerformancePredictor predictor(FastOptions());
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  ASSERT_TRUE(
      predictor.Train(*fixture.model, fixture.test, generators, rng).ok());
  const auto estimate =
      predictor.EstimateScore(*fixture.model, fixture.serving.features);
  ASSERT_TRUE(estimate.ok());
  const double actual =
      fixture.model->ScoreAccuracy(fixture.serving).ValueOrDie();
  EXPECT_NEAR(estimate->point, actual, 0.05);
}

TEST(PerformancePredictorTest, TracksDegradationUnderKnownError) {
  common::Rng rng(4);
  Fixture fixture = MakeFixture(rng);
  PerformancePredictor predictor(FastOptions());
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  ASSERT_TRUE(
      predictor.Train(*fixture.model, fixture.test, generators, rng).ok());
  double total_error = 0.0;
  const int repetitions = 8;
  for (int i = 0; i < repetitions; ++i) {
    const auto corrupted = missing.Corrupt(fixture.serving.features, rng);
    ASSERT_TRUE(corrupted.ok());
    const auto proba = fixture.model->PredictProba(*corrupted);
    ASSERT_TRUE(proba.ok());
    const double actual = ComputeScore(ScoreMetric::kAccuracy, *proba,
                                       fixture.serving.labels);
    const auto estimate = predictor.EstimateScoreFromProba(*proba);
    ASSERT_TRUE(estimate.ok());
    total_error += std::abs(estimate->point - actual);
  }
  EXPECT_LT(total_error / repetitions, 0.05);
}

TEST(PerformancePredictorTest, AucMetricVariant) {
  common::Rng rng(5);
  Fixture fixture = MakeFixture(rng, 2000);
  PerformancePredictor::Options options = FastOptions();
  options.metric = ScoreMetric::kRocAuc;
  PerformancePredictor predictor(options);
  const errors::NumericOutliers outliers;
  std::vector<const errors::ErrorGen*> generators = {&outliers};
  ASSERT_TRUE(
      predictor.Train(*fixture.model, fixture.test, generators, rng).ok());
  const auto estimate =
      predictor.EstimateScore(*fixture.model, fixture.serving.features);
  ASSERT_TRUE(estimate.ok());
  const double actual_auc =
      fixture.model->ScoreAuc(fixture.serving).ValueOrDie();
  EXPECT_NEAR(estimate->point, actual_auc, 0.08);
}

TEST(PerformancePredictorTest, GridSearchSelectsFromGrid) {
  common::Rng rng(6);
  Fixture fixture = MakeFixture(rng, 1200);
  PerformancePredictor::Options options = FastOptions();
  options.tree_count_grid = {5, 40};
  PerformancePredictor predictor(options);
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  ASSERT_TRUE(
      predictor.Train(*fixture.model, fixture.test, generators, rng).ok());
  EXPECT_TRUE(predictor.selected_tree_count() == 5 ||
              predictor.selected_tree_count() == 40);
}

TEST(PerformancePredictorTest, MetaBatchSizeSubsampling) {
  common::Rng rng(7);
  Fixture fixture = MakeFixture(rng, 2000);
  PerformancePredictor::Options options = FastOptions();
  options.meta_batch_size = 100;
  PerformancePredictor predictor(options);
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  ASSERT_TRUE(
      predictor.Train(*fixture.model, fixture.test, generators, rng).ok());
  // Estimates on small serving batches remain sensible.
  const std::vector<size_t> rows =
      rng.SampleWithoutReplacement(fixture.serving.NumRows(), 100);
  const data::Dataset small = fixture.serving.SelectRows(rows);
  const auto estimate =
      predictor.EstimateScore(*fixture.model, small.features);
  ASSERT_TRUE(estimate.ok());
  EXPECT_GT(estimate->point, 0.4);
  EXPECT_LT(estimate->point, 1.0);
}

TEST(PerformancePredictorTest, TrainFromStatisticsValidation) {
  common::Rng rng(8);
  PerformancePredictor predictor(FastOptions());
  EXPECT_FALSE(predictor.TrainFromStatistics({}, {}, 0.8, rng).ok());
  EXPECT_FALSE(
      predictor.TrainFromStatistics({{1.0, 2.0}}, {0.5, 0.6}, 0.8, rng).ok());
  ASSERT_TRUE(predictor
                  .TrainFromStatistics({{1.0, 2.0}, {2.0, 3.0}, {3.0, 4.0}},
                                       {0.5, 0.6, 0.7}, 0.8, rng)
                  .ok());
  EXPECT_TRUE(predictor.trained());
  EXPECT_DOUBLE_EQ(predictor.test_score(), 0.8);
}

// Ragged or empty statistics rows used to abort inside Matrix::FromRows.
TEST(PerformancePredictorTest, TrainFromStatisticsRejectsRaggedRows) {
  common::Rng rng(9);
  PerformancePredictor predictor(FastOptions());
  EXPECT_EQ(predictor
                .TrainFromStatistics({{1.0, 2.0}, {2.0}, {3.0, 4.0}},
                                     {0.5, 0.6, 0.7}, 0.8, rng)
                .code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(predictor.TrainFromStatistics({{}, {}}, {0.5, 0.6}, 0.8, rng)
                .code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_FALSE(predictor.trained());
}

// A null generator used to abort Train with a BBV_CHECK.
TEST(PerformancePredictorTest, TrainRejectsNullGenerator) {
  common::Rng rng(10);
  Fixture fixture = MakeFixture(rng, 1000);
  PerformancePredictor predictor(FastOptions());
  const errors::MissingValues missing;
  EXPECT_EQ(predictor.Train(*fixture.model, fixture.test, {&missing, nullptr},
                            rng)
                .code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_FALSE(predictor.trained());
}

/// A black box that answers every frame with a fixed probability matrix.
class FixedProbaBox : public ml::BlackBox {
 public:
  explicit FixedProbaBox(linalg::Matrix probabilities)
      : probabilities_(std::move(probabilities)) {}
  common::Result<linalg::Matrix> PredictProba(
      const data::DataFrame& /*frame*/) const override {
    return probabilities_;
  }
  int num_classes() const override {
    return static_cast<int>(probabilities_.cols());
  }
  std::string Name() const override { return "fixed"; }

 private:
  linalg::Matrix probabilities_;
};

// A zero-row batch used to abort the process inside PredictionStatistics.
TEST(PerformancePredictorTest, EstimateRejectsEmptyAndMisshapenBatches) {
  common::Rng rng(11);
  PerformancePredictor::Options options = FastOptions();
  options.percentile_points = {0.0, 50.0, 100.0};
  PerformancePredictor predictor(options);
  std::vector<std::vector<double>> statistics;
  std::vector<double> scores;
  for (int level = 0; level <= 10; ++level) {
    const double p = 0.5 + 0.045 * level;
    const linalg::Matrix batch =
        linalg::Matrix::FromRows({{p, 1.0 - p}, {1.0 - p, p}, {0.5, 0.5}});
    statistics.push_back(
        PredictionStatistics(batch, options.percentile_points));
    scores.push_back(p);
  }
  ASSERT_TRUE(predictor.TrainFromStatistics(statistics, scores, 0.9, rng).ok());

  EXPECT_EQ(predictor.EstimateScoreFromProba(linalg::Matrix(0, 2)).status()
                .code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(predictor.EstimateScoreFromProba(linalg::Matrix(0, 3)).status()
                .code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(predictor
                .EstimateScoreFromProba(linalg::Matrix::FromRows(
                    {{0.2, 0.3, 0.5}, {0.1, 0.1, 0.8}}))
                .status()
                .code(),
            common::StatusCode::kInvalidArgument);

  const FixedProbaBox empty_box{linalg::Matrix(0, 2)};
  EXPECT_EQ(predictor.EstimateScore(empty_box, data::DataFrame()).status()
                .code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(predictor.ProbeEstimationError(empty_box, data::DataFrame(), {})
                .status()
                .code(),
            common::StatusCode::kInvalidArgument);

  // NaN/Inf used to be sorted into the statistics and scored with an OK
  // status.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const linalg::Matrix poisoned = linalg::Matrix::FromRows(
        {{0.9, 0.1}, {bad, 0.8}, {0.6, 0.4}, {0.3, 0.7}, {bad, 0.5},
         {0.8, 0.2}});
    EXPECT_EQ(predictor.EstimateScoreFromProba(poisoned).status().code(),
              common::StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(predictor.EstimateScore(FixedProbaBox(poisoned), data::DataFrame())
                  .status()
                  .code(),
              common::StatusCode::kInvalidArgument)
        << bad;
  }

  // A well-formed batch through the same surfaces still scores.
  const linalg::Matrix batch =
      linalg::Matrix::FromRows({{0.9, 0.1}, {0.2, 0.8}, {0.6, 0.4}});
  const auto direct = predictor.EstimateScoreFromProba(batch);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  const auto through_box =
      predictor.EstimateScore(FixedProbaBox(batch), data::DataFrame());
  ASSERT_TRUE(through_box.ok()) << through_box.status().ToString();
  EXPECT_EQ(*through_box, *direct);
}

}  // namespace
}  // namespace bbv::core
