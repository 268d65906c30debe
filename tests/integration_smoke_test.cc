// End-to-end smoke test: generate a dataset, train a black box model, train
// the performance predictor on corrupted test data (Algorithm 1), and check
// that score estimates on corrupted serving data (Algorithm 2) are close to
// the true scores. This is the full pipeline from the paper's Figure 1.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/performance_predictor.h"
#include "core/performance_validator.h"
#include "data/dataset.h"
#include "datasets/tabular.h"
#include "errors/missing_values.h"
#include "errors/numeric_errors.h"
#include "ml/black_box.h"
#include "ml/sgd_logistic_regression.h"

namespace bbv {
namespace {

TEST(IntegrationSmokeTest, PredictorEstimatesScoresUnderCorruption) {
  common::Rng rng(7);
  data::Dataset dataset = datasets::MakeIncome(3000, rng);
  dataset = data::BalanceClasses(dataset, rng);

  // Source/serving split, then train/test split of the source data.
  data::DatasetSplit source_serving = TrainTestSplit(dataset, 0.7, rng);
  data::DatasetSplit train_test =
      TrainTestSplit(source_serving.first, 0.7, rng);

  ml::BlackBoxModel model(std::make_unique<ml::SgdLogisticRegression>());
  ASSERT_TRUE(model.Train(train_test.first, rng).ok());
  auto clean_accuracy = model.ScoreAccuracy(train_test.second);
  ASSERT_TRUE(clean_accuracy.ok());
  // The synthetic income task must be realistically learnable.
  EXPECT_GT(*clean_accuracy, 0.70);
  EXPECT_LT(*clean_accuracy, 0.99);

  errors::MissingValues missing;
  errors::NumericOutliers outliers;
  std::vector<const errors::ErrorGen*> generators = {&missing, &outliers};

  core::PerformancePredictor::Options options;
  options.corruptions_per_generator = 40;
  core::PerformancePredictor predictor(options);
  ASSERT_TRUE(
      predictor.Train(model, train_test.second, generators, rng).ok());
  EXPECT_GT(predictor.num_training_examples(), 80u);

  // Evaluate on corrupted serving data with fresh random magnitudes.
  std::vector<double> absolute_errors;
  for (int round = 0; round < 10; ++round) {
    auto corrupted = round % 2 == 0
                         ? missing.Corrupt(source_serving.second.features, rng)
                         : outliers.Corrupt(source_serving.second.features, rng);
    ASSERT_TRUE(corrupted.ok());
    auto probabilities = model.PredictProba(*corrupted);
    ASSERT_TRUE(probabilities.ok());
    const double true_score = core::ComputeScore(
        core::ScoreMetric::kAccuracy, *probabilities,
        source_serving.second.labels);
    auto estimate = predictor.EstimateScoreFromProba(*probabilities);
    ASSERT_TRUE(estimate.ok());
    absolute_errors.push_back(std::abs(estimate->point - true_score));
  }
  double mean_error = 0.0;
  for (double e : absolute_errors) mean_error += e;
  mean_error /= static_cast<double>(absolute_errors.size());
  // The paper reports median absolute errors around 0.01; we allow headroom
  // for the smaller smoke-test scale.
  EXPECT_LT(mean_error, 0.06) << "predictor is not tracking true scores";
}

TEST(IntegrationSmokeTest, ValidatorRaisesAlarmsOnSevereCorruption) {
  common::Rng rng(11);
  data::Dataset dataset = datasets::MakeHeart(2500, rng);
  dataset = data::BalanceClasses(dataset, rng);
  data::DatasetSplit source_serving = TrainTestSplit(dataset, 0.7, rng);
  data::DatasetSplit train_test =
      TrainTestSplit(source_serving.first, 0.7, rng);

  ml::BlackBoxModel model(std::make_unique<ml::SgdLogisticRegression>());
  ASSERT_TRUE(model.Train(train_test.first, rng).ok());

  errors::MissingValues missing;
  errors::NumericOutliers outliers;
  std::vector<const errors::ErrorGen*> generators = {&missing, &outliers};

  core::PerformanceValidator::Options options;
  options.threshold = 0.10;
  options.predictor.corruptions_per_generator = 40;
  core::PerformanceValidator validator(options);
  ASSERT_TRUE(
      validator.Train(model, train_test.second, generators, rng).ok());

  // Clean serving data should be accepted.
  auto clean_decision = validator.Validate(
      model, source_serving.second.features);
  ASSERT_TRUE(clean_decision.ok());
  EXPECT_TRUE(*clean_decision);

  // Severely corrupted serving data (all numeric cells turned into heavy
  // outliers) should raise an alarm in most repetitions.
  errors::NumericOutliers severe({}, errors::FractionRange{0.9, 1.0},
                                 /*min_scale=*/8.0, /*max_scale=*/10.0);
  int alarms = 0;
  for (int round = 0; round < 5; ++round) {
    auto corrupted = severe.Corrupt(source_serving.second.features, rng);
    ASSERT_TRUE(corrupted.ok());
    auto decision = validator.Validate(model, *corrupted);
    ASSERT_TRUE(decision.ok());
    if (!*decision) ++alarms;
  }
  EXPECT_GE(alarms, 3);
}

}  // namespace
}  // namespace bbv
