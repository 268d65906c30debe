#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "common/serialize.h"

namespace bbv::ml {
namespace {

void MakeRegressionData(size_t n, linalg::Matrix& features,
                        std::vector<double>& targets, common::Rng& rng) {
  features = linalg::Matrix(n, 3);
  targets.resize(n);
  for (size_t i = 0; i < n; ++i) {
    features.At(i, 0) = rng.Uniform(0.0, 1.0);
    features.At(i, 1) = rng.Uniform(0.0, 1.0);
    features.At(i, 2) = rng.Uniform(0.0, 1.0);  // irrelevant
    targets[i] = 2.0 * features.At(i, 0) + features.At(i, 1) +
                 rng.Gaussian(0.0, 0.05);
  }
}

TEST(RandomForestTest, FitsSmoothFunction) {
  common::Rng rng(1);
  linalg::Matrix features;
  std::vector<double> targets;
  MakeRegressionData(500, features, targets, rng);
  RandomForestRegressor forest;
  ASSERT_TRUE(forest.Fit(features, targets, rng).ok());
  linalg::Matrix test_features;
  std::vector<double> test_targets;
  MakeRegressionData(200, test_features, test_targets, rng);
  const std::vector<double> predictions = forest.Predict(test_features);
  double mae = 0.0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    mae += std::abs(predictions[i] - test_targets[i]);
  }
  mae /= static_cast<double>(predictions.size());
  EXPECT_LT(mae, 0.25);
}

TEST(RandomForestTest, PredictionsWithinTargetRange) {
  // Tree ensembles cannot extrapolate beyond leaf means, so predictions
  // stay inside the observed target range — a useful sanity invariant for
  // the performance predictor (scores live in [0, 1]).
  common::Rng rng(3);
  linalg::Matrix features;
  std::vector<double> targets;
  MakeRegressionData(300, features, targets, rng);
  RandomForestRegressor forest;
  ASSERT_TRUE(forest.Fit(features, targets, rng).ok());
  const double low = *std::min_element(targets.begin(), targets.end());
  const double high = *std::max_element(targets.begin(), targets.end());
  for (double prediction : forest.Predict(features)) {
    EXPECT_GE(prediction, low - 1e-9);
    EXPECT_LE(prediction, high + 1e-9);
  }
}

TEST(RandomForestTest, NumTreesIsRespected) {
  common::Rng rng(5);
  linalg::Matrix features;
  std::vector<double> targets;
  MakeRegressionData(100, features, targets, rng);
  RandomForestRegressor::Options options;
  options.num_trees = 7;
  RandomForestRegressor forest(options);
  ASSERT_TRUE(forest.Fit(features, targets, rng).ok());
  EXPECT_EQ(forest.num_trees(), 7);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  linalg::Matrix features;
  std::vector<double> targets;
  {
    common::Rng data_rng(7);
    MakeRegressionData(150, features, targets, data_rng);
  }
  auto run = [&]() {
    common::Rng rng(42);
    RandomForestRegressor forest;
    BBV_CHECK(forest.Fit(features, targets, rng).ok());
    return forest.Predict(features);
  };
  EXPECT_EQ(run(), run());
}

TEST(RandomForestTest, RejectsMalformedInputs) {
  common::Rng rng(9);
  RandomForestRegressor forest;
  EXPECT_FALSE(forest.Fit(linalg::Matrix(), {}, rng).ok());
  linalg::Matrix features(3, 1);
  EXPECT_FALSE(forest.Fit(features, {1.0, 2.0}, rng).ok());
  RandomForestRegressor::Options options;
  options.num_trees = 0;
  RandomForestRegressor empty_forest(options);
  EXPECT_FALSE(empty_forest.Fit(features, {1.0, 2.0, 3.0}, rng).ok());
}

/// A forest archive holding one tree whose node arrays are given directly;
/// node i predicts the value i.
std::string OneTreeForest(const std::vector<int32_t>& features,
                          const std::vector<int32_t>& lefts,
                          const std::vector<int32_t>& rights,
                          const std::vector<double>& thresholds) {
  std::ostringstream out;
  common::BinaryWriter writer(out);
  writer.WriteMagic("BBVRF", 1);
  writer.WriteUint64(1);
  writer.WriteInt32Vector(features);
  writer.WriteInt32Vector(lefts);
  writer.WriteInt32Vector(rights);
  writer.WriteDoubleVector(thresholds);
  std::vector<double> values(features.size());
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  writer.WriteDoubleVector(values);
  BBV_CHECK(writer.status().ok());
  return out.str();
}

common::Status LoadStatus(const std::string& bytes) {
  std::istringstream in(bytes);
  return RandomForestRegressor::Load(in).status();
}

// A tree whose child points back at its parent used to load, and every
// prediction on it then looped forever. This test asserts the Status; the
// ctest TIMEOUT on this binary turns a regression into a failure, not a hang.
TEST(RandomForestTest, LoadRejectsCyclicTreesAndNonFiniteThresholds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Root lists itself as its left child.
  EXPECT_EQ(LoadStatus(OneTreeForest({0, -1}, {0, -1}, {1, -1}, {0.5, 0.0}))
                .code(),
            common::StatusCode::kInvalidArgument);
  // Node 1 points back at the root.
  EXPECT_EQ(LoadStatus(OneTreeForest({0, 1, -1}, {1, 0, -1}, {2, 2, -1},
                                     {0.5, 0.5, 0.0}))
                .code(),
            common::StatusCode::kInvalidArgument);
  // Non-finite thresholds, on an internal node and on a leaf.
  EXPECT_EQ(LoadStatus(OneTreeForest({0, -1, -1}, {1, -1, -1}, {2, -1, -1},
                                     {nan, 0.0, 0.0}))
                .code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadStatus(OneTreeForest({0, -1, -1}, {1, -1, -1}, {2, -1, -1},
                                     {0.5, 0.0, inf}))
                .code(),
            common::StatusCode::kInvalidArgument);

  // The same shape in pre-order with finite thresholds loads and predicts.
  std::istringstream in(
      OneTreeForest({0, -1, -1}, {1, -1, -1}, {2, -1, -1}, {0.5, 0.0, 0.0}));
  const auto forest = RandomForestRegressor::Load(in);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  const double row[1] = {0.25};
  EXPECT_DOUBLE_EQ(forest->PredictRow(row), 1.0);
}

TEST(RandomForestDeathTest, PredictBeforeFitDies) {
  // An unfitted forest has no trees and no compiled kernel; inference on it
  // is a programming error, not a recoverable condition.
  const RandomForestRegressor forest;
  const linalg::Matrix features(2, 3);
  const double row[3] = {0.0, 0.0, 0.0};
  std::vector<double> out(features.rows());
  EXPECT_DEATH(forest.Predict(features), "Predict before Fit");
  EXPECT_DEATH(forest.PredictInto(features, out), "Predict before Fit");
  EXPECT_DEATH(forest.PredictRow(row), "Predict before Fit");
}

TEST(RandomForestTest, EnsembleBeatsSingleTreeOnNoisyData) {
  common::Rng rng(11);
  linalg::Matrix features;
  std::vector<double> targets;
  MakeRegressionData(400, features, targets, rng);
  linalg::Matrix test_features;
  std::vector<double> test_targets;
  MakeRegressionData(400, test_features, test_targets, rng);
  auto mae_for = [&](int trees) {
    common::Rng fit_rng(13);
    RandomForestRegressor::Options options;
    options.num_trees = trees;
    RandomForestRegressor forest(options);
    BBV_CHECK(forest.Fit(features, targets, fit_rng).ok());
    const std::vector<double> predictions = forest.Predict(test_features);
    double mae = 0.0;
    for (size_t i = 0; i < predictions.size(); ++i) {
      mae += std::abs(predictions[i] - test_targets[i]);
    }
    return mae / static_cast<double>(predictions.size());
  };
  EXPECT_LT(mae_for(60), mae_for(1));
}

}  // namespace
}  // namespace bbv::ml
