// Round-trip tests for the binary persistence layer: trained artifacts must
// reload with bit-identical predictions, and corrupt inputs must fail with
// readable errors instead of crashing.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/serialize.h"
#include "core/prediction_statistics.h"
#include "core/performance_predictor.h"
#include "core/performance_validator.h"
#include "datasets/tabular.h"
#include "errors/missing_values.h"
#include "ml/black_box.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/random_forest.h"
#include "ml/sgd_logistic_regression.h"

namespace bbv {
namespace {

// ---------------------------------------------------------------------------
// Archive primitives
// ---------------------------------------------------------------------------

TEST(BinaryArchiveTest, PrimitiveRoundTrip) {
  std::stringstream buffer;
  common::BinaryWriter writer(buffer);
  writer.WriteMagic("TEST", 3);
  writer.WriteUint32(7);
  writer.WriteUint64(1ull << 40);
  writer.WriteInt32(-5);
  writer.WriteDouble(3.14159);
  writer.WriteString("hello");
  writer.WriteDoubleVector({1.0, 2.0, 3.0});
  writer.WriteInt32Vector({-1, 0, 1});
  ASSERT_TRUE(writer.status().ok());

  common::BinaryReader reader(buffer);
  ASSERT_TRUE(reader.ExpectMagic("TEST", 3).ok());
  EXPECT_EQ(reader.ReadUint32().ValueOrDie(), 7u);
  EXPECT_EQ(reader.ReadUint64().ValueOrDie(), 1ull << 40);
  EXPECT_EQ(reader.ReadInt32().ValueOrDie(), -5);
  EXPECT_DOUBLE_EQ(reader.ReadDouble().ValueOrDie(), 3.14159);
  EXPECT_EQ(reader.ReadString().ValueOrDie(), "hello");
  EXPECT_EQ(reader.ReadDoubleVector().ValueOrDie(),
            (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(reader.ReadInt32Vector().ValueOrDie(),
            (std::vector<int32_t>{-1, 0, 1}));
}

TEST(BinaryArchiveTest, WrongMagicRejected) {
  std::stringstream buffer;
  common::BinaryWriter writer(buffer);
  writer.WriteMagic("AAAA", 1);
  common::BinaryReader reader(buffer);
  EXPECT_FALSE(reader.ExpectMagic("BBBB", 1).ok());
}

TEST(BinaryArchiveTest, WrongVersionRejected) {
  std::stringstream buffer;
  common::BinaryWriter writer(buffer);
  writer.WriteMagic("AAAA", 2);
  common::BinaryReader reader(buffer);
  EXPECT_FALSE(reader.ExpectMagic("AAAA", 1).ok());
}

TEST(BinaryArchiveTest, TruncatedStreamRejected) {
  std::stringstream buffer;
  common::BinaryWriter writer(buffer);
  writer.WriteUint32(1);
  common::BinaryReader reader(buffer);
  EXPECT_TRUE(reader.ReadUint32().ok());
  EXPECT_FALSE(reader.ReadDouble().ok());
}

TEST(BinaryArchiveTest, ImplausibleVectorLengthRejected) {
  std::stringstream buffer;
  common::BinaryWriter writer(buffer);
  writer.WriteUint64(uint64_t{1} << 60);  // bogus length prefix
  common::BinaryReader reader(buffer);
  EXPECT_FALSE(reader.ReadDoubleVector().ok());
}

// ---------------------------------------------------------------------------
// Random forest
// ---------------------------------------------------------------------------

TEST(ForestSerializationTest, PredictionsSurviveRoundTrip) {
  common::Rng rng(1);
  linalg::Matrix features(200, 4);
  std::vector<double> targets(200);
  for (size_t i = 0; i < 200; ++i) {
    for (size_t j = 0; j < 4; ++j) features.At(i, j) = rng.Uniform();
    targets[i] = features.At(i, 0) + 0.5 * features.At(i, 2);
  }
  ml::RandomForestRegressor::Options options;
  options.num_trees = 15;
  ml::RandomForestRegressor forest(options);
  ASSERT_TRUE(forest.Fit(features, targets, rng).ok());

  std::stringstream buffer;
  ASSERT_TRUE(forest.Save(buffer).ok());
  const auto restored = ml::RandomForestRegressor::Load(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_trees(), 15);
  const std::vector<double> expected = forest.Predict(features);
  const std::vector<double> actual = restored->Predict(features);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(expected[i], actual[i]);
  }
}

TEST(ForestSerializationTest, WriterCoreMatchesStreamWrapperBytes) {
  // The stream overload is a thin wrapper over the BinaryWriter core; both
  // must emit the same bytes so archives written either way (and any
  // pre-redesign stream) stay interchangeable.
  common::Rng rng(5);
  linalg::Matrix features(120, 3);
  std::vector<double> targets(120);
  for (size_t i = 0; i < 120; ++i) {
    for (size_t j = 0; j < 3; ++j) features.At(i, j) = rng.Uniform();
    targets[i] = features.At(i, 1);
  }
  ml::RandomForestRegressor::Options options;
  options.num_trees = 9;
  ml::RandomForestRegressor forest(options);
  ASSERT_TRUE(forest.Fit(features, targets, rng).ok());

  std::ostringstream via_stream;
  ASSERT_TRUE(forest.Save(via_stream).ok());
  std::ostringstream via_writer;
  common::BinaryWriter writer(via_writer);
  ASSERT_TRUE(forest.Save(writer).ok());
  EXPECT_EQ(via_stream.str(), via_writer.str());

  // And the reader core restores from the same bytes.
  std::istringstream in(via_writer.str());
  common::BinaryReader reader(in);
  const auto restored = ml::RandomForestRegressor::Load(reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->Predict(features), forest.Predict(features));
}

TEST(ForestSerializationTest, SaveBeforeFitFails) {
  ml::RandomForestRegressor forest;
  std::stringstream buffer;
  EXPECT_FALSE(forest.Save(buffer).ok());
}

TEST(ForestSerializationTest, GarbageInputRejected) {
  std::stringstream buffer("this is not a forest");
  EXPECT_FALSE(ml::RandomForestRegressor::Load(buffer).ok());
}

// ---------------------------------------------------------------------------
// Gradient-boosted trees
// ---------------------------------------------------------------------------

TEST(GbdtSerializationTest, ProbabilitiesSurviveRoundTrip) {
  common::Rng rng(3);
  linalg::Matrix features(200, 3);
  std::vector<int> labels(200);
  for (size_t i = 0; i < 200; ++i) {
    const int label = static_cast<int>(i % 3);
    features.At(i, 0) = rng.Gaussian(static_cast<double>(label), 0.4);
    features.At(i, 1) = rng.Uniform();
    features.At(i, 2) = rng.Uniform();
    labels[i] = label;
  }
  ml::GradientBoostedTrees::Options options;
  options.num_rounds = 10;
  ml::GradientBoostedTrees model(options);
  ASSERT_TRUE(model.Fit(features, labels, 3, rng).ok());

  std::stringstream buffer;
  ASSERT_TRUE(model.Save(buffer).ok());
  const auto restored = ml::GradientBoostedTrees::Load(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_classes(), 3);
  const linalg::Matrix expected = model.PredictProba(features);
  const linalg::Matrix actual = restored->PredictProba(features);
  for (size_t i = 0; i < expected.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(expected.data()[i], actual.data()[i]);
  }
}

TEST(GbdtSerializationTest, WriterCoreMatchesStreamWrapperBytes) {
  common::Rng rng(6);
  linalg::Matrix features(150, 3);
  std::vector<int> labels(150);
  for (size_t i = 0; i < 150; ++i) {
    const int label = static_cast<int>(i % 2);
    features.At(i, 0) = rng.Gaussian(static_cast<double>(label), 0.5);
    features.At(i, 1) = rng.Uniform();
    features.At(i, 2) = rng.Uniform();
    labels[i] = label;
  }
  ml::GradientBoostedTrees::Options options;
  options.num_rounds = 6;
  ml::GradientBoostedTrees model(options);
  ASSERT_TRUE(model.Fit(features, labels, 2, rng).ok());

  std::ostringstream via_stream;
  ASSERT_TRUE(model.Save(via_stream).ok());
  std::ostringstream via_writer;
  common::BinaryWriter writer(via_writer);
  ASSERT_TRUE(model.Save(writer).ok());
  EXPECT_EQ(via_stream.str(), via_writer.str());

  std::istringstream in(via_writer.str());
  common::BinaryReader reader(in);
  const auto restored = ml::GradientBoostedTrees::Load(reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const linalg::Matrix expected = model.PredictProba(features);
  const linalg::Matrix actual = restored->PredictProba(features);
  EXPECT_EQ(expected.data(), actual.data());
}

TEST(GbdtSerializationTest, GarbageInputRejected) {
  std::stringstream buffer("BBVGBxx");
  EXPECT_FALSE(ml::GradientBoostedTrees::Load(buffer).ok());
}

// ---------------------------------------------------------------------------
// Performance predictor
// ---------------------------------------------------------------------------

TEST(PredictorSerializationTest, EstimatesSurviveRoundTrip) {
  common::Rng rng(2);
  data::Dataset dataset = datasets::MakeIncome(2000, rng);
  auto [source, serving] = data::TrainTestSplit(dataset, 0.7, rng);
  auto [train, test] = data::TrainTestSplit(source, 0.7, rng);
  ml::BlackBoxModel model(std::make_unique<ml::SgdLogisticRegression>());
  ASSERT_TRUE(model.Train(train, rng).ok());

  core::PerformancePredictor::Options options;
  options.corruptions_per_generator = 20;
  options.tree_count_grid = {25};
  core::PerformancePredictor predictor(options);
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  ASSERT_TRUE(predictor.Train(model, test, generators, rng).ok());

  std::stringstream buffer;
  ASSERT_TRUE(predictor.Save(buffer).ok());
  const auto restored = core::PerformancePredictor::Load(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->trained());
  EXPECT_DOUBLE_EQ(restored->test_score(), predictor.test_score());
  EXPECT_EQ(restored->num_training_examples(),
            predictor.num_training_examples());

  const auto proba = model.PredictProba(serving.features).ValueOrDie();
  // Full four-field ScoreEstimate equality: the round-trip restores the
  // conformal calibration state, not just the forest.
  EXPECT_EQ(predictor.EstimateScoreFromProba(proba).ValueOrDie(),
            restored->EstimateScoreFromProba(proba).ValueOrDie());
}

TEST(PredictorSerializationTest, SaveBeforeTrainFails) {
  core::PerformancePredictor predictor;
  std::stringstream buffer;
  EXPECT_FALSE(predictor.Save(buffer).ok());
}

TEST(PredictorSerializationTest, GarbageInputRejected) {
  std::stringstream buffer("BBVPPnonsense");
  EXPECT_FALSE(core::PerformancePredictor::Load(buffer).ok());
}

/// One tree in RegressionTree::Save's layout: a root split on `feature` at
/// 0.5 with leaves 0.25 (left) and 0.75 (right).
void WriteStump(common::BinaryWriter& writer, int32_t feature) {
  writer.WriteInt32Vector({feature, -1, -1});
  writer.WriteInt32Vector({1, -1, -1});
  writer.WriteInt32Vector({2, -1, -1});
  writer.WriteDoubleVector({0.5, 0.0, 0.0});
  writer.WriteDoubleVector({0.5, 0.25, 0.75});
}

/// Save bytes of a predictor trained on synthetic two-class statistics
/// (feature dimension 2 * |DefaultPercentilePoints()|).
std::string SmallPredictorBytes() {
  core::PerformancePredictor::Options options;
  options.tree_count_grid = {3};
  options.conformal_calibration = false;
  core::PerformancePredictor predictor(options);
  const size_t width = 2 * core::DefaultPercentilePoints().size();
  common::Rng rng(5);
  std::vector<std::vector<double>> statistics(30, std::vector<double>(width));
  std::vector<double> scores(statistics.size());
  for (size_t i = 0; i < statistics.size(); ++i) {
    for (double& value : statistics[i]) value = rng.Uniform(0.0, 1.0);
    scores[i] = statistics[i][0];
  }
  EXPECT_TRUE(predictor.TrainFromStatistics(statistics, scores, 0.9, rng).ok());
  std::ostringstream out;
  EXPECT_TRUE(predictor.Save(out).ok());
  return out.str();
}

/// `predictor_bytes` with its forest record, which closes the archive,
/// replaced by a one-stump forest splitting on `feature`.
std::string WithStumpForest(std::string predictor_bytes, int32_t feature) {
  predictor_bytes.resize(predictor_bytes.find("BBVRF"));
  std::ostringstream out;
  common::BinaryWriter writer(out);
  writer.WriteMagic("BBVRF", 1);
  writer.WriteUint64(1);
  WriteStump(writer, feature);
  return predictor_bytes + out.str();
}

// A forest splitting on a feature past the predictor's feature dimension
// used to load; every scalar estimate then read past the statistics row.
TEST(PredictorSerializationTest, LoadRejectsForestFeatureBeyondDimension) {
  const std::string trained = SmallPredictorBytes();
  const auto dimension =
      static_cast<int32_t>(2 * core::DefaultPercentilePoints().size());
  std::istringstream beyond(WithStumpForest(trained, dimension));
  EXPECT_EQ(core::PerformancePredictor::Load(beyond).status().code(),
            common::StatusCode::kInvalidArgument);

  // The last in-range feature loads and estimates.
  std::istringstream last(WithStumpForest(trained, dimension - 1));
  const auto predictor = core::PerformancePredictor::Load(last);
  ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();
  const std::vector<double> statistics(static_cast<size_t>(dimension), 0.75);
  const auto estimate = predictor->EstimateScoreFromStatistics(statistics);
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  EXPECT_DOUBLE_EQ(estimate->point, 0.75);
}

// ---------------------------------------------------------------------------
// Performance validator
// ---------------------------------------------------------------------------

TEST(ValidatorSerializationTest, DecisionsSurviveRoundTrip) {
  common::Rng rng(4);
  data::Dataset dataset = datasets::MakeIncome(2500, rng);
  auto [source, serving] = data::TrainTestSplit(dataset, 0.7, rng);
  auto [train, test] = data::TrainTestSplit(source, 0.7, rng);
  ml::BlackBoxModel model(std::make_unique<ml::SgdLogisticRegression>());
  ASSERT_TRUE(model.Train(train, rng).ok());

  core::PerformanceValidator::Options options;
  options.threshold = 0.05;
  options.corruptions_per_generator = 40;
  core::PerformanceValidator validator(options);
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  ASSERT_TRUE(validator.Train(model, test, generators, rng).ok());

  std::stringstream buffer;
  ASSERT_TRUE(validator.Save(buffer).ok());
  const auto restored = core::PerformanceValidator::Load(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_DOUBLE_EQ(restored->threshold(), validator.threshold());
  EXPECT_DOUBLE_EQ(restored->test_score(), validator.test_score());

  // Decisions agree on clean and corrupted batches.
  for (int round = 0; round < 5; ++round) {
    common::Rng corrupt_rng(100 + round);
    const auto corrupted =
        missing.Corrupt(serving.features, corrupt_rng).ValueOrDie();
    const auto proba = model.PredictProba(corrupted).ValueOrDie();
    EXPECT_EQ(validator.ValidateFromProba(proba).ValueOrDie(),
              restored->ValidateFromProba(proba).ValueOrDie());
  }
}

TEST(ValidatorSerializationTest, SaveBeforeTrainFails) {
  core::PerformanceValidator validator;
  std::stringstream buffer;
  EXPECT_FALSE(validator.Save(buffer).ok());
}

TEST(ValidatorSerializationTest, GarbageInputRejected) {
  std::stringstream buffer("BBVPVgarbage");
  EXPECT_FALSE(core::PerformanceValidator::Load(buffer).ok());
}

/// A validator archive over a 3-point grid with KS and predictor features
/// and two retained output columns, so its decision features are
/// 2 * 3 + 2 * 2 + 2 = 12 wide. The decision model is a two-class GBT of
/// stumps splitting on `feature`.
std::string ValidatorWithStumpsOn(const std::string& predictor_bytes,
                                  int32_t feature) {
  std::ostringstream out;
  common::BinaryWriter writer(out);
  writer.WriteMagic("BBVPV", 1);
  writer.WriteDouble(0.05);  // threshold
  writer.WriteInt32(static_cast<int32_t>(core::ScoreMetric::kAccuracy));
  writer.WriteDoubleVector({25.0, 50.0, 75.0});
  writer.WriteInt32(1);       // KS features
  writer.WriteInt32(1);       // predictor feature
  writer.WriteDouble(0.9);    // test score
  writer.WriteInt32(0);       // not degenerate
  writer.WriteInt32(0);       // degenerate label
  writer.WriteDouble(0.5);    // decision threshold
  writer.WriteUint64(4);      // retained test outputs: 4 x 2
  writer.WriteUint64(2);
  writer.WriteDoubleVector({0.9, 0.1, 0.2, 0.8, 0.6, 0.4, 0.3, 0.7});
  std::ostringstream gbt;
  common::BinaryWriter gbt_writer(gbt);
  gbt_writer.WriteMagic("BBVGB", 1);
  gbt_writer.WriteInt32(2);
  gbt_writer.WriteDouble(0.2);
  gbt_writer.WriteDoubleVector({0.0, 0.0});
  gbt_writer.WriteUint64(2);
  WriteStump(gbt_writer, feature);
  WriteStump(gbt_writer, feature);
  return out.str() + predictor_bytes + gbt.str();
}

TEST(ValidatorSerializationTest, LoadRejectsDecisionFeatureBeyondWidth) {
  const std::string predictor = SmallPredictorBytes();
  std::istringstream beyond(ValidatorWithStumpsOn(predictor, 12));
  EXPECT_EQ(core::PerformanceValidator::Load(beyond).status().code(),
            common::StatusCode::kInvalidArgument);

  // The last in-range feature (the predictor's relative drop) loads and
  // validates a batch.
  std::istringstream last(ValidatorWithStumpsOn(predictor, 11));
  const auto validator = core::PerformanceValidator::Load(last);
  ASSERT_TRUE(validator.ok()) << validator.status().ToString();
  const linalg::Matrix batch(3, 2, {0.8, 0.2, 0.4, 0.6, 0.7, 0.3});
  EXPECT_TRUE(validator->ValidateFromProba(batch).ok());
}

}  // namespace
}  // namespace bbv
