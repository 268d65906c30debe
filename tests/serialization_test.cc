// Round-trip tests for the binary persistence layer: trained artifacts must
// reload with bit-identical predictions, and corrupt inputs must fail with
// readable errors instead of crashing, hanging or allocating what a corrupt
// length field declares.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "core/monitor.h"
#include "core/prediction_statistics.h"
#include "core/performance_predictor.h"
#include "core/performance_validator.h"
#include "datasets/tabular.h"
#include "errors/missing_values.h"
#include "linalg/matrix_io.h"
#include "ml/black_box.h"
#include "ml/decision_tree.h"
#include "ml/feed_forward_network.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/random_forest.h"
#include "ml/sgd_logistic_regression.h"
#include "serve/streaming_scorer.h"
#include "stats/quantile_sketch.h"

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

// A length prefix inside the plausibility limit is still untrusted: 2^32 - 1
// declared elements (32 GiB of doubles) with three present must fail at the
// end of the stream without allocating the declared size first.
TEST(BinaryArchiveTest, DeclaredLengthBeyondStreamFailsBeforeAllocating) {
  const uint64_t declared = std::numeric_limits<uint32_t>::max();
  {
    std::stringstream buffer;
    common::BinaryWriter writer(buffer);
    writer.WriteUint64(declared);
    for (const double value : {1.0, 2.0, 3.0}) writer.WriteDouble(value);
    common::BinaryReader reader(buffer);
    EXPECT_EQ(reader.ReadDoubleVector().status().code(),
              common::StatusCode::kIoError);
  }
  {
    std::stringstream buffer;
    common::BinaryWriter writer(buffer);
    writer.WriteUint64(declared);
    for (const int32_t value : {1, 2, 3}) writer.WriteInt32(value);
    common::BinaryReader reader(buffer);
    EXPECT_EQ(reader.ReadInt32Vector().status().code(),
              common::StatusCode::kIoError);
  }
  {
    std::stringstream buffer;
    common::BinaryWriter writer(buffer);
    writer.WriteUint64(declared);
    buffer << "abc";
    common::BinaryReader reader(buffer);
    EXPECT_EQ(reader.ReadString().status().code(),
              common::StatusCode::kIoError);
  }
}

// A shape whose rows * cols wraps around to the payload size (2^63 + 3 rows
// of 2 columns over 6 values) is corrupt.
TEST(BinaryArchiveTest, MatrixShapeThatWrapsAroundIsRejected) {
  std::stringstream buffer;
  common::BinaryWriter writer(buffer);
  writer.WriteUint64((uint64_t{1} << 63) + 3);
  writer.WriteUint64(2);
  writer.WriteDoubleVector({1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  common::BinaryReader reader(buffer);
  EXPECT_EQ(linalg::ReadMatrix(reader).status().code(),
            common::StatusCode::kInvalidArgument);
}

// Payloads larger than one read chunk come back whole, in order.
TEST(BinaryArchiveTest, MultiChunkPayloadsRoundTrip) {
  std::vector<double> doubles(300'001);
  std::vector<int32_t> ints(600'001);
  std::string text(3'000'001, ' ');
  for (size_t i = 0; i < doubles.size(); ++i) {
    doubles[i] = static_cast<double>(i) * 0.5;
  }
  for (size_t i = 0; i < ints.size(); ++i) ints[i] = static_cast<int32_t>(i);
  for (size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<char>('a' + i % 26);
  }
  std::stringstream buffer;
  common::BinaryWriter writer(buffer);
  writer.WriteDoubleVector(doubles);
  writer.WriteInt32Vector(ints);
  writer.WriteString(text);
  ASSERT_TRUE(writer.status().ok());
  common::BinaryReader reader(buffer);
  EXPECT_EQ(reader.ReadDoubleVector().ValueOrDie(), doubles);
  EXPECT_EQ(reader.ReadInt32Vector().ValueOrDie(), ints);
  EXPECT_EQ(reader.ReadString().ValueOrDie(), text);
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
/// 0.5 with leaves 0.25 (left) and `right_leaf` (right).
void WriteStump(common::BinaryWriter& writer, int32_t feature,
                double right_leaf = 0.75) {
  writer.WriteInt32Vector({feature, -1, -1});
  writer.WriteInt32Vector({1, -1, -1});
  writer.WriteInt32Vector({2, -1, -1});
  writer.WriteDoubleVector({0.5, 0.0, 0.0});
  writer.WriteDoubleVector({0.5, 0.25, right_leaf});
}

/// Save bytes of a predictor trained on synthetic two-class statistics
/// over the percentile grid `points` (DefaultPercentilePoints() when empty;
/// feature dimension 2 * |grid|); `calibrated` adds quantile-forest
/// conformal calibration.
std::string SmallPredictorBytes(bool calibrated = false,
                                std::vector<double> points = {}) {
  core::PerformancePredictor::Options options;
  options.tree_count_grid = {3};
  options.conformal_calibration = calibrated;
  options.conformal_mode = core::ConformalCalibrator::Mode::kQuantileForest;
  options.percentile_points = std::move(points);
  core::PerformancePredictor predictor(options);
  const size_t width = 2 * predictor.percentile_points().size();
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
std::string WithStumpForest(std::string predictor_bytes, int32_t feature,
                            double right_leaf = 0.75) {
  predictor_bytes.resize(predictor_bytes.find("BBVRF"));
  std::ostringstream out;
  common::BinaryWriter writer(out);
  writer.WriteMagic("BBVRF", 1);
  writer.WriteUint64(1);
  WriteStump(writer, feature, right_leaf);
  return predictor_bytes + out.str();
}

// A non-finite leaf used to load and then be served, with an OK status, as
// a NaN/Inf estimate of every batch that reached it.
TEST(PredictorSerializationTest, LoadRejectsNonFiniteLeafValues) {
  const std::string trained = SmallPredictorBytes();
  for (const double leaf : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()}) {
    std::istringstream in(WithStumpForest(trained, 0, leaf));
    EXPECT_EQ(core::PerformancePredictor::Load(in).status().code(),
              common::StatusCode::kInvalidArgument)
        << leaf;
  }
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
  options.predictor.corruptions_per_generator = 40;
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

/// The percentile grid of the crafted validator archives below.
const std::vector<double> kStumpValidatorGrid = {25.0, 50.0, 75.0};

/// A validator archive over kStumpValidatorGrid with KS and predictor
/// features and two retained output columns, so its decision features are
/// 2 * 3 + 2 * 2 + 2 = 12 wide. The decision model is a two-class GBT of
/// stumps splitting on `feature`.
std::string ValidatorWithStumpsOn(const std::string& predictor_bytes,
                                  int32_t feature) {
  std::ostringstream out;
  common::BinaryWriter writer(out);
  writer.WriteMagic("BBVPV", 1);
  writer.WriteDouble(0.05);  // threshold
  writer.WriteInt32(static_cast<int32_t>(core::ScoreMetric::kAccuracy));
  writer.WriteDoubleVector(kStumpValidatorGrid);
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
  const std::string predictor = SmallPredictorBytes(false, kStumpValidatorGrid);
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

// A batch the decision features cannot be built from used to abort (no
// rows) or read past the retained outputs (more class columns).
TEST(ValidatorSerializationTest, ValidateRejectsMalformedBatches) {
  std::istringstream in(ValidatorWithStumpsOn(
      SmallPredictorBytes(false, kStumpValidatorGrid), 11));
  const auto validator = core::PerformanceValidator::Load(in);
  ASSERT_TRUE(validator.ok()) << validator.status().ToString();
  const linalg::Matrix three_classes(2, 3, {0.2, 0.3, 0.5, 0.6, 0.3, 0.1});
  EXPECT_EQ(validator->ValidateFromProba(three_classes).status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(validator->ValidateFromProba(linalg::Matrix(0, 2)).status().code(),
            common::StatusCode::kInvalidArgument);
  // A NaN in the batch used to stall the KS features' merge loop forever
  // (this target's ctest TIMEOUT turns that into a failure); an Inf was
  // sorted into the percentile features.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    const linalg::Matrix poisoned(3, 2, {0.8, 0.2, bad, 0.6, 0.7, 0.3});
    EXPECT_EQ(validator->ValidateFromProba(poisoned).status().code(),
              common::StatusCode::kInvalidArgument)
        << bad;
  }
}

// The validator's percentile features and its predictor's estimate must be
// built on one grid; an archive whose header and embedded predictor
// disagree is corrupt.
TEST(ValidatorSerializationTest, LoadRejectsPredictorOnAnotherGrid) {
  std::istringstream in(ValidatorWithStumpsOn(SmallPredictorBytes(), 11));
  EXPECT_EQ(core::PerformanceValidator::Load(in).status().code(),
            common::StatusCode::kInvalidArgument);
}

// A validator on a non-default grid used to save bytes its own Load
// refused: the internal predictor was trained on the custom grid's
// statistics but kept the default grid, so its archive failed the feature
// dimension check (and every in-process estimate failed silently).
TEST(ValidatorSerializationTest, CustomGridDecisionsSurviveRoundTrip) {
  common::Rng rng(6);
  data::Dataset dataset = datasets::MakeIncome(1500, rng);
  auto [source, serving] = data::TrainTestSplit(dataset, 0.7, rng);
  auto [train, test] = data::TrainTestSplit(source, 0.7, rng);
  ml::BlackBoxModel model(std::make_unique<ml::SgdLogisticRegression>());
  ASSERT_TRUE(model.Train(train, rng).ok());

  core::PerformanceValidator::Options options;
  options.predictor.percentile_points = {10.0, 50.0, 90.0};
  options.predictor.corruptions_per_generator = 30;
  core::PerformanceValidator validator(options);
  const errors::MissingValues missing;
  ASSERT_TRUE(validator.Train(model, test, {&missing}, rng).ok());

  std::stringstream buffer;
  ASSERT_TRUE(validator.Save(buffer).ok());
  const auto restored = core::PerformanceValidator::Load(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (int round = 0; round < 5; ++round) {
    common::Rng corrupt_rng(200 + round);
    const auto corrupted =
        missing.Corrupt(serving.features, corrupt_rng).ValueOrDie();
    const auto proba = model.PredictProba(corrupted).ValueOrDie();
    const auto before = validator.ValidateFromProba(proba);
    const auto after = restored->ValidateFromProba(proba);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(*before, *after);
  }
}

// ---------------------------------------------------------------------------
// Quantile sketch bank
// ---------------------------------------------------------------------------

/// Peak resident set of this process in KiB (a high-water mark).
long PeakRssKib() {
  rusage usage{};
  EXPECT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  return usage.ru_maxrss;
}

// A declared column count must not allocate a 4097-cell grid per column
// (136 MiB here) before the sketches arrive.
TEST(SketchBankSerializationTest, DeclaredColumnsBeyondStreamFailFast) {
  std::ostringstream out;
  common::BinaryWriter writer(out);
  writer.WriteMagic("BBVQB", 1);
  writer.WriteInt32(12);
  writer.WriteDouble(0.0);
  writer.WriteDouble(1.0);
  writer.WriteUint64(0);     // rows
  writer.WriteUint64(4096);  // columns, none of which follow
  const long before = PeakRssKib();
  std::istringstream in(out.str());
  EXPECT_FALSE(stats::QuantileSketchBank::Load(in).ok());
  EXPECT_LT(PeakRssKib() - before, 64 * 1024);
}

// ---------------------------------------------------------------------------
// Decision-tree classifier
// ---------------------------------------------------------------------------

/// CART bytes in DecisionTreeClassifier::Save's layout, declaring `count`
/// nodes: a two-class root split on `feature` at `threshold` with children
/// `left` and `right`, then two leaves.
std::string CartBytes(int32_t feature, double threshold, int32_t left,
                      int32_t right, uint64_t count = 3) {
  std::ostringstream out;
  common::BinaryWriter writer(out);
  writer.WriteMagic("BBVCT", 1);
  writer.WriteInt32(2);
  writer.WriteUint64(count);
  writer.WriteInt32(feature);
  writer.WriteDouble(threshold);
  writer.WriteInt32(left);
  writer.WriteInt32(right);
  writer.WriteDoubleVector({0.5, 0.5});
  for (const double first : {1.0, 0.0}) {
    writer.WriteInt32(-1);
    writer.WriteDouble(0.0);
    writer.WriteInt32(-1);
    writer.WriteInt32(-1);
    writer.WriteDoubleVector({first, 1.0 - first});
  }
  return out.str();
}

common::Result<ml::DecisionTreeClassifier> LoadCart(const std::string& bytes) {
  std::istringstream in(bytes);
  return ml::DecisionTreeClassifier::Load(in);
}

TEST(CartSerializationTest, CraftedStumpLoadsAndPredicts) {
  const auto tree = LoadCart(CartBytes(1, 0.5, 1, 2));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const linalg::Matrix rows(2, 2, {9.0, 0.25, 9.0, 0.75});
  EXPECT_EQ(tree->PredictProba(rows).data(),
            (std::vector<double>{1.0, 0.0, 0.0, 1.0}));
}

// A child must come after its parent: one pointing back at (or before) it
// would make PredictProba walk a cycle forever.
TEST(CartSerializationTest, LoadRejectsCycles) {
  for (const auto& [left, right] :
       {std::pair{0, 2}, std::pair{1, 0}, std::pair{-1, 2}, std::pair{1, 3}}) {
    EXPECT_EQ(LoadCart(CartBytes(0, 0.5, left, right)).status().code(),
              common::StatusCode::kInvalidArgument)
        << "children " << left << ", " << right;
  }
}

TEST(CartSerializationTest, LoadRejectsNonFiniteThreshold) {
  for (const double threshold : {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(LoadCart(CartBytes(0, threshold, 1, 2)).status().code(),
              common::StatusCode::kInvalidArgument);
  }
}

// A declared node count (up to 1e8) must not be allocated before the nodes
// arrive.
TEST(CartSerializationTest, DeclaredNodeCountBeyondStreamFails) {
  EXPECT_EQ(LoadCart(CartBytes(0, 0.5, 1, 2, 99'999'999)).status().code(),
            common::StatusCode::kIoError);
}

// A split on a feature the batch does not have fails the width check
// instead of reading past the row.
TEST(CartSerializationTest, PredictProbaChecksSplitFeatureAgainstWidth) {
  const auto tree = LoadCart(CartBytes(1, 0.5, 1, 2));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const linalg::Matrix narrow(1, 1, {0.25});
  EXPECT_DEATH(tree->PredictProba(narrow), "reads feature 1");
}

// ---------------------------------------------------------------------------
// Mutation sweep: every small artifact format, every single-byte corruption
// ---------------------------------------------------------------------------

/// Probe batch the sweep runs loaded models on: 3 feature columns, the
/// width every swept model was trained on.
linalg::Matrix ProbeFeatures() {
  linalg::Matrix probe(4, 3);
  for (size_t i = 0; i < probe.rows(); ++i) {
    for (size_t j = 0; j < probe.cols(); ++j) {
      probe.At(i, j) =
          0.3 * static_cast<double>(i) - 0.2 * static_cast<double>(j);
    }
  }
  return probe;
}

/// 60 rows over 3 features with a two-class label and a real target.
void SweepTrainingData(linalg::Matrix& features, std::vector<int>& labels,
                       std::vector<double>& targets) {
  common::Rng rng(21);
  features = linalg::Matrix(60, 3);
  labels.resize(60);
  targets.resize(60);
  for (size_t i = 0; i < 60; ++i) {
    for (size_t j = 0; j < 3; ++j) features.At(i, j) = rng.Uniform();
    labels[i] = features.At(i, 0) + features.At(i, 1) > 1.0 ? 1 : 0;
    targets[i] = features.At(i, 0) - 0.5 * features.At(i, 2);
  }
}

/// Loads every single-byte corruption of `bytes` through `load`, which
/// returns whether the artifact loaded (and exercises a loaded model):
/// truncation at every offset, then per byte XOR 0x01 and 0x80 and
/// overwrites with 0xFF, 0x7F and 0x40. Each must come back as a model or a
/// Status, never a crash, hang or declared-size allocation (run under the
/// sanitizers and the ctest timeout); no truncation may load.
template <typename Load>
void SweepMutations(const std::string& bytes, const Load& load) {
  ASSERT_TRUE(load(bytes)) << "the unmutated artifact must load";
  for (size_t size = 0; size < bytes.size(); ++size) {
    EXPECT_FALSE(load(bytes.substr(0, size))) << "truncated to " << size;
  }
  std::string mutated = bytes;
  for (size_t i = 0; i < bytes.size(); ++i) {
    const auto original = static_cast<unsigned char>(bytes[i]);
    for (const unsigned value :
         {original ^ 0x01u, original ^ 0x80u, 0xFFu, 0x7Fu, 0x40u}) {
      mutated[i] = static_cast<char>(value);
      load(mutated);
    }
    mutated[i] = bytes[i];
  }
}

TEST(MutationSweepTest, RandomForest) {
  linalg::Matrix features;
  std::vector<int> labels;
  std::vector<double> targets;
  SweepTrainingData(features, labels, targets);
  ml::RandomForestRegressor::Options options;
  options.num_trees = 3;
  options.tree.max_depth = 2;
  ml::RandomForestRegressor forest(options);
  common::Rng rng(1);
  ASSERT_TRUE(forest.Fit(features, targets, rng).ok());
  std::ostringstream out;
  ASSERT_TRUE(forest.Save(out).ok());
  const linalg::Matrix probe = ProbeFeatures();
  SweepMutations(out.str(), [&](const std::string& bytes) {
    std::istringstream in(bytes);
    const auto loaded = ml::RandomForestRegressor::Load(in);
    if (!loaded.ok()) return false;
    if (loaded->kernel().max_feature() < static_cast<int32_t>(probe.cols())) {
      std::vector<double> predictions(probe.rows());
      loaded->PredictInto(probe, predictions);
    }
    return true;
  });
}

TEST(MutationSweepTest, GradientBoostedTrees) {
  linalg::Matrix features;
  std::vector<int> labels;
  std::vector<double> targets;
  SweepTrainingData(features, labels, targets);
  ml::GradientBoostedTrees::Options options;
  options.num_rounds = 2;
  options.tree.max_depth = 2;
  ml::GradientBoostedTrees model(options);
  common::Rng rng(2);
  ASSERT_TRUE(model.Fit(features, labels, 2, rng).ok());
  std::ostringstream out;
  ASSERT_TRUE(model.Save(out).ok());
  const linalg::Matrix probe = ProbeFeatures();
  SweepMutations(out.str(), [&](const std::string& bytes) {
    std::istringstream in(bytes);
    const auto loaded = ml::GradientBoostedTrees::Load(in);
    if (!loaded.ok()) return false;
    if (loaded->kernel().max_feature() < static_cast<int32_t>(probe.cols())) {
      EXPECT_EQ(loaded->PredictProba(probe).rows(), probe.rows());
    }
    return true;
  });
}

TEST(MutationSweepTest, DecisionTreeClassifier) {
  linalg::Matrix features;
  std::vector<int> labels;
  std::vector<double> targets;
  SweepTrainingData(features, labels, targets);
  ml::TreeOptions options;
  options.max_depth = 2;
  ml::DecisionTreeClassifier tree(options);
  common::Rng rng(3);
  ASSERT_TRUE(tree.Fit(features, labels, 2, rng).ok());
  std::ostringstream out;
  ASSERT_TRUE(tree.Save(out).ok());
  // Load only: a loaded tree splitting past the probe's width fails the
  // PredictProba width check by contract (see the test above).
  SweepMutations(out.str(),
                 [](const std::string& bytes) { return LoadCart(bytes).ok(); });
}

TEST(MutationSweepTest, LogisticRegression) {
  linalg::Matrix features;
  std::vector<int> labels;
  std::vector<double> targets;
  SweepTrainingData(features, labels, targets);
  ml::SgdLogisticRegression::Options options;
  options.epochs = 2;
  ml::SgdLogisticRegression model(options);
  common::Rng rng(4);
  ASSERT_TRUE(model.Fit(features, labels, 2, rng).ok());
  std::ostringstream out;
  ASSERT_TRUE(model.Save(out).ok());
  const linalg::Matrix probe = ProbeFeatures();
  SweepMutations(out.str(), [&](const std::string& bytes) {
    std::istringstream in(bytes);
    const auto loaded = ml::SgdLogisticRegression::Load(in);
    if (!loaded.ok()) return false;
    if (loaded->weights().rows() == probe.cols()) {
      EXPECT_EQ(loaded->PredictProba(probe).rows(), probe.rows());
    }
    return true;
  });
}

TEST(MutationSweepTest, FeedForwardNetwork) {
  linalg::Matrix features;
  std::vector<int> labels;
  std::vector<double> targets;
  SweepTrainingData(features, labels, targets);
  ml::FeedForwardNetwork::Options options;
  options.hidden_sizes = {3};
  options.epochs = 1;
  ml::FeedForwardNetwork model(options);
  common::Rng rng(5);
  ASSERT_TRUE(model.Fit(features, labels, 2, rng).ok());
  std::ostringstream out;
  ASSERT_TRUE(model.Save(out).ok());
  SweepMutations(out.str(), [](const std::string& bytes) {
    std::istringstream in(bytes);
    return ml::FeedForwardNetwork::Load(in).ok();
  });
}

TEST(MutationSweepTest, QuantileSketchBank) {
  stats::QuantileSketch::Options options;
  options.resolution_bits = 6;
  stats::QuantileSketchBank bank(2, options);
  const linalg::Matrix batch(4, 2, {0.1, 0.9, 0.3, 0.7, 0.6, 0.4, 0.8, 0.2});
  ASSERT_TRUE(bank.Observe(batch).ok());
  std::ostringstream out;
  ASSERT_TRUE(bank.Save(out).ok());
  const std::vector<double> points = core::DefaultPercentilePoints();
  SweepMutations(out.str(), [&](const std::string& bytes) {
    std::istringstream in(bytes);
    const auto loaded = stats::QuantileSketchBank::Load(in);
    if (!loaded.ok()) return false;
    if (loaded->rows_observed() > 0) {
      EXPECT_EQ(loaded->PercentileFeatures(points).size(),
                loaded->num_columns() * points.size());
    }
    return true;
  });
}

/// A 4-row two-class probability batch.
linalg::Matrix ProbeProbabilities() {
  return linalg::Matrix(4, 2, {0.1, 0.9, 0.35, 0.65, 0.6, 0.4, 0.8, 0.2});
}

// Every hot-swap of a loaded predictor runs PerformancePredictor::Load and
// then the swap and estimate paths on what it returned.
TEST(MutationSweepTest, PerformancePredictor) {
  const std::string bytes = SmallPredictorBytes(/*calibrated=*/true);
  std::istringstream original_in(bytes);
  const auto original = std::make_shared<const core::PerformancePredictor>(
      core::PerformancePredictor::Load(original_in).ValueOrDie());
  ASSERT_GT(original->coverage_level(), 0.0);
  const linalg::Matrix batch = ProbeProbabilities();
  serve::StreamingScorer::Options scorer_options;
  scorer_options.resolution_bits = 6;
  core::ModelMonitor::Options monitor_options;
  monitor_options.window_batches = 2;
  monitor_options.sketch_resolution_bits = 6;
  SweepMutations(bytes, [&](const std::string& mutated) {
    std::istringstream in(mutated);
    auto loaded = core::PerformancePredictor::Load(in);
    if (!loaded.ok()) return false;
    const auto predictor =
        std::make_shared<const core::PerformancePredictor>(std::move(*loaded));
    // The service's swap: scorer first, then the tenant's monitor; either
    // may refuse the predictor, and an accepted one must score.
    auto scorer =
        serve::StreamingScorer::Create(original, scorer_options).ValueOrDie();
    EXPECT_TRUE(scorer.Ingest(batch).ok());
    if (scorer.SwapPredictor(predictor).ok()) {
      const auto estimate = scorer.EstimateScore();
      EXPECT_TRUE(estimate.ok() && std::isfinite(estimate->point) &&
                  std::isfinite(estimate->lo) && std::isfinite(estimate->hi))
          << "a loaded predictor served no finite estimate";
      const linalg::Matrix statistics(
          1, predictor->feature_dimension(),
          scorer.PercentileFeatures().ValueOrDie());
      std::vector<core::ScoreEstimate> batched(1);
      EXPECT_TRUE(predictor
                      ->EstimateScoresFromStatistics(
                          statistics, std::span<core::ScoreEstimate>(batched))
                      .ok());
    }
    auto monitor = core::ModelMonitor::CreateForProba("sweep", original,
                                                      monitor_options)
                       .ValueOrDie();
    EXPECT_TRUE(monitor.ObserveWindow(batch).ok());
    if (monitor.SwapPredictor(predictor).ok()) {
      // Rejected (a class count the predictor was not trained on) or
      // scored, never a crash.
      static_cast<void>(monitor.ObserveWindow(batch));
    }
    return true;
  });
}

// Every deployment of a saved validator runs PerformanceValidator::Load and
// then decides on serving batches with what it returned. The artifact is
// the crafted non-degenerate one above (header, retained outputs, a
// calibrated predictor and a two-stump GBT).
TEST(MutationSweepTest, PerformanceValidator) {
  const std::string bytes = ValidatorWithStumpsOn(
      SmallPredictorBytes(/*calibrated=*/true, kStumpValidatorGrid), 11);
  ASSERT_LE(bytes.size(), 4096u);
  const linalg::Matrix batch = ProbeProbabilities();
  SweepMutations(bytes, [&](const std::string& mutated) {
    std::istringstream in(mutated);
    const auto loaded = core::PerformanceValidator::Load(in);
    if (!loaded.ok()) return false;
    // Accepted or rejected with a Status, never a crash.
    static_cast<void>(loaded->ValidateFromProba(batch));
    return true;
  });
}

// Every rehydration of an evicted tenant runs StreamingScorer::LoadState.
TEST(MutationSweepTest, StreamingScorerState) {
  std::istringstream predictor_in(SmallPredictorBytes());
  const auto predictor = std::make_shared<const core::PerformancePredictor>(
      core::PerformancePredictor::Load(predictor_in).ValueOrDie());
  serve::StreamingScorer::Options options;
  options.resolution_bits = 6;
  auto scorer = serve::StreamingScorer::Create(predictor, options).ValueOrDie();
  ASSERT_TRUE(scorer.Ingest(ProbeProbabilities()).ok());
  std::ostringstream out;
  ASSERT_TRUE(scorer.SaveState(out).ok());
  SweepMutations(out.str(), [&](const std::string& bytes) {
    auto rehydrated =
        serve::StreamingScorer::Create(predictor, options).ValueOrDie();
    std::istringstream in(bytes);
    if (!rehydrated.LoadState(in).ok()) return false;
    // Accepted state is canonical and serves: it re-saves to the same
    // bytes, scores when it holds rows, and keeps ingesting.
    std::ostringstream resaved;
    EXPECT_TRUE(rehydrated.SaveState(resaved).ok());
    EXPECT_EQ(resaved.str(), bytes);
    EXPECT_EQ(rehydrated.EstimateScore().ok(),
              rehydrated.rows_ingested() > 0);
    EXPECT_TRUE(rehydrated.Ingest(ProbeProbabilities()).ok());
    EXPECT_TRUE(rehydrated.EstimateScore().ok());
    return true;
  });
}

}  // namespace
}  // namespace bbv
