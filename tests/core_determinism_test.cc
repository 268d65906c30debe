// Regression tests for the determinism contract of the parallel subsystem:
// training the same model from the same seed must produce byte-identical
// serialized output (and identical estimates) whether BBV_THREADS is 1 or 8.
// The serial path is the reference; any divergence means a parallel call
// site depends on execution order or shares an Rng across tasks.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/performance_predictor.h"
#include "core/performance_validator.h"
#include "datasets/tabular.h"
#include "errors/missing_values.h"
#include "errors/numeric_errors.h"
#include "ml/black_box.h"
#include "ml/random_forest.h"
#include "ml/sgd_logistic_regression.h"

namespace bbv::core {
namespace {

/// Sets BBV_THREADS for one scope and restores the previous value after.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* previous = std::getenv("BBV_THREADS");
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
    ::setenv("BBV_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (had_previous_) {
      ::setenv("BBV_THREADS", previous_.c_str(), 1);
    } else {
      ::unsetenv("BBV_THREADS");
    }
  }
  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  bool had_previous_ = false;
  std::string previous_;
};

// Fnv1aHash of the serial Save bytes of the two Train fixtures below,
// recorded before the predictor and the validator shared one collection
// pass.
constexpr uint64_t kPinnedPredictorDigest = 0xa49ca8bd812485a2ULL;
constexpr uint64_t kPinnedValidatorDigest = 0xcf83678e97519c60ULL;
// ... and of CollectionPassVariantsArePinned's two fixtures.
constexpr uint64_t kPinnedSubsampledPredictorDigest = 0x2d6d56d83493887fULL;
constexpr uint64_t kPinnedFullBatchValidatorDigest = 0x68648cdae06f4fc1ULL;

struct Fixture {
  data::Dataset train;
  data::Dataset test;
  data::Dataset serving;
  std::unique_ptr<ml::BlackBoxModel> model;
};

Fixture MakeFixture(common::Rng& rng, size_t rows) {
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

TEST(DeterminismTest, RandomForestSerializesIdenticallyAcrossThreadCounts) {
  common::Rng data_rng(11);
  linalg::Matrix features(600, 3);
  std::vector<double> targets(600);
  for (size_t i = 0; i < 600; ++i) {
    features.At(i, 0) = data_rng.Uniform(0.0, 1.0);
    features.At(i, 1) = data_rng.Uniform(0.0, 1.0);
    features.At(i, 2) = data_rng.Uniform(0.0, 1.0);
    targets[i] = 2.0 * features.At(i, 0) + features.At(i, 1) +
                 data_rng.Gaussian(0.0, 0.05);
  }

  auto serialized_at = [&](const char* threads) {
    ScopedThreadsEnv env(threads);
    ml::RandomForestRegressor::Options options;
    options.num_trees = 16;
    ml::RandomForestRegressor forest(options);
    common::Rng rng(77);
    BBV_CHECK(forest.Fit(features, targets, rng).ok());
    std::ostringstream out;
    BBV_CHECK(forest.Save(out).ok());
    return out.str();
  };

  const std::string serial = serialized_at("1");
  const std::string threaded = serialized_at("8");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded)
      << "forest bytes diverge between 1 and 8 threads";
}

TEST(DeterminismTest, PredictorSerializesIdenticallyAcrossThreadCounts) {
  const errors::MissingValues missing;
  const errors::NumericOutliers outliers;
  const std::vector<const errors::ErrorGen*> generators = {&missing,
                                                           &outliers};

  auto run_at = [&](const char* threads) {
    ScopedThreadsEnv env(threads);
    common::Rng rng(42);
    Fixture fixture = MakeFixture(rng, 1200);
    PerformancePredictor::Options options;
    options.corruptions_per_generator = 10;
    options.tree_count_grid = {10, 20};
    PerformancePredictor predictor(options);
    BBV_CHECK(
        predictor.Train(*fixture.model, fixture.test, generators, rng).ok());
    std::ostringstream out;
    BBV_CHECK(predictor.Save(out).ok());
    const ScoreEstimate estimate =
        predictor.EstimateScore(*fixture.model, fixture.serving.features)
            .ValueOrDie();
    return std::make_pair(out.str(), estimate);
  };

  const auto [serial_bytes, serial_estimate] = run_at("1");
  const auto [threaded_bytes, threaded_estimate] = run_at("8");
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, threaded_bytes)
      << "predictor bytes diverge between 1 and 8 threads";
  // Identical bytes should imply identical estimates; assert both anyway so
  // a failure pinpoints whether inference (not training) diverged.
  EXPECT_EQ(serial_estimate, threaded_estimate);  // bbv-lint: allow(float-eq)
  // Pins the whole of Algorithm 1 through Train (collection pass, forest
  // fit, calibration), not only the thread-count invariance: a refactor of
  // the collection loop must reproduce these bytes.
  EXPECT_EQ(common::Fnv1aHash(serial_bytes), kPinnedPredictorDigest);
}

TEST(DeterminismTest, ValidatorSerializesIdenticallyAcrossThreadCounts) {
  const errors::MissingValues missing;
  const std::vector<const errors::ErrorGen*> generators = {&missing};

  auto run_at = [&](const char* threads) {
    ScopedThreadsEnv env(threads);
    common::Rng rng(99);
    Fixture fixture = MakeFixture(rng, 1200);
    PerformanceValidator::Options options;
    options.predictor.corruptions_per_generator = 8;
    options.predictor.meta_batch_size = 100;
    PerformanceValidator validator(options);
    BBV_CHECK(
        validator.Train(*fixture.model, fixture.test, generators, rng).ok());
    std::ostringstream out;
    BBV_CHECK(validator.Save(out).ok());
    return out.str();
  };

  const std::string serial = run_at("1");
  const std::string threaded = run_at("8");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded)
      << "validator bytes diverge between 1 and 8 threads";
  EXPECT_EQ(common::Fnv1aHash(serial), kPinnedValidatorDigest);
}

// The two collection-pass variants the fixtures above leave out: a
// predictor meta-trained on row subsets, and a validator meta-trained on its
// whole example half.
TEST(DeterminismTest, CollectionPassVariantsArePinned) {
  const errors::MissingValues missing;
  const std::vector<const errors::ErrorGen*> generators = {&missing};

  common::Rng predictor_rng(7);
  Fixture predictor_fixture = MakeFixture(predictor_rng, 1200);
  PerformancePredictor::Options predictor_options;
  predictor_options.corruptions_per_generator = 8;
  predictor_options.meta_batch_size = 100;
  predictor_options.tree_count_grid = {10};
  PerformancePredictor predictor(predictor_options);
  ASSERT_TRUE(predictor
                  .Train(*predictor_fixture.model, predictor_fixture.test,
                         generators, predictor_rng)
                  .ok());
  std::ostringstream predictor_bytes;
  ASSERT_TRUE(predictor.Save(predictor_bytes).ok());
  EXPECT_EQ(common::Fnv1aHash(predictor_bytes.str()),
            kPinnedSubsampledPredictorDigest);

  common::Rng validator_rng(8);
  Fixture validator_fixture = MakeFixture(validator_rng, 1200);
  PerformanceValidator::Options validator_options;
  validator_options.predictor.corruptions_per_generator = 8;
  PerformanceValidator validator(validator_options);
  ASSERT_TRUE(validator
                  .Train(*validator_fixture.model, validator_fixture.test,
                         generators, validator_rng)
                  .ok());
  std::ostringstream validator_bytes;
  ASSERT_TRUE(validator.Save(validator_bytes).ok());
  EXPECT_EQ(common::Fnv1aHash(validator_bytes.str()),
            kPinnedFullBatchValidatorDigest);
}

}  // namespace
}  // namespace bbv::core
