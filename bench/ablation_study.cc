// Ablation benches for the design choices DESIGN.md calls out (not a paper
// figure; engineering validation of the reproduction):
//
//   A1 percentile grid granularity — how coarse can the output statistics
//      get before the predictor's MAE degrades (21 / 11 / 5 / 1 points)?
//   A2 regression model — random forest (paper) vs a single CART.
//   A3 clean copies — does mixing uncorrupted copies of D_test into the
//      meta-training set (the p_err = 0 case) matter?
//   A4 validator features — full feature set vs dropping the KS-test
//      features vs dropping the internal predictor estimate.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/performance_predictor.h"
#include "core/performance_validator.h"
#include "errors/mixture.h"
#include "ml/metrics.h"
#include "stats/descriptive.h"

namespace bbv::bench {
namespace {

double PredictorMae(const ml::BlackBox& model, const data::Dataset& test,
                    const data::Dataset& serving,
                    const errors::ErrorGen& mixture,
                    const core::PerformancePredictor::Options& options,
                    int repetitions, common::Rng& rng) {
  core::PerformancePredictor predictor(options);
  const std::vector<const errors::ErrorGen*> generators = {&mixture};
  const common::Status status = predictor.Train(model, test, generators, rng);
  BBV_CHECK(status.ok()) << status.ToString();
  std::vector<double> absolute_errors;
  for (int repetition = 0; repetition < repetitions; ++repetition) {
    auto corrupted = mixture.Corrupt(serving.features, rng);
    BBV_CHECK(corrupted.ok());
    auto probabilities = model.PredictProba(*corrupted);
    BBV_CHECK(probabilities.ok());
    const double truth = core::ComputeScore(core::ScoreMetric::kAccuracy,
                                            *probabilities, serving.labels);
    auto estimate = predictor.EstimateScoreFromProba(*probabilities);
    BBV_CHECK(estimate.ok());
    absolute_errors.push_back(std::abs(estimate->point - truth));
  }
  return stats::Mean(absolute_errors);
}

double ValidatorF1(const ml::BlackBox& model, const data::Dataset& test,
                   const data::Dataset& serving,
                   const errors::ErrorGen& mixture,
                   const core::PerformanceValidator::Options& options,
                   int repetitions, common::Rng& rng) {
  core::PerformanceValidator validator(options);
  const std::vector<const errors::ErrorGen*> generators = {&mixture};
  const common::Status status = validator.Train(model, test, generators, rng);
  BBV_CHECK(status.ok()) << status.ToString();
  std::vector<int> truth;
  std::vector<int> alarm;
  for (int repetition = 0; repetition < repetitions; ++repetition) {
    auto corrupted = mixture.Corrupt(serving.features, rng);
    BBV_CHECK(corrupted.ok());
    auto probabilities = model.PredictProba(*corrupted);
    BBV_CHECK(probabilities.ok());
    const double true_accuracy = core::ComputeScore(
        core::ScoreMetric::kAccuracy, *probabilities, serving.labels);
    truth.push_back(true_accuracy < (1.0 - options.threshold) *
                                        validator.test_score()
                        ? 1
                        : 0);
    auto accepted = validator.ValidateFromProba(*probabilities);
    BBV_CHECK(accepted.ok());
    alarm.push_back(*accepted ? 0 : 1);
  }
  return ml::F1Score(alarm, truth);
}

std::vector<double> PercentileGrid(int step) {
  std::vector<double> points;
  for (int q = 0; q <= 100; q += step) points.push_back(q);
  return points;
}

void Run(const RunConfig& config) {
  PrintHeader("Ablation study",
              "design-choice ablations for the performance predictor and "
              "validator (income, xgb, mixture of known errors)",
              config);
  common::Rng rng(config.seed);
  const ExperimentData data = PrepareDataset("income", config, rng);
  const auto model = TrainBlackBox("xgb", data.train, config, rng);
  const errors::ErrorMixture mixture(KnownTabularErrors());
  const int corruption_budget = 4 * config.CorruptionsPerGenerator();
  const int repetitions = config.ServingRepetitions();

  // A1: percentile grid granularity.
  for (int step : {5, 10, 25, 50}) {
    core::PerformancePredictor::Options options;
    options.corruptions_per_generator = corruption_budget;
    options.percentile_points = PercentileGrid(step);
    const double mae = PredictorMae(*model, data.test, data.serving, mixture,
                                    options, repetitions, rng);
    std::printf("A1 percentile_step=%-3d points=%-3zu mae=%.4f\n", step,
                options.percentile_points.size(), mae);
  }

  // A2: random forest vs a single tree.
  for (int trees : {1, 10, 100}) {
    core::PerformancePredictor::Options options;
    options.corruptions_per_generator = corruption_budget;
    options.tree_count_grid = {trees};
    const double mae = PredictorMae(*model, data.test, data.serving, mixture,
                                    options, repetitions, rng);
    std::printf("A2 regressor_trees=%-4d mae=%.4f\n", trees, mae);
  }

  // A3: clean copies of D_test in the meta-training set.
  for (int clean : {0, 5, 20}) {
    core::PerformancePredictor::Options options;
    options.corruptions_per_generator = corruption_budget;
    options.clean_copies = clean;
    const double mae = PredictorMae(*model, data.test, data.serving, mixture,
                                    options, repetitions, rng);
    std::printf("A3 clean_copies=%-3d mae=%.4f\n", clean, mae);
  }

  // A4: validator feature ablation at the 5% threshold.
  struct FeatureConfig {
    const char* name;
    bool ks;
    bool predictor;
  };
  for (const FeatureConfig& fc :
       {FeatureConfig{"full", true, true},
        FeatureConfig{"no_ks_tests", false, true},
        FeatureConfig{"no_predictor", true, false},
        FeatureConfig{"percentiles_only", false, false}}) {
    core::PerformanceValidator::Options options;
    options.threshold = 0.05;
    options.predictor.corruptions_per_generator = corruption_budget;
    options.use_ks_features = fc.ks;
    options.use_predictor_feature = fc.predictor;
    const double f1 = ValidatorF1(*model, data.test, data.serving, mixture,
                                  options, repetitions, rng);
    std::printf("A4 validator_features=%-17s f1=%.3f\n", fc.name, f1);
  }
  std::fflush(stdout);
}

}  // namespace
}  // namespace bbv::bench

int main(int argc, char** argv) {
  bbv::bench::Run(bbv::bench::ParseArgs(argc, argv));
  return 0;
}
