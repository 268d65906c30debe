// Reproduces Figure 6: performance validation for black box models trained
// by AutoML methods, under mixtures of known shifts and errors.
//
//   auto-sklearn  -> automl::AutoMlTabularSearch(flavor="sklearn") on income
//   TPOT          -> automl::AutoMlTabularSearch(flavor="tpot") on income
//   auto-keras    -> automl::AutoKerasImageSearch on digits
//   large-convnet -> the paper-scale CNN on digits
//
// For each model and threshold in {3%, 5%, 10%} we report the F1 of PPM and
// of the BBSE / BBSE-h / REL baselines (REL is not applicable to the image
// datasets, mirroring the paper).

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "automl/automl_search.h"
#include "bench/bench_util.h"
#include "core/baselines.h"
#include "core/performance_validator.h"
#include "errors/mixture.h"
#include "ml/metrics.h"

namespace bbv::bench {
namespace {

void RunCell(const std::string& automl_name, const std::string& dataset_name,
             const RunConfig& config) {
  common::Rng rng(config.seed);
  const ExperimentData data = PrepareDataset(dataset_name, config, rng);

  std::unique_ptr<ml::BlackBoxModel> model;
  if (automl_name == "auto-sklearn" || automl_name == "TPOT") {
    automl::AutoMlOptions options;
    options.flavor = automl_name == "TPOT" ? "tpot" : "sklearn";
    auto result = automl::AutoMlTabularSearch(data.train, options, rng);
    BBV_CHECK(result.ok()) << result.status().ToString();
    model = std::move(*result);
  } else if (automl_name == "auto-keras") {
    auto result = automl::AutoKerasImageSearch(data.train, rng);
    BBV_CHECK(result.ok()) << result.status().ToString();
    model = std::move(*result);
  } else {
    auto result = automl::MakeLargeConvNet(data.train, rng, /*paper_scale=*/!config.fast);
    BBV_CHECK(result.ok()) << result.status().ToString();
    model = std::move(*result);
  }
  const auto test_accuracy = model->ScoreAccuracy(data.test);
  BBV_CHECK(test_accuracy.ok()) << test_accuracy.status().ToString();

  const bool image_data =
      dataset_name == "digits" || dataset_name == "fashion";
  const errors::RandomSubsetCorruption mixture(
      std::make_shared<errors::ErrorMixture>(image_data ? ImageErrors()
                                                        : KnownTabularErrors()));

  core::BbseDetector bbse(model.get());
  BBV_CHECK(bbse.Fit(data.test.features).ok());
  core::BbsehDetector bbseh(model.get());
  BBV_CHECK(bbseh.Fit(data.test.features).ok());
  core::RelShiftDetector rel;
  const bool rel_applicable = !image_data;
  if (rel_applicable) {
    BBV_CHECK(rel.Fit(data.train.features).ok());
  }

  for (double threshold : {0.03, 0.05, 0.10}) {
    core::PerformanceValidator::Options options;
    options.threshold = threshold;
    options.predictor.corruptions_per_generator =
        (image_data ? 2 : 4) * config.CorruptionsPerGenerator();
    core::PerformanceValidator validator(options);
    const std::vector<const errors::ErrorGen*> training_errors = {&mixture};
    const common::Status status =
        validator.Train(*model, data.test, training_errors, rng);
    BBV_CHECK(status.ok()) << status.ToString();

    std::vector<int> truth;
    std::vector<int> ppm_alarm;
    std::vector<int> bbse_alarm;
    std::vector<int> bbseh_alarm;
    std::vector<int> rel_alarm;
    for (int repetition = 0; repetition < config.ServingRepetitions();
         ++repetition) {
      auto corrupted = mixture.Corrupt(data.serving.features, rng);
      BBV_CHECK(corrupted.ok()) << corrupted.status().ToString();
      auto probabilities = model->PredictProba(*corrupted);
      BBV_CHECK(probabilities.ok()) << probabilities.status().ToString();
      const double true_accuracy = core::ComputeScore(
          core::ScoreMetric::kAccuracy, *probabilities, data.serving.labels);
      truth.push_back(
          true_accuracy < (1.0 - threshold) * *test_accuracy ? 1 : 0);
      auto accepted = validator.ValidateFromProba(*probabilities);
      BBV_CHECK(accepted.ok()) << accepted.status().ToString();
      ppm_alarm.push_back(*accepted ? 0 : 1);
      auto bbse_detects = bbse.DetectsShiftFromProba(*probabilities);
      BBV_CHECK(bbse_detects.ok());
      bbse_alarm.push_back(*bbse_detects ? 1 : 0);
      auto bbseh_detects = bbseh.DetectsShiftFromProba(*probabilities);
      BBV_CHECK(bbseh_detects.ok());
      bbseh_alarm.push_back(*bbseh_detects ? 1 : 0);
      if (rel_applicable) {
        auto rel_detects = rel.DetectsShift(*corrupted);
        BBV_CHECK(rel_detects.ok());
        rel_alarm.push_back(*rel_detects ? 1 : 0);
      }
    }
    std::printf(
        "automl=%-13s dataset=%-6s t=%.2f clean_acc=%.3f "
        "F1{PPM=%.3f BBSE=%.3f BBSE-h=%.3f REL=%s}\n",
        automl_name.c_str(), dataset_name.c_str(), threshold, *test_accuracy,
        ml::F1Score(ppm_alarm, truth), ml::F1Score(bbse_alarm, truth),
        ml::F1Score(bbseh_alarm, truth),
        rel_applicable
            ? std::to_string(ml::F1Score(rel_alarm, truth)).substr(0, 5).c_str()
            : "n/a");
    std::fflush(stdout);
  }
}

void Run(const RunConfig& config) {
  PrintHeader("Figure 6",
              "performance validation for AutoML-trained black box models "
              "under mixtures of known shifts and errors",
              config);
  RunCell("auto-sklearn", "income", config);
  RunCell("TPOT", "income", config);
  RunCell("auto-keras", "digits", config);
  RunCell("large-convnet", "digits", config);
}

}  // namespace
}  // namespace bbv::bench

int main(int argc, char** argv) {
  const bbv::bench::RunConfig config = bbv::bench::ParseArgs(argc, argv);
  bbv::bench::Run(config);
  bbv::bench::MaybeWriteTelemetryJson(config);
  return 0;
}
