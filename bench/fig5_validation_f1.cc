// Reproduces Figure 5 (a-c) and the §6.2.1 experiment: F1 scores of the
// performance validator (PPM) against the task-independent baselines
// (BBSE, BBSE-h, REL) for acceptable-drop thresholds of 3% / 5% / 10% on
// {income, heart, bank} x {lr, xgb, dnn}.
//
// The validator is always meta-trained on randomly chosen mixtures of the
// four *known* error types (missing values, outliers, swapped columns,
// scaling). Evaluation runs in two regimes:
//   regime=known    serving data corrupted by mixtures of the same types
//                   (§6.2.1)
//   regime=unknown  serving data corrupted by mixtures of three error types
//                   never seen in training: categorical typos, numeric
//                   smearing, sign flips (§6.2.2, Figure 5)
//
// Positive class for the F1 computation: "quality drop exceeds the
// threshold" (an alarm should be raised). A shift detected by a baseline is
// interpreted as an alarm.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/baselines.h"
#include "core/performance_validator.h"
#include "errors/mixture.h"
#include "ml/metrics.h"

namespace bbv::bench {
namespace {

struct RegimeResult {
  double ppm = 0.0;
  double bbse = 0.0;
  double bbseh = 0.0;
  double rel = 0.0;
  double violation_rate = 0.0;
};

RegimeResult EvaluateRegime(const ml::BlackBox& model,
                            const core::PerformanceValidator& validator,
                            const core::BbseDetector& bbse,
                            const core::BbsehDetector& bbseh,
                            const core::RelShiftDetector& rel,
                            const errors::ErrorGen& serving_errors,
                            const data::Dataset& serving, double test_score,
                            double threshold, int repetitions,
                            common::Rng& rng) {
  std::vector<int> truth;
  std::vector<int> ppm_alarm;
  std::vector<int> bbse_alarm;
  std::vector<int> bbseh_alarm;
  std::vector<int> rel_alarm;
  for (int repetition = 0; repetition < repetitions; ++repetition) {
    auto corrupted = serving_errors.Corrupt(serving.features, rng);
    BBV_CHECK(corrupted.ok()) << corrupted.status().ToString();
    auto probabilities = model.PredictProba(*corrupted);
    BBV_CHECK(probabilities.ok()) << probabilities.status().ToString();
    const double true_accuracy = core::ComputeScore(
        core::ScoreMetric::kAccuracy, *probabilities, serving.labels);
    truth.push_back(true_accuracy < (1.0 - threshold) * test_score ? 1 : 0);

    auto accepted = validator.ValidateFromProba(*probabilities);
    BBV_CHECK(accepted.ok()) << accepted.status().ToString();
    ppm_alarm.push_back(*accepted ? 0 : 1);

    auto bbse_detects = bbse.DetectsShiftFromProba(*probabilities);
    BBV_CHECK(bbse_detects.ok()) << bbse_detects.status().ToString();
    bbse_alarm.push_back(*bbse_detects ? 1 : 0);

    auto bbseh_detects = bbseh.DetectsShiftFromProba(*probabilities);
    BBV_CHECK(bbseh_detects.ok()) << bbseh_detects.status().ToString();
    bbseh_alarm.push_back(*bbseh_detects ? 1 : 0);

    auto rel_detects = rel.DetectsShift(*corrupted);
    BBV_CHECK(rel_detects.ok()) << rel_detects.status().ToString();
    rel_alarm.push_back(*rel_detects ? 1 : 0);
  }
  RegimeResult result;
  result.ppm = ml::F1Score(ppm_alarm, truth);
  result.bbse = ml::F1Score(bbse_alarm, truth);
  result.bbseh = ml::F1Score(bbseh_alarm, truth);
  result.rel = ml::F1Score(rel_alarm, truth);
  double violations = 0.0;
  for (int t : truth) violations += t;
  result.violation_rate = violations / static_cast<double>(truth.size());
  return result;
}

void RunCell(const std::string& dataset_name, const std::string& model_name,
             const RunConfig& config) {
  common::Rng rng(config.seed);
  const ExperimentData data = PrepareDataset(dataset_name, config, rng);
  const auto model = TrainBlackBox(model_name, data.train, config, rng);
  const auto test_accuracy = model->ScoreAccuracy(data.test);
  BBV_CHECK(test_accuracy.ok()) << test_accuracy.status().ToString();

  // Baselines: REL compares raw serving columns against the training data;
  // BBSE / BBSE-h compare model outputs against the held-out test outputs.
  core::RelShiftDetector rel;
  BBV_CHECK(rel.Fit(data.train.features).ok());
  core::BbseDetector bbse(model.get());
  BBV_CHECK(bbse.Fit(data.test.features).ok());
  core::BbsehDetector bbseh(model.get());
  BBV_CHECK(bbseh.Fit(data.test.features).ok());

  // Known-error evaluation draws corruption severities from the full
  // spectrum: a random row subset receives a random mixture of errors. The
  // unknown error types (typos/smearing/sign flips) are intrinsically much
  // milder, so they are applied as a plain mixture (per-column random
  // magnitudes, all rows eligible) exactly as in §6.2.2 — otherwise almost
  // no serving batch violates the threshold and F1 becomes noise.
  const errors::RandomSubsetCorruption known_mixture(
      std::make_shared<errors::ErrorMixture>(KnownTabularErrors()));
  const errors::ErrorMixture unknown_mixture(UnknownTabularErrors());

  for (double threshold : {0.03, 0.05, 0.10}) {
    core::PerformanceValidator::Options options;
    options.threshold = threshold;
    // The mixture generator internally randomizes over the four error
    // types; scale the repetitions to keep the meta-training set size
    // comparable to one-generator-per-type training.
    options.predictor.corruptions_per_generator =
        4 * config.CorruptionsPerGenerator();
    core::PerformanceValidator validator(options);
    const std::vector<const errors::ErrorGen*> training_errors = {
        &known_mixture};
    const common::Status status =
        validator.Train(*model, data.test, training_errors, rng);
    BBV_CHECK(status.ok()) << status.ToString();

    struct Regime {
      const char* name;
      const errors::ErrorGen* mixture;
    };
    for (const Regime& regime :
         {Regime{"known", &known_mixture}, Regime{"unknown", &unknown_mixture}}) {
      const RegimeResult result = EvaluateRegime(
          *model, validator, bbse, bbseh, rel, *regime.mixture, data.serving,
          *test_accuracy, threshold, config.ServingRepetitions(), rng);
      std::printf(
          "dataset=%-7s model=%-4s t=%.2f regime=%-7s "
          "F1{PPM=%.3f BBSE=%.3f BBSE-h=%.3f REL=%.3f} violation_rate=%.2f\n",
          dataset_name.c_str(), model_name.c_str(), threshold, regime.name,
          result.ppm, result.bbse, result.bbseh, result.rel,
          result.violation_rate);
      std::fflush(stdout);
    }
  }
}

void Run(const RunConfig& config) {
  PrintHeader("Figure 5",
              "F1 of performance validation (PPM) vs task-independent shift "
              "detectors for thresholds 3%/5%/10%",
              config);
  for (const std::string dataset : {"income", "heart", "bank"}) {
    for (const std::string model_name : {"lr", "xgb", "dnn"}) {
      if (config.model != "all" && config.model != model_name) continue;
      RunCell(dataset, model_name, config);
    }
  }
}

}  // namespace
}  // namespace bbv::bench

int main(int argc, char** argv) {
  const bbv::bench::RunConfig config = bbv::bench::ParseArgs(argc, argv);
  bbv::bench::Run(config);
  bbv::bench::MaybeWriteTelemetryJson(config);
  return 0;
}
