// Scenario from the paper's introduction: an engineering team deploys a
// model for a financial product and must monitor daily serving batches
// without ground-truth labels. A performance *validator* watches the
// model's outputs and raises an alarm whenever the estimated accuracy drop
// exceeds 5% — e.g. after someone ships a preprocessing bug that changes
// the scale of a numeric attribute (seconds -> milliseconds).
//
// Build & run:  ./build/examples/loan_approval_monitoring

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/performance_validator.h"
#include "data/dataset.h"
#include "datasets/tabular.h"
#include "errors/missing_values.h"
#include "errors/mixture.h"
#include "errors/numeric_errors.h"
#include "errors/swapped_columns.h"
#include "ml/black_box.h"
#include "ml/gradient_boosted_trees.h"

namespace {

/// One "day" of serving data: a random slice of the serving partition,
/// possibly corrupted by an incident.
struct DailyBatch {
  std::string description;
  bbv::data::DataFrame frame;
  std::vector<int> labels;  // hidden from the validator; used for reporting
};

}  // namespace

int main() {
  bbv::common::Rng rng(2024);

  bbv::data::Dataset dataset = bbv::datasets::MakeBank(20000, rng);
  dataset = bbv::data::BalanceClasses(dataset, rng);
  auto [source, serving] = bbv::data::TrainTestSplit(dataset, 0.7, rng);
  auto [train, test] = bbv::data::TrainTestSplit(source, 0.7, rng);

  bbv::ml::BlackBoxModel model(
      std::make_unique<bbv::ml::GradientBoostedTrees>());
  BBV_CHECK(model.Train(train, rng).ok());
  std::printf("deployed model, test accuracy %.3f\n",
              model.ScoreAccuracy(test).ValueOrDie());

  // Validator with a 5% acceptable accuracy drop, trained on mixtures of
  // the incidents the team has seen before.
  auto incident_mix = std::make_shared<bbv::errors::ErrorMixture>(
      std::vector<std::shared_ptr<bbv::errors::ErrorGen>>{
          std::make_shared<bbv::errors::MissingValues>(),
          std::make_shared<bbv::errors::NumericOutliers>(),
          std::make_shared<bbv::errors::SwappedColumns>(),
          std::make_shared<bbv::errors::Scaling>()});
  const bbv::errors::RandomSubsetCorruption incidents(incident_mix);

  bbv::core::PerformanceValidator::Options options;
  options.threshold = 0.05;
  // The collection pass both the validator and its internal predictor
  // learn from is configured once, on the predictor's options. Daily batches
  // hold ~600 rows; meta-train on 600-row subsets so the validator's
  // features carry the same sampling noise it will see live.
  options.predictor.corruptions_per_generator = 200;
  options.predictor.meta_batch_size = 600;
  options.predictor.clean_copies = 25;
  bbv::core::PerformanceValidator validator(options);
  std::vector<const bbv::errors::ErrorGen*> generators = {&incidents};
  BBV_CHECK(validator.Train(model, test, generators, rng).ok());

  // Simulated week of serving traffic. Two incidents: a scaling bug on
  // Wednesday and a missing-values bug (broken join) on Friday.
  const bbv::errors::Scaling scaling_bug({"duration"},
                                         bbv::errors::FractionRange{0.8, 1.0});
  const bbv::errors::MissingValues join_bug(
      {"job", "education"}, bbv::errors::FractionRange{0.6, 0.9});

  std::vector<DailyBatch> week;
  const std::vector<std::string> days = {"Mon", "Tue", "Wed", "Thu", "Fri"};
  for (size_t day = 0; day < days.size(); ++day) {
    const std::vector<size_t> rows =
        rng.SampleWithoutReplacement(serving.NumRows(), 600);
    bbv::data::Dataset slice = serving.SelectRows(rows);
    DailyBatch batch;
    batch.labels = slice.labels;
    if (days[day] == "Wed") {
      batch.description = "scaling bug in duration column";
      batch.frame = scaling_bug.Corrupt(slice.features, rng).ValueOrDie();
    } else if (days[day] == "Fri") {
      batch.description = "broken join drops job/education";
      batch.frame = join_bug.Corrupt(slice.features, rng).ValueOrDie();
    } else {
      batch.description = "normal traffic";
      batch.frame = slice.features;
    }
    week.push_back(std::move(batch));
  }

  std::printf("\n%-4s %-35s %-8s %-9s %s\n", "day", "incident", "actual",
              "decision", "correct?");
  for (size_t day = 0; day < week.size(); ++day) {
    const DailyBatch& batch = week[day];
    const auto probabilities = model.PredictProba(batch.frame).ValueOrDie();
    const double actual = bbv::core::ComputeScore(
        bbv::core::ScoreMetric::kAccuracy, probabilities, batch.labels);
    const bool accepted =
        validator.ValidateFromProba(probabilities).ValueOrDie();
    const bool actually_fine =
        actual >= (1.0 - options.threshold) * validator.test_score();
    std::printf("%-4s %-35s %.3f    %-9s %s\n", days[day].c_str(),
                batch.description.c_str(), actual,
                accepted ? "ACCEPT" : "ALARM",
                accepted == actually_fine ? "yes" : "NO");
  }
  std::printf(
      "\nNote how the validator is tied to the *impact* on the model, not to\n"
      "shift detection: Friday's broken join is a real data error, but the\n"
      "gradient-boosted model shrugs it off, so no alarm is the right call.\n");
  return 0;
}
