// Google-benchmark micro-benchmarks for the hot operations inside the
// validation layer (not a paper figure): output-percentile featurization,
// hypothesis tests, forest inference, corruption generators and the feature
// pipeline. These bound the serving-time overhead of deploying a
// performance predictor next to a model.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/telemetry.h"
#include "core/monitor.h"
#include "core/performance_predictor.h"
#include "core/prediction_statistics.h"
#include "datasets/tabular.h"
#include "errors/missing_values.h"
#include "errors/numeric_errors.h"
#include "featurize/pipeline.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "stats/hypothesis.h"
#include "stats/quantile_sketch.h"

namespace bbv::bench {
namespace {

linalg::Matrix MakeProbabilities(size_t rows, common::Rng& rng) {
  linalg::Matrix probabilities(rows, 2);
  for (size_t i = 0; i < rows; ++i) {
    const double p = rng.Uniform();
    probabilities.At(i, 0) = p;
    probabilities.At(i, 1) = 1.0 - p;
  }
  return probabilities;
}

void BM_PredictionStatistics(benchmark::State& state) {
  common::Rng rng(1);
  const linalg::Matrix probabilities =
      MakeProbabilities(static_cast<size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PredictionStatistics(probabilities));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PredictionStatistics)->Arg(1000)->Arg(10000);

void BM_SketchQuantiles(benchmark::State& state) {
  // The per-request percentile read of Algorithm 2: the predictor's 29
  // points on one populated column sketch of the default 4097-cell grid.
  common::Rng rng(7);
  stats::QuantileSketch sketch;
  for (int i = 0; i < 100000; ++i) sketch.Add(rng.Uniform());
  const std::vector<double> points = core::DefaultPercentilePoints();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Quantiles(points));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points.size()));
}
BENCHMARK(BM_SketchQuantiles);

void BM_SketchBankObserve(benchmark::State& state) {
  // The per-request ingest of Algorithm 2: one 100-row, 2-class batch of
  // probabilities into a bank (finiteness scan plus one row-major pass).
  common::Rng rng(8);
  const linalg::Matrix probabilities = MakeProbabilities(100, rng);
  stats::QuantileSketchBank bank;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.Observe(probabilities));
  }
  benchmark::DoNotOptimize(bank.rows_observed());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(probabilities.rows()));
}
BENCHMARK(BM_SketchBankObserve);

void BM_MonitorObserveWindowed(benchmark::State& state) {
  // One monitored request: a 100-row, 2-class batch through a windowed
  // ModelMonitor::Observe at sketch resolution 12, over a window of
  // state.range(0) batches, against a 100-tree meta-forest. The window
  // adds each batch to a running sketch sum and retracts the one that
  // leaves, so the cost should not grow with the window.
  common::Rng rng(9);
  core::PerformancePredictor::Options options;
  options.tree_count_grid = {100};
  core::PerformancePredictor predictor(options);
  const size_t width = 2 * core::DefaultPercentilePoints().size();
  std::vector<std::vector<double>> statistics(200, std::vector<double>(width));
  std::vector<double> scores(statistics.size());
  for (size_t i = 0; i < statistics.size(); ++i) {
    for (double& value : statistics[i]) value = rng.Uniform();
    scores[i] = statistics[i][width / 2];
  }
  BBV_CHECK(predictor.TrainFromStatistics(statistics, scores, 0.9, rng).ok());
  core::ModelMonitor::Options monitor_options;
  monitor_options.window_batches = static_cast<size_t>(state.range(0));
  monitor_options.sketch_resolution_bits = 12;
  auto monitor = core::ModelMonitor::CreateForProba(
      "bench", std::make_shared<const core::PerformancePredictor>(predictor),
      monitor_options);
  BBV_CHECK(monitor.ok());
  std::vector<linalg::Matrix> batches;
  for (int b = 0; b < 64; ++b) batches.push_back(MakeProbabilities(100, rng));
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor->Observe(batches[next]));
    next = (next + 1) % batches.size();
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_MonitorObserveWindowed)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_TwoSampleKsTest(benchmark::State& state) {
  common::Rng rng(2);
  std::vector<double> a(static_cast<size_t>(state.range(0)));
  std::vector<double> b(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Gaussian();
    b[i] = rng.Gaussian(0.1, 1.1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::TwoSampleKsTest(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TwoSampleKsTest)->Arg(1000)->Arg(10000);

void BM_RandomForestInference(benchmark::State& state) {
  common::Rng rng(3);
  const size_t dim = 42;
  linalg::Matrix features(512, dim);
  std::vector<double> targets(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    for (size_t j = 0; j < dim; ++j) features.At(i, j) = rng.Uniform();
    targets[i] = rng.Uniform();
  }
  ml::RandomForestRegressor::Options options;
  options.num_trees = static_cast<int>(state.range(0));
  ml::RandomForestRegressor forest(options);
  BBV_CHECK(forest.Fit(features, targets, rng).ok());
  const std::vector<double> row = features.Row(0);
  for (auto _ : state) {
    // Single-row latency microbenchmark;
    // bbv-lint: allow(batch-api) the scalar path is the thing measured
    benchmark::DoNotOptimize(forest.PredictRow(row.data()));
  }
}
BENCHMARK(BM_RandomForestInference)->Arg(25)->Arg(100);

/// One exact regression-tree fit over `rows` x 16 uniform features with a
/// noisy linear target, timed end to end (including the tree's own sort,
/// which is what a single-tree caller pays).
void BM_SplitSearchExact(benchmark::State& state) {
  common::Rng data_rng(9);
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t dim = 16;
  linalg::Matrix features(rows, dim);
  std::vector<double> targets(rows);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < dim; ++j) features.At(i, j) = data_rng.Uniform();
    targets[i] = 2.0 * features.At(i, 0) - features.At(i, 3) +
                 data_rng.Gaussian(0.0, 0.1);
  }
  for (auto _ : state) {
    ml::RegressionTree tree;
    common::Rng rng(13);
    BBV_CHECK(tree.Fit(features, targets, rng).ok());
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SplitSearchExact)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_MissingValuesCorruption(benchmark::State& state) {
  common::Rng rng(4);
  const data::Dataset dataset =
      datasets::MakeIncome(static_cast<size_t>(state.range(0)), rng);
  const errors::MissingValues generator;
  for (auto _ : state) {
    auto corrupted = generator.Corrupt(dataset.features, rng);
    benchmark::DoNotOptimize(corrupted);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MissingValuesCorruption)->Arg(1000)->Arg(5000);

void BM_OutlierCorruption(benchmark::State& state) {
  common::Rng rng(5);
  const data::Dataset dataset =
      datasets::MakeIncome(static_cast<size_t>(state.range(0)), rng);
  const errors::NumericOutliers generator;
  for (auto _ : state) {
    auto corrupted = generator.Corrupt(dataset.features, rng);
    benchmark::DoNotOptimize(corrupted);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OutlierCorruption)->Arg(1000)->Arg(5000);

void BM_RandomForestFit(benchmark::State& state) {
  // Tree-level parallel fitting: Arg is the BBV_THREADS override, so the
  // reported times show how the hot path scales with the worker count.
  const int threads = static_cast<int>(state.range(0));
  ::setenv("BBV_THREADS", std::to_string(threads).c_str(), 1);
  common::Rng data_rng(7);
  const size_t dim = 24;
  linalg::Matrix features(1500, dim);
  std::vector<double> targets(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    for (size_t j = 0; j < dim; ++j) features.At(i, j) = data_rng.Uniform();
    targets[i] = data_rng.Uniform();
  }
  ml::RandomForestRegressor::Options options;
  options.num_trees = 64;
  for (auto _ : state) {
    ml::RandomForestRegressor forest(options);
    common::Rng rng(11);
    BBV_CHECK(forest.Fit(features, targets, rng).ok());
    benchmark::DoNotOptimize(forest);
  }
  ::unsetenv("BBV_THREADS");
  state.SetItemsProcessed(state.iterations() * options.num_trees);
}
BENCHMARK(BM_RandomForestFit)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MetaForestFit(benchmark::State& state) {
  // Algorithm 1's final forest fit at its production shape: 105
  // meta-examples x 58 percentile features (2 classes x 29 points, values
  // on a coarse grid so columns tie like real percentiles), forest defaults
  // (max depth 10, min leaf 2, a third of the features per split), 100
  // trees. Arg is the BBV_THREADS override.
  ::setenv("BBV_THREADS", std::to_string(state.range(0)).c_str(), 1);
  common::Rng data_rng(2020);
  const size_t dim = 2 * core::DefaultPercentilePoints().size();
  linalg::Matrix features(105, dim);
  std::vector<double> targets(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    const double quality = data_rng.Uniform(0.5, 1.0);
    for (size_t j = 0; j < dim; ++j) {
      const double raw = quality * static_cast<double>(j % 29 + 1) / 29.0 +
                         data_rng.Gaussian(0.0, 0.05);
      features.At(i, j) = std::round(raw * 50.0) / 50.0;
    }
    targets[i] = quality + data_rng.Gaussian(0.0, 0.02);
  }
  ml::RandomForestRegressor::Options options;
  options.num_trees = 100;
  for (auto _ : state) {
    ml::RandomForestRegressor forest(options);
    common::Rng rng(11);
    BBV_CHECK(forest.Fit(features, targets, rng).ok());
    benchmark::DoNotOptimize(forest);
  }
  ::unsetenv("BBV_THREADS");
  state.SetItemsProcessed(state.iterations() * options.num_trees);
}
BENCHMARK(BM_MetaForestFit)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_TelemetrySpanEnabled(benchmark::State& state) {
  // Cost of one TraceSpan + counter increment on the instrumented hot
  // paths when telemetry is on: two clock reads plus relaxed atomics.
  const bool was_enabled = common::telemetry::Enabled();
  common::telemetry::SetEnabled(true);
  for (auto _ : state) {
    const common::telemetry::TraceSpan span("bench.telemetry_overhead");
    common::telemetry::IncrementCounter("bench.telemetry_overhead.calls");
    benchmark::DoNotOptimize(span.ElapsedSeconds());
  }
  common::telemetry::SetEnabled(was_enabled);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetrySpanEnabled);

void BM_TelemetrySpanDisabled(benchmark::State& state) {
  // The BBV_TELEMETRY=off path: no clock reads, no registry lookups.
  const bool was_enabled = common::telemetry::Enabled();
  common::telemetry::SetEnabled(false);
  for (auto _ : state) {
    const common::telemetry::TraceSpan span("bench.telemetry_overhead");
    common::telemetry::IncrementCounter("bench.telemetry_overhead.calls");
    benchmark::DoNotOptimize(span.ElapsedSeconds());
  }
  common::telemetry::SetEnabled(was_enabled);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetrySpanDisabled);

void BM_PipelineTransform(benchmark::State& state) {
  common::Rng rng(6);
  const data::Dataset dataset =
      datasets::MakeIncome(static_cast<size_t>(state.range(0)), rng);
  featurize::FeaturePipeline pipeline;
  BBV_CHECK(pipeline.Fit(dataset.features).ok());
  for (auto _ : state) {
    auto transformed = pipeline.Transform(dataset.features);
    benchmark::DoNotOptimize(transformed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipelineTransform)->Arg(1000)->Arg(5000);

}  // namespace
}  // namespace bbv::bench

// Custom main instead of BENCHMARK_MAIN(): translates the repo-wide
// --json[=PATH] convention into google-benchmark's --benchmark_out flags
// (and strips --telemetry-json[=PATH], handled after the run) so CI invokes
// every bench binary the same way.
int main(int argc, char** argv) {
  std::string telemetry_json_path;
  std::vector<std::string> storage;
  storage.reserve(static_cast<size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      const std::string path = arg == "--json"
                                   ? std::string("BENCH_micro_ops.json")
                                   : arg.substr(7);
      storage.push_back("--benchmark_out=" + path);
      storage.push_back("--benchmark_out_format=json");
    } else if (arg == "--telemetry-json") {
      telemetry_json_path = "TELEMETRY_micro_ops.json";
    } else if (arg.rfind("--telemetry-json=", 0) == 0) {
      telemetry_json_path = arg.substr(17);
    } else {
      storage.push_back(arg);
    }
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& arg : storage) args.push_back(arg.data());
  int translated_argc = static_cast<int>(args.size());
  benchmark::Initialize(&translated_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(translated_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!telemetry_json_path.empty()) {
    bbv::bench::RunConfig config;
    config.telemetry_json_path = telemetry_json_path;
    bbv::bench::MaybeWriteTelemetryJson(config);
    std::printf("wrote %s\n", telemetry_json_path.c_str());
  }
  return 0;
}
