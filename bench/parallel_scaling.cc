// Scaling benchmark for the deterministic parallel subsystem: runs the
// three parallelized hot paths (forest fitting, meta-training collection,
// cross-validated MAE) at 1, 2, 4 and 8 threads, reports wall time and
// speedup over the serial reference, and verifies that the serialized
// models are byte-identical at every thread count.
//
// With --json[=PATH] the measurements land in BENCH_parallel_scaling.json;
// the "hardware_concurrency" field records how many cores the measurement
// actually had available — speedups are only meaningful when it is at least
// the thread count.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/performance_predictor.h"
#include "linalg/matrix.h"
#include "ml/cross_validation.h"
#include "ml/random_forest.h"

namespace bbv::bench {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

/// One workload: returns a digest string of the computed artifact so the
/// caller can assert bit-identical results across thread counts.
struct Workload {
  std::string name;
  std::string (*run)(const RunConfig&);
};

void MakeRegressionData(size_t rows, size_t cols, uint64_t seed,
                        linalg::Matrix& features,
                        std::vector<double>& targets) {
  common::Rng rng(seed);
  features = linalg::Matrix(rows, cols);
  targets.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) features.At(i, j) = rng.Uniform();
    targets[i] = 2.0 * features.At(i, 0) - features.At(i, 1) +
                 rng.Gaussian(0.0, 0.1);
  }
}

std::string RunForestFit(const RunConfig& config) {
  linalg::Matrix features;
  std::vector<double> targets;
  MakeRegressionData(config.fast ? 2000 : 8000, 24, config.seed, features,
                     targets);
  ml::RandomForestRegressor::Options options;
  options.num_trees = config.fast ? 64 : 128;
  ml::RandomForestRegressor forest(options);
  common::Rng rng(config.seed);
  BBV_CHECK(forest.Fit(features, targets, rng).ok());
  std::ostringstream out;
  BBV_CHECK(forest.Save(out).ok());
  return out.str();
}

std::string RunMetaTrain(const RunConfig& config) {
  common::Rng rng(config.seed);
  ExperimentData data = PrepareDataset("income", config, rng);
  std::unique_ptr<ml::BlackBoxModel> model =
      TrainBlackBox("lr", data.train, config, rng);
  core::PerformancePredictor::Options options;
  options.corruptions_per_generator = config.fast ? 20 : 50;
  options.tree_count_grid = {30};
  core::PerformancePredictor predictor(options);
  const auto generators = KnownTabularErrors();
  common::Rng train_rng(config.seed + 1);
  BBV_CHECK(predictor
                .Train(*model, data.test, RawPointers(generators), train_rng)
                .ok());
  std::ostringstream out;
  BBV_CHECK(predictor.Save(out).ok());
  return out.str();
}

std::string RunCvMae(const RunConfig& config) {
  linalg::Matrix features;
  std::vector<double> targets;
  MakeRegressionData(config.fast ? 1500 : 5000, 16, config.seed + 2, features,
                     targets);
  auto factory = [] {
    ml::RandomForestRegressor::Options options;
    options.num_trees = 40;
    return ml::RandomForestRegressor(options);
  };
  common::Rng rng(config.seed + 3);
  const double mae =
      ml::CrossValRegressionMae(factory, features, targets, 5, rng)
          .ValueOrDie();
  std::ostringstream out;
  out.precision(17);
  out << mae;
  return out.str();
}

}  // namespace
}  // namespace bbv::bench

int main(int argc, char** argv) {
  using namespace bbv::bench;  // NOLINT(google-build-using-namespace)
  RunConfig config = ParseArgs(argc, argv);
  PrintHeader("parallel_scaling",
              "wall time of the parallel hot paths vs BBV_THREADS",
              config);
  std::printf("hardware_concurrency=%d\n",
              bbv::common::HardwareThreadCount());

  const Workload workloads[] = {
      {"forest_fit", &RunForestFit},
      {"meta_train", &RunMetaTrain},
      {"cv_mae", &RunCvMae},
  };

  std::vector<BenchResult> results;
  bool all_deterministic = true;
  for (const Workload& workload : workloads) {
    std::string serial_digest;
    double serial_seconds = 0.0;
    for (int threads : kThreadCounts) {
      ScopedThreadsEnv env(threads);
      WallTimer timer;
      const std::string digest = workload.run(config);
      const double seconds = timer.Seconds();
      if (threads == 1) {
        serial_digest = digest;
        serial_seconds = seconds;
      }
      const bool deterministic = digest == serial_digest;
      all_deterministic = all_deterministic && deterministic;
      BenchResult result;
      result.name = workload.name;
      result.threads = threads;
      result.wall_seconds = seconds;
      result.speedup_vs_serial = seconds > 0.0 ? serial_seconds / seconds : 0.0;
      result.extras.emplace_back("deterministic", deterministic ? 1.0 : 0.0);
      results.push_back(result);
      std::printf("%-17s threads=%d wall=%.3fs speedup=%.2fx identical=%s\n",
                  workload.name.c_str(), threads, seconds,
                  result.speedup_vs_serial, deterministic ? "yes" : "NO");
    }
  }

  if (!config.json_path.empty()) {
    WriteBenchJson(config.json_path, "parallel_scaling", config, results);
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  MaybeWriteTelemetryJson(config);
  if (!config.telemetry_json_path.empty()) {
    std::printf("wrote %s\n", config.telemetry_json_path.c_str());
  }
  if (!all_deterministic) {
    std::fprintf(stderr,
                 "FAIL: results diverge across thread counts — the "
                 "determinism contract is broken\n");
    return 1;
  }
  return 0;
}
