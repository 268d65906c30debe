#ifndef BBV_BENCH_BENCH_UTIL_H_
#define BBV_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "errors/error_gen.h"
#include "ml/black_box.h"
#include "ml/classifier.h"

namespace bbv::bench {

/// Shared experiment configuration parsed from argv. Every figure harness
/// accepts:
///   --fast           reduced sizes/repetitions (default)
///   --full           paper-scale sizes (slower)
///   --seed=N         RNG seed (default 42)
///   --model=NAME     model filter where applicable (lr|dnn|xgb|conv|all)
///   --json[=PATH]    additionally emit machine-readable results as JSON;
///                    the default path is BENCH_<binary-name>.json in the
///                    working directory
///   --telemetry-json[=PATH]  dump the process-wide telemetry registry
///                    (counters, gauges, latency histograms) as JSON at
///                    exit; default path TELEMETRY_<binary-name>.json
struct RunConfig {
  bool fast = true;
  uint64_t seed = 42;
  std::string model = "all";
  /// Empty when --json was not requested.
  std::string json_path;
  /// Empty when --telemetry-json was not requested.
  std::string telemetry_json_path;

  /// Rows generated per dataset before balancing/splitting.
  size_t DatasetRows() const { return fast ? 8000 : 16000; }
  /// Image side for the image datasets.
  size_t ImageSide() const { return fast ? 16 : 28; }
  /// Corrupted copies of D_test per error generator for meta-training.
  int CorruptionsPerGenerator() const { return fast ? 40 : 100; }
  /// Evaluation batches of corrupted serving data per experiment cell.
  int ServingRepetitions() const { return fast ? 50 : 100; }
};

RunConfig ParseArgs(int argc, char** argv);

/// Instantiates one of the paper's black box classifiers by name
/// (lr, dnn, xgb, conv). Aborts on unknown names.
std::unique_ptr<ml::Classifier> MakeClassifier(const std::string& name,
                                               const RunConfig& config);

/// Generates + class-balances a dataset and splits it into
/// (train, test, serving) with the paper's protocol: disjoint source and
/// serving partitions, source further split into train/test.
struct ExperimentData {
  data::Dataset train;
  data::Dataset test;
  data::Dataset serving;
};
ExperimentData PrepareDataset(const std::string& dataset_name,
                              const RunConfig& config, common::Rng& rng);

/// Trains a BlackBoxModel of the given kind on `train`; aborts on failure
/// (benchmarks have no recovery path).
std::unique_ptr<ml::BlackBoxModel> TrainBlackBox(const std::string& model_name,
                                                 const data::Dataset& train,
                                                 const RunConfig& config,
                                                 common::Rng& rng);

/// The four "known" tabular error generators used throughout §6
/// (missing values, outliers, swapped columns, scaling).
std::vector<std::shared_ptr<errors::ErrorGen>> KnownTabularErrors();

/// The three §6.2.2 error types unknown to the validator at training time
/// (categorical typos, numeric smearing, sign flips).
std::vector<std::shared_ptr<errors::ErrorGen>> UnknownTabularErrors();

/// Image errors: gaussian noise and rotation.
std::vector<std::shared_ptr<errors::ErrorGen>> ImageErrors();

/// Errors applicable to a dataset (tabular sets get the known tabular
/// errors; tweets adds the adversarial leetspeak attack; digits/fashion get
/// the image errors).
std::vector<std::shared_ptr<errors::ErrorGen>> ErrorsForDataset(
    const std::string& dataset_name);

/// Serving-time corruption with a random severity: applies `generator` to a
/// uniformly sized random subset of the rows (subset fraction ~ U(0,1)), so
/// evaluation covers the whole spectrum from benign to catastrophic shifts
/// (the paper corrupts serving data "with randomly sampled probabilities").
common::Result<data::DataFrame> CorruptRandomSubset(
    const data::DataFrame& frame, const errors::ErrorGen& generator,
    common::Rng& rng);

/// Raw pointer view of an owning generator list (the core API takes
/// non-owning pointers).
std::vector<const errors::ErrorGen*> RawPointers(
    const std::vector<std::shared_ptr<errors::ErrorGen>>& generators);

/// Distribution summary of a sample (used for the box-plot style figures).
struct Summary {
  double p05 = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double mean = 0.0;
};
Summary Summarize(const std::vector<double>& values);

/// Prints a figure header in a stable, grep-friendly format.
void PrintHeader(const std::string& figure, const std::string& description,
                 const RunConfig& config);

/// Sets BBV_THREADS for one scope and restores the previous value after.
/// Shared by the scaling/inference benches and the determinism tests so
/// every thread-count sweep manipulates the environment the same way.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(int threads);
  ~ScopedThreadsEnv();
  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  bool had_previous_ = false;
  std::string previous_;
};

/// One measured benchmark configuration (e.g. one workload at one thread
/// count). `extras` holds additional numeric facts — determinism flags,
/// item counts — merged verbatim into the emitted JSON object.
struct BenchResult {
  std::string name;
  int threads = 1;
  double wall_seconds = 0.0;
  double speedup_vs_serial = 1.0;
  std::vector<std::pair<std::string, double>> extras;
};

/// Writes a BENCH_*.json file: run metadata (benchmark name, mode, seed,
/// hardware concurrency, effective BBV_THREADS, compiler id) plus one
/// object per result. `metadata` appends benchmark-specific string fields
/// (dataset, black box and the like) to the run header; parsers
/// must skip fields they do not know. Aborts on I/O failure so CI never
/// uploads a silently truncated artifact.
void WriteBenchJson(
    const std::string& path, const std::string& bench, const RunConfig& config,
    const std::vector<BenchResult>& results,
    const std::vector<std::pair<std::string, std::string>>& metadata);

/// Metadata-free convenience overload.
void WriteBenchJson(const std::string& path, const std::string& bench,
                    const RunConfig& config,
                    const std::vector<BenchResult>& results);

/// Dumps telemetry::Registry::Global().ToJson() to
/// config.telemetry_json_path; no-op when the flag was not given. Aborts on
/// I/O failure (same contract as WriteBenchJson).
void MaybeWriteTelemetryJson(const RunConfig& config);

/// Monotonic wall-clock stopwatch for coarse benchmark timing.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bbv::bench

#endif  // BBV_BENCH_BENCH_UTIL_H_
