#ifndef BBV_PERFBENCH_HARNESS_H_
#define BBV_PERFBENCH_HARNESS_H_

// Shared plumbing of the end-to-end pipeline benchmark: run options, the
// metric set every workload fills, process resource readings and the
// in-memory span recorder behind the traced run.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"

namespace bbv::perfbench {

/// Command-line options shared by all workloads.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Minimum measured wall time of the run; workloads stop after the first
  /// whole round that reaches it.
  double seconds = 10.0;
  /// false: end-to-end metrics (telemetry off, no benchmark spans).
  /// true: per-layer metrics from the traced run.
  bool trace = false;
  /// Minimal sizes for the benchmark's own test; never used for figures.
  bool tiny = false;
  /// Corrupts one recorded response before the correctness gate, so the
  /// test can prove the gate fails on a mismatch.
  bool plant_mismatch = false;
  /// Where the traced run writes its spans (CSV); empty: not written.
  std::string trace_path;
};

/// Named metrics with units, in insertion order of their first Set().
class MetricSet {
 public:
  void Set(const std::string& name, const std::string& unit, double value);
  /// Metrics in insertion order.
  const std::vector<std::pair<std::string, std::pair<std::string, double>>>&
  entries() const {
    return entries_;
  }
  double Get(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, std::pair<std::string, double>>> entries_;
};

/// What a workload hands back to main().
struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The metrics of this mode: end-to-end when !trace, per-layer when trace.
  MetricSet metrics;
  /// The headline metrics that are not defined on every workload
  /// (flush vs Train latencies, detection quality, failed_ratio). Printed
  /// on a report line before the result; see README.md.
  MetricSet report;
  /// Human-readable facts (flush counts, rounds) for the report line.
  std::vector<std::string> notes;
};

/// Process CPU seconds (user + system) from getrusage.
double ProcessCpuSeconds();
/// Peak resident set size of the process in MiB.
double PeakRssMb();

/// Sum, mean, median and p-th percentile (linear interpolation) of a
/// sample; 0 if empty.
double Sum(const std::vector<double>& values);
double Mean(const std::vector<double>& values);
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double q);

/// Median cost of the set-ups of one run: 3 in an end-to-end run, 1 in a
/// traced or minimal-size run (the last built state is the one the caller
/// keeps).
struct SetupCost {
  /// Process CPU seconds, all threads (the bounded setup_s).
  double cpu_s = 0.0;
  double wall_s = 0.0;
};
template <typename SetupFn>
SetupCost MedianSetupCost(const RunOptions& options, SetupFn&& setup) {
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
  const int setups = options.trace || options.tiny ? 1 : 3;
  for (int i = 0; i < setups; ++i) {
    const double cpu_start = ProcessCpuSeconds();
    const bench::WallTimer timer;
    setup();
    wall_s.push_back(timer.Seconds());
    cpu_s.push_back(ProcessCpuSeconds() - cpu_start);
  }
  return {Median(cpu_s), Median(wall_s)};
}

/// One recorded call: a named wall-clock interval. `parent` indexes the
/// enclosing span in the same log (kRoot for top-level spans).
struct Span {
  static constexpr int64_t kRoot = -1;
  /// Placeholder parent of the top spans of a task log; Append() replaces
  /// it with the span the task ran under.
  static constexpr int64_t kTaskParent = -2;
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int64_t parent = kRoot;
  /// Request id (service paths) or op / cell index; UINT64_MAX when none.
  uint64_t request = UINT64_MAX;
  /// Rows the call processed (0 when not meaningful).
  uint64_t rows = 0;
};

/// Spans recorded by one thread of control, timed against a shared epoch.
/// Parallel sections give every task its own log (one ParallelFor slot
/// each) and append them to the parent log afterwards, so recording takes
/// no lock and the merged order does not depend on scheduling. A disabled
/// log records nothing and never reads the clock.
class SpanLog {
 public:
  SpanLog(const bench::WallTimer* epoch, bool enabled)
      : epoch_(epoch), enabled_(enabled) {}

  /// An empty log sharing this one's epoch and enablement.
  SpanLog Fork() const { return SpanLog(epoch_, enabled_); }

  /// Opens a span; returns its index (or Span::kRoot when disabled).
  int64_t Open(const char* name, int64_t parent, uint64_t request = UINT64_MAX,
               uint64_t rows = 0);
  void Close(int64_t index);

  /// Times `fn()` as one span and returns its result.
  template <typename Fn>
  auto Time(const char* name, int64_t parent, uint64_t request, uint64_t rows,
            Fn&& fn) {
    const int64_t index = Open(name, parent, request, rows);
    struct Closer {
      SpanLog* log;
      int64_t index;
      ~Closer() { log->Close(index); }
    } closer{this, index};
    return fn();
  }

  /// Moves `task`'s spans to the end of this log; task spans whose parent
  /// is Span::kTaskParent are re-parented under `parent`.
  void Append(SpanLog&& task, int64_t parent);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  const bench::WallTimer* epoch_;
  bool enabled_;
  std::vector<Span> spans_;
};

/// Per-name totals over a span log.
struct LayerTotals {
  uint64_t calls = 0;
  uint64_t rows = 0;
  double busy_s = 0.0;
};
std::map<std::string, LayerTotals> SumByName(const std::vector<Span>& spans);

/// Names of the leaf layer calls the shadow replays record (every other
/// span name is structural: a replay root, a task, a service call).
bool IsLayerCall(const std::string& name);

/// Span coverage of the replay roots named `root_name`: for each such root,
/// the wall-clock union of the layer calls below it (on any thread). The
/// result maps root request id -> (root duration, covered seconds).
std::map<uint64_t, std::pair<double, double>> CoverageByRoot(
    const std::vector<Span>& spans, const std::string& root_name);

/// Writes the spans as CSV (index,name,start,end,parent,request,rows).
/// Returns false on I/O failure.
bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans);

}  // namespace bbv::perfbench

#endif  // BBV_PERFBENCH_HARNESS_H_
