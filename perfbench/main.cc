// End-to-end pipeline benchmark: serving (Algorithm 2 through
// serve::ValidatorService) and offline meta-training (Algorithm 1), with a
// correctness gate on every run and a traced per-layer breakdown.
//
//   bbv_perfbench --workload serve_fleet|serve_monitored|meta_train
//                 --seed N --seconds S --trace 0|1
//                 [--trace-out PATH] [--tiny] [--plant-mismatch]
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. The line before it starts with
// "perfbench-report " and carries the headline metrics that are not
// defined on every workload. Exits 1 when the correctness gate fails and 2
// on bad arguments. perfbench/README.md maps every metric to its layer
// and workload.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/check.h"
#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace bbv::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, defined (and never 0) on every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"rows_per_cpu_s", "1/s"},
    {"op_cpu_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics of the traced run; a layer a workload never calls
/// reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"serve.ingest.calls", "count"},
    {"serve.ingest.rows", "rows"},
    {"serve.ingest.busy_s", "s"},
    {"serve.percentiles.busy_s", "s"},
    {"stats.bank_observe.busy_s", "s"},
    {"stats.bank_percentiles.busy_s", "s"},
    {"serve.state_save.calls", "count"},
    {"serve.state_save.busy_s", "s"},
    {"serve.state_load.calls", "count"},
    {"serve.state_load.busy_s", "s"},
    {"serve.kernel_batches", "count"},
    {"serve.requests_per_kernel_batch", "ratio"},
    {"core.estimate_batch.calls", "count"},
    {"core.estimate_batch.rows", "rows"},
    {"core.estimate_batch.busy_s", "s"},
    {"core.monitor_observe.calls", "count"},
    {"core.monitor_observe.busy_s", "s"},
    {"core.monitor.alarms", "count"},
    {"core.monitor.detect_delay_batches", "batches"},
    {"core.monitor.false_alarm_rate", "ratio"},
    {"ml.predict_proba.calls", "count"},
    {"ml.predict_proba.rows", "rows"},
    {"ml.predict_proba.busy_s", "s"},
    {"errors.corrupt.calls", "count"},
    {"errors.corrupt.busy_s", "s"},
    {"core.statistics.busy_s", "s"},
    {"ml.cv_mae.calls", "count"},
    {"ml.cv_mae.busy_s", "s"},
    {"ml.forest_fit.busy_s", "s"},
    {"core.train_from_statistics.busy_s", "s"},
    {"serve.flush.calls", "count"},
    {"serve.flush.busy_s", "s"},
    {"serve.flush.unattributed_s", "s"},
    {"e2e.rows_per_s", "1/s"},
    {"e2e.op_p50_ms", "ms"},
    {"e2e.op_p99_ms", "ms"},
    {"core.estimate.abs_err_p50", "acc"},
    {"common.cpu_per_wall", "ratio"},
    {"common.telemetry.on_off_ratio", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "bbv_perfbench: %s\nusage: bbv_perfbench --workload "
               "serve_fleet|serve_monitored|meta_train --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--tiny] "
               "[--plant-mismatch]\n",
               message);
  return 2;
}

/// Parses `--flag value` and `--flag=value`; returns false on bad input.
bool ParseArgs(int argc, char** argv, RunOptions& options) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t equals = flag.find('=');
    const bool takes_value = flag != "--tiny" && flag != "--plant-mismatch";
    if (equals != std::string::npos) {
      value = flag.substr(equals + 1);
      flag = flag.substr(0, equals);
    } else if (takes_value) {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else if (flag == "--tiny") {
      options.tiny = true;
    } else if (flag == "--plant-mismatch") {
      options.plant_mismatch = true;
    } else {
      return false;
    }
  }
  return !options.workload.empty();
}

/// JSON object of {name: {"value": v, "unit": u}} for `specs`, reading
/// values from `metrics` (absent per-layer metrics read 0).
template <size_t N>
std::string MetricsJson(const MetricSpec (&specs)[N], const MetricSet& metrics,
                        bool absent_is_zero) {
  std::string json = "{";
  for (size_t i = 0; i < N; ++i) {
    double value = 0.0;
    bool found = false;
    for (const auto& [name, entry] : metrics.entries()) {
      if (name != specs[i].name) continue;
      BBV_CHECK(entry.first == specs[i].unit)
          << name << " reported in " << entry.first << ", expected "
          << specs[i].unit;
      value = entry.second;
      found = true;
    }
    BBV_CHECK(found || absent_is_zero) << "missing metric " << specs[i].name;
    BBV_CHECK(std::isfinite(value)) << specs[i].name << " is not finite";
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
    json += buffer;
  }
  return json + "}";
}

/// Every metric a workload set must be one of `specs`.
template <size_t N>
void CheckKnown(const MetricSpec (&specs)[N], const MetricSet& metrics) {
  for (const auto& [name, entry] : metrics.entries()) {
    bool known = false;
    for (const MetricSpec& spec : specs) known = known || name == spec.name;
    BBV_CHECK(known) << "unlisted metric " << name;
  }
}

std::string ReportJson(const RunOptions& options,
                       const WorkloadResult& result) {
  std::string json = "{\"workload\": \"" + options.workload +
                     "\", \"seed\": " + std::to_string(options.seed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : result.report.entries()) {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), entry.second,
                  entry.first.c_str());
    json += buffer;
    first = false;
  }
  json += "}, \"notes\": [";
  for (size_t i = 0; i < result.notes.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + result.notes[i] + "\"";
  }
  return json + "]}";
}

int Run(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, options)) return Usage("bad arguments");
  WorkloadResult result;
  if (options.workload == "serve_fleet") {
    result = RunServeFleet(options);
  } else if (options.workload == "serve_monitored") {
    result = RunServeMonitored(options);
  } else if (options.workload == "meta_train") {
    result = RunMetaTrain(options);
  } else {
    return Usage("unknown workload");
  }
  std::string metrics;
  if (options.trace) {
    CheckKnown(kPerLayer, result.metrics);
    metrics = MetricsJson(kPerLayer, result.metrics, /*absent_is_zero=*/true);
  } else {
    CheckKnown(kEndToEnd, result.metrics);
    metrics = MetricsJson(kEndToEnd, result.metrics, /*absent_is_zero=*/false);
  }
  std::printf("perfbench-report %s\n", ReportJson(options, result).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  if (!result.correct) {
    std::fprintf(stderr,
                 "bbv_perfbench: correctness gate FAILED on %s (responses, "
                 "states or Save bytes differ from the reference replay)\n",
                 options.workload.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bbv::perfbench

int main(int argc, char** argv) { return bbv::perfbench::Run(argc, argv); }
