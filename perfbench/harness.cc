#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "common/check.h"

namespace bbv::perfbench {

void MetricSet::Set(const std::string& name, const std::string& unit,
                    double value) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {unit, value};
      return;
    }
  }
  entries_.push_back({name, {unit, value}});
}

double MetricSet::Get(const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.first == name) return entry.second.second;
  }
  BBV_CHECK(false) << "unknown metric " << name;
  return 0.0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  BBV_CHECK(getrusage(RUSAGE_SELF, &usage) == 0);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  BBV_CHECK(getrusage(RUSAGE_SELF, &usage) == 0);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double value : values) total += value;
  return total;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : Sum(values) / static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double fraction = rank - static_cast<double>(lo);
  return values[lo] + fraction * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

int64_t SpanLog::Open(const char* name, int64_t parent, uint64_t request,
                      uint64_t rows) {
  if (!enabled_) return Span::kRoot;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.rows = rows;
  span.start = epoch_->Seconds();
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size() - 1);
}

void SpanLog::Close(int64_t index) {
  if (!enabled_) return;
  spans_[static_cast<size_t>(index)].end = epoch_->Seconds();
}

void SpanLog::Append(SpanLog&& task, int64_t parent) {
  if (!enabled_) return;
  const int64_t offset = static_cast<int64_t>(spans_.size());
  for (Span span : task.spans_) {
    if (span.parent == Span::kTaskParent) {
      span.parent = parent;
    } else if (span.parent >= 0) {
      span.parent += offset;
    }
    spans_.push_back(span);
  }
  task.spans_.clear();
}

std::map<std::string, LayerTotals> SumByName(const std::vector<Span>& spans) {
  std::map<std::string, LayerTotals> totals;
  for (const Span& span : spans) {
    LayerTotals& total = totals[span.name];
    ++total.calls;
    total.rows += span.rows;
    total.busy_s += span.end - span.start;
  }
  return totals;
}

bool IsLayerCall(const std::string& name) {
  static const std::set<std::string> kLayerCalls = {
      "serve.ingest",        "stats.bank_observe",
      "serve.percentiles",   "stats.bank_percentiles",
      "core.estimate_batch", "core.monitor_observe",
      "serve.state_save",    "serve.state_load",
      "serve.swap",          "ml.predict_proba",
      "errors.corrupt",      "core.statistics",
      "core.train_from_statistics", "ml.cv_mae",
      "ml.forest_fit",       "common.fork_streams",
  };
  return kLayerCalls.count(name) > 0;
}

std::map<uint64_t, std::pair<double, double>> CoverageByRoot(
    const std::vector<Span>& spans, const std::string& root_name) {
  // Top-level ancestor of every span (parents always precede children).
  std::vector<int64_t> root_of(spans.size(), Span::kRoot);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t parent = spans[i].parent;
    root_of[i] = parent < 0 ? static_cast<int64_t>(i)
                            : root_of[static_cast<size_t>(parent)];
  }
  std::map<int64_t, std::vector<std::pair<double, double>>> intervals;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!IsLayerCall(spans[i].name)) continue;
    const Span& root = spans[static_cast<size_t>(root_of[i])];
    if (root_name != root.name) continue;
    intervals[root_of[i]].push_back({spans[i].start, spans[i].end});
  }
  std::map<uint64_t, std::pair<double, double>> coverage;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != Span::kRoot || root_name != spans[i].name) {
      continue;
    }
    std::vector<std::pair<double, double>>& list =
        intervals[static_cast<int64_t>(i)];
    std::sort(list.begin(), list.end());
    double covered = 0.0;
    double reach = -1.0;
    for (const auto& [start, end] : list) {
      const double from = std::max(start, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    std::pair<double, double>& entry = coverage[spans[i].request];
    entry.first += spans[i].end - spans[i].start;
    entry.second += covered;
  }
  return coverage;
}

bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "index,name,start_s,end_s,parent,request,rows\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::fprintf(file, "%zu,%s,%.9f,%.9f,%lld,%lld,%llu\n", i, span.name,
                 span.start, span.end, static_cast<long long>(span.parent),
                 span.request == UINT64_MAX
                     ? -1LL
                     : static_cast<long long>(span.request),
                 static_cast<unsigned long long>(span.rows));
  }
  return std::fclose(file) == 0;
}

}  // namespace bbv::perfbench
