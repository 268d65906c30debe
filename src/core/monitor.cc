#include "core/monitor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "common/telemetry.h"
#include "core/prediction_statistics.h"
#include "stats/descriptive.h"

namespace bbv::core {

namespace {

/// Reference-score invariant shared by monitor construction and hot-swap:
/// a degenerate reference silently clamps relative_drop so alarms can never
/// fire against it.
common::Status ValidatePredictorReference(
    const PerformancePredictor& predictor) {
  const double reference = predictor.test_score();
  if (!std::isfinite(reference) || reference <= 0.0) {
    return common::Status::InvalidArgument(
        "reference score must be finite and strictly positive, got " +
        std::to_string(reference));
  }
  return common::Status::OK();
}

}  // namespace

common::Result<ModelMonitor> ModelMonitor::CreateForProba(
    std::string name, std::shared_ptr<const PerformancePredictor> predictor,
    Options options) {
  if (predictor == nullptr) {
    return common::Status::InvalidArgument(
        "CreateForProba needs a predictor");
  }
  if (!predictor->trained()) {
    return common::Status::FailedPrecondition(
        "ModelMonitor needs a trained predictor");
  }
  if (!(options.alarm_threshold > 0.0 && options.alarm_threshold < 1.0)) {
    return common::Status::InvalidArgument(
        "alarm_threshold must lie in (0, 1)");
  }
  if (options.history_limit == 0) {
    return common::Status::InvalidArgument("history_limit must be positive");
  }
  if (options.window_batches > 0 &&
      (options.sketch_resolution_bits < 1 ||
       options.sketch_resolution_bits > 24)) {
    return common::Status::InvalidArgument(
        "sketch_resolution_bits must lie in [1, 24] when window_batches is "
        "set");
  }
  // A non-positive reference used to silently clamp relative_drop to 0,
  // so alarms could never fire against it; reject it up front instead.
  BBV_RETURN_NOT_OK(ValidatePredictorReference(*predictor));
  return ModelMonitor(std::move(name), std::move(predictor), options);
}

ModelMonitor::ModelMonitor(
    std::string name, std::shared_ptr<const PerformancePredictor> predictor,
    Options options)
    : name_(std::move(name)),
      predictor_(std::move(predictor)),
      options_(options) {
  stats::QuantileSketch::Options sketch_options;
  sketch_options.resolution_bits = options_.sketch_resolution_bits;
  window_sum_ = stats::QuantileSketchBank(0, sketch_options);
}

common::Result<ModelMonitor::BatchReport> ModelMonitor::Observe(
    const linalg::Matrix& probabilities) {
  const common::telemetry::TraceSpan span("monitor.observe_from_proba");
  if (probabilities.rows() == 0) {
    return common::Status::InvalidArgument("empty serving batch");
  }
  // A serving stream must degrade recoverably: NaN/Inf is rejected before
  // anything sorts the batch, by the window sum's scan in windowed mode and
  // by the exact estimate's own scan in classic mode.
  if (windowed()) BBV_RETURN_NOT_OK(AddToWindow(probabilities));
  common::Result<ScoreEstimate> estimate =
      predictor_->EstimateScoreFromProba(probabilities);
  if (estimate.ok() && !std::isfinite(estimate->point)) {
    // Never let NaN/Inf flow into reports, history or alarm decisions.
    common::telemetry::IncrementCounter("monitor.nonfinite_estimates");
    estimate = common::Status::Internal(
        "performance predictor produced a non-finite estimate");
  }
  if (!estimate.ok()) {
    if (windowed()) BBV_CHECK(window_sum_.Retract(probabilities).ok());
    return estimate.status();
  }
  BatchReport report;
  report.estimate = *estimate;
  report.relative_drop = Drop(estimate->point);
  report.certified_drop = Drop(estimate->hi);
  if (windowed()) {
    BBV_RETURN_NOT_OK(StepWindow(probabilities, report));
  } else {
    report.alarm = (options_.alarm_policy == AlarmPolicy::kCertifiedDrop
                        ? report.certified_drop
                        : report.relative_drop) >= options_.alarm_threshold;
    CountBatch(probabilities.rows(), report);
  }
  report.latency_seconds = span.ElapsedSeconds();
  history_.push_back(report);
  if (history_.size() > options_.history_limit) history_.pop_front();
  return report;
}

common::Result<ModelMonitor::BatchReport> ModelMonitor::ObserveWindow(
    const linalg::Matrix& probabilities) {
  const common::telemetry::TraceSpan span("monitor.observe_window");
  if (!windowed()) {
    return common::Status::FailedPrecondition(
        "ObserveWindow on a monitor without a window");
  }
  if (probabilities.rows() == 0) {
    return common::Status::InvalidArgument("empty serving batch");
  }
  BBV_RETURN_NOT_OK(AddToWindow(probabilities));
  BatchReport report;
  BBV_RETURN_NOT_OK(StepWindow(probabilities, report));
  report.latency_seconds = span.ElapsedSeconds();
  return report;
}

common::Status ModelMonitor::AddToWindow(const linalg::Matrix& probabilities) {
  const size_t classes = predictor_->feature_dimension() /
                         predictor_->percentile_points().size();
  if (probabilities.cols() != classes) {
    // NaN/Inf is reported before the class count, whatever the width.
    const common::Status finite = CheckFiniteProbabilities(probabilities);
    if (!finite.ok()) {
      common::telemetry::IncrementCounter("monitor.nonfinite_inputs");
      return finite;
    }
    return common::Status::InvalidArgument(
        "serving batch has " + std::to_string(probabilities.cols()) +
        " classes but the predictor was trained on " +
        std::to_string(classes));
  }
  const common::Status added = window_sum_.Observe(probabilities);
  if (!added.ok()) {
    common::telemetry::IncrementCounter("monitor.nonfinite_inputs");
    std::string message = "serving batch contains a ";
    message += added.message();
    return common::Status::InvalidArgument(std::move(message));
  }
  return common::Status::OK();
}

common::Status ModelMonitor::StepWindow(const linalg::Matrix& probabilities,
                                        BatchReport& report) {
  // The sum holds this batch plus the most recent window_batches - 1
  // retained ones: alarm on recent traffic, not all-time aggregates.
  common::Result<ScoreEstimate> windowed_estimate =
      predictor_->EstimateScoreFromStatistics(
          window_sum_.PercentileFeatures(predictor_->percentile_points()));
  if (windowed_estimate.ok() && !std::isfinite(windowed_estimate->point)) {
    common::telemetry::IncrementCounter("monitor.nonfinite_estimates");
    windowed_estimate = common::Status::Internal(
        "performance predictor produced a non-finite windowed estimate");
  }
  if (!windowed_estimate.ok()) {
    // A failed batch never joins the window.
    BBV_CHECK(window_sum_.Retract(probabilities).ok());
    return windowed_estimate.status();
  }
  report.windowed_estimate = *windowed_estimate;
  report.windowed_relative_drop = Drop(windowed_estimate->point);
  report.windowed_certified_drop = Drop(windowed_estimate->hi);
  report.window_batches_used =
      std::min(window_.size(), options_.window_batches - 1) + 1;
  report.window_rows = window_sum_.rows_observed();
  report.alarm = (options_.alarm_policy == AlarmPolicy::kCertifiedDrop
                      ? report.windowed_certified_drop
                      : report.windowed_relative_drop) >=
                 options_.alarm_threshold;
  // Slide the window. The next batch shares only the newest
  // window_batches - 1 batches, so the oldest batch of this report's window
  // leaves the sum now; the ring keeps it until the next batch commits and
  // evicts it.
  window_.push_back(probabilities);
  if (window_.size() >= options_.window_batches) {
    BBV_CHECK(
        window_sum_.Retract(window_[window_.size() - options_.window_batches])
            .ok());
  }
  if (window_.size() > options_.window_batches) {
    window_.pop_front();
    common::telemetry::IncrementCounter("monitor.window_evictions");
  }
  CountBatch(probabilities.rows(), report);
  return common::Status::OK();
}

void ModelMonitor::CountBatch(size_t rows, BatchReport& report) {
  report.rows = rows;
  report.reference_score = predictor_->test_score();
  report.batch_id = batches_observed_++;
  if (report.alarm) {
    ++alarms_raised_;
    common::telemetry::IncrementCounter("monitor.alarms");
  }
  common::telemetry::IncrementCounter("monitor.batches");
  common::telemetry::IncrementCounter("monitor.rows", rows);
  report.alarms_total = alarms_raised_;
  report.epoch = epoch_;
  report.estimate_calls_total =
      common::telemetry::ReadCounter("predictor.estimate.calls");
}

double ModelMonitor::Drop(double score) const {
  // The constructor and SwapPredictor guarantee a finite, strictly
  // positive reference.
  const double reference = predictor_->test_score();
  return (reference - score) / reference;
}

void ModelMonitor::ClearWindow() {
  window_.clear();
  window_sum_ = stats::QuantileSketchBank(0, window_sum_.options());
}

common::Status ModelMonitor::SwapPredictor(
    std::shared_ptr<const PerformancePredictor> predictor) {
  if (predictor == nullptr || !predictor->trained()) {
    return common::Status::FailedPrecondition(
        "SwapPredictor needs a trained performance predictor");
  }
  BBV_RETURN_NOT_OK(ValidatePredictorReference(*predictor));
  // Epoch boundary: the retained window batches were served under the old
  // predictor's reference score; scoring them with the new predictor would
  // alarm against a reference they never ran under. Drop them so the first
  // post-swap report windows over exactly the batches of the new epoch.
  ClearWindow();
  predictor_ = std::move(predictor);
  ++epoch_;
  common::telemetry::IncrementCounter("monitor.predictor_swaps");
  return common::Status::OK();
}

double ModelMonitor::AlarmRate() const {
  return batches_observed_ == 0
             ? 0.0
             : static_cast<double>(alarms_raised_) /
                   static_cast<double>(batches_observed_);
}

std::string ModelMonitor::Summary() const {
  std::ostringstream os;
  os << "ModelMonitor(" << name_ << "): " << batches_observed_
     << " batches observed, " << alarms_raised_ << " alarms (rate "
     << AlarmRate() << ")\n";
  os << "reference score: " << predictor_->test_score() << " (alarm at >= "
     << options_.alarm_threshold << " "
     << (options_.alarm_policy == AlarmPolicy::kCertifiedDrop
             ? "certified drop — the interval must cross"
             : "point-estimate drop")
     << ")\n";
  if (windowed()) {
    os << "sliding window: last " << options_.window_batches
       << " batches, sketched at 2^" << options_.sketch_resolution_bits
       << " cells per class";
    if (!history_.empty()) {
      const BatchReport& last = history_.back();
      os << "; current windowed estimate " << last.windowed_estimate.point
         << " [" << last.windowed_estimate.lo << ", "
         << last.windowed_estimate.hi << "] (" << last.window_batches_used
         << " batches, " << last.window_rows << " rows)";
    }
    os << "\n";
  }
  if (!history_.empty()) {
    std::vector<double> estimates;
    std::vector<double> widths;
    std::vector<double> latencies;
    estimates.reserve(history_.size());
    widths.reserve(history_.size());
    latencies.reserve(history_.size());
    for (const BatchReport& report : history_) {
      estimates.push_back(report.estimate.point);
      widths.push_back(report.estimate.width());
      latencies.push_back(report.latency_seconds);
    }
    // One sort per metric family, arbitrarily many quantiles after.
    const stats::SortedView estimate_view(std::move(estimates));
    os << "recent estimates (" << history_.size()
       << " batches): p5=" << estimate_view.Percentile(5.0)
       << " median=" << estimate_view.Median()
       << " p95=" << estimate_view.Percentile(95.0) << "\n";
    const stats::SortedView width_view(std::move(widths));
    os << "interval width (coverage "
       << history_.back().estimate.coverage_level
       << "): p50=" << width_view.Median()
       << " p95=" << width_view.Percentile(95.0) << "\n";
    const stats::SortedView latency_view(std::move(latencies));
    os << "batch latency: p50=" << latency_view.Median() * 1e3
       << "ms p95=" << latency_view.Percentile(95.0) * 1e3
       << "ms max=" << latency_view.Max() * 1e3 << "ms\n";
  }
  return os.str();
}

std::string ModelMonitor::ExportJson() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\n";
  os << "  \"monitor\": {\n";
  os << "    \"model\": \"" << name_ << "\",\n";
  os << "    \"reference_score\": " << predictor_->test_score() << ",\n";
  os << "    \"alarm_threshold\": " << options_.alarm_threshold << ",\n";
  os << "    \"alarm_policy\": \""
     << (options_.alarm_policy == AlarmPolicy::kCertifiedDrop
             ? "certified_drop"
             : "point_drop")
     << "\",\n";
  os << "    \"coverage_level\": " << predictor_->coverage_level() << ",\n";
  os << "    \"history_limit\": " << options_.history_limit << ",\n";
  // Windowed configuration only when a window exists: a classic monitor
  // used to emit "window_batches": 0, which read as a degenerate 0-batch
  // window instead of "not windowed".
  if (windowed()) {
    os << "    \"window_batches\": " << options_.window_batches << ",\n";
  }
  os << "    \"predictor_epoch\": " << epoch_ << ",\n";
  os << "    \"batches_observed\": " << batches_observed_ << ",\n";
  os << "    \"alarms_raised\": " << alarms_raised_ << ",\n";
  os << "    \"alarm_rate\": " << AlarmRate() << ",\n";
  os << "    \"history\": [\n";
  for (size_t i = 0; i < history_.size(); ++i) {
    const BatchReport& report = history_[i];
    os << "      {\"batch_id\": " << report.batch_id
       << ", \"rows\": " << report.rows
       << ", \"estimated_score\": " << report.estimate.point
       << ", \"estimate_lo\": " << report.estimate.lo
       << ", \"estimate_hi\": " << report.estimate.hi
       << ", \"estimate_width\": " << report.estimate.width()
       << ", \"coverage_level\": " << report.estimate.coverage_level
       << ", \"relative_drop\": " << report.relative_drop
       << ", \"certified_drop\": " << report.certified_drop
       << ", \"alarm\": " << (report.alarm ? "true" : "false")
       << ", \"latency_seconds\": " << report.latency_seconds
       << ", \"estimate_calls_total\": " << report.estimate_calls_total
       << ", \"alarms_total\": " << report.alarms_total
       << ", \"epoch\": " << report.epoch;
    if (windowed()) {
      os << ", \"windowed_estimate\": " << report.windowed_estimate.point
         << ", \"windowed_lo\": " << report.windowed_estimate.lo
         << ", \"windowed_hi\": " << report.windowed_estimate.hi
         << ", \"windowed_relative_drop\": " << report.windowed_relative_drop
         << ", \"windowed_certified_drop\": "
         << report.windowed_certified_drop
         << ", \"window_batches_used\": " << report.window_batches_used
         << ", \"window_rows\": " << report.window_rows;
    }
    os << "}" << (i + 1 < history_.size() ? "," : "") << "\n";
  }
  os << "    ]\n";
  os << "  }\n";
  os << "}\n";
  return os.str();
}

}  // namespace bbv::core
