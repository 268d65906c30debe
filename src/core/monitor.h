#ifndef BBV_CORE_MONITOR_H_
#define BBV_CORE_MONITOR_H_

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/performance_predictor.h"
#include "linalg/matrix.h"
#include "stats/quantile_sketch.h"

namespace bbv::core {

/// Serving-time monitor (the "end user or serving system inspects estimated
/// score" step from the paper's Figure 1): scores batches of the black box's
/// predicted class probabilities with a trained performance predictor, keeps
/// a bounded history of estimates, and renders an operations summary plus a
/// machine-readable JSON serving log. Like the paper's Algorithm 2 it reads
/// only the model's output distribution and never calls the model, so it
/// runs next to whatever system serves the black box.
///
/// Hardening contract: the clean-test reference score must be finite and
/// strictly positive — a degenerate reference used to silently force
/// relative_drop to 0 so alarms could never fire. CreateForProba, the one
/// way to build a monitor, rejects it with a Status.
class ModelMonitor {
 public:
  /// What the alarm thresholds on. The estimate is an interval now
  /// (core::ScoreEstimate), so "the score dropped" is a statement with an
  /// uncertainty attached:
  ///  * kCertifiedDrop (default) alarms when the *interval* has crossed
  ///    the drop threshold — even the optimistic endpoint (hi) shows a
  ///    relative drop >= alarm_threshold, i.e. the calibrated interval
  ///    certifies the drop at the estimate's coverage level. Estimation
  ///    noise inside the interval can no longer fire spurious alarms.
  ///  * kPointDrop alarms on the raw point estimate's drop (the
  ///    pre-interval behavior, and what both policies degrade to when the
  ///    predictor is uncalibrated).
  enum class AlarmPolicy {
    kCertifiedDrop,
    kPointDrop,
  };

  struct Options {
    /// Relative quality drop that raises an alarm (e.g. 0.05 = 5%). An
    /// alarm fires when the policy-selected drop >= alarm_threshold.
    double alarm_threshold = 0.05;
    /// Which drop the alarm thresholds on (see AlarmPolicy).
    AlarmPolicy alarm_policy = AlarmPolicy::kCertifiedDrop;
    /// Maximum batch reports retained (older entries are dropped). Observe
    /// records one report per accepted batch; ObserveWindow records none.
    size_t history_limit = 1000;
    /// Sliding-window mode: when positive, the monitor alarms on the
    /// *windowed* estimate over the last `window_batches` mini-batches, so
    /// alarms reflect recent traffic instead of all-time aggregates. The
    /// window is one running per-class sketch sum (num_classes *
    /// 2^sketch_resolution_bits cells) plus the probability matrices of the
    /// retained batches (window_batches * rows * num_classes doubles): each
    /// batch is added to the sum and the batch leaving the window is
    /// retracted from it, so a batch costs O(rows) whatever the window
    /// length. 0 keeps the classic per-batch mode, the only one that alarms
    /// on the paper's exact per-batch statistics: a one-batch window alarms
    /// on sketch-quantized statistics instead.
    size_t window_batches = 0;
    /// Sketch resolution of the window sum (see
    /// stats::QuantileSketch::Options); only used when window_batches > 0.
    int sketch_resolution_bits = 12;
  };

  /// Assessment of one serving batch.
  struct BatchReport {
    size_t batch_id = 0;
    size_t rows = 0;
    /// Predictor estimate of the score on this batch, with its conformal
    /// interval (degenerate when the predictor is uncalibrated).
    ScoreEstimate estimate;
    /// Clean-test reference score l_test.
    double reference_score = 0.0;
    /// (reference - estimate.point) / reference; positive = estimated drop.
    double relative_drop = 0.0;
    /// (reference - estimate.hi) / reference: the drop even the interval's
    /// optimistic endpoint concedes — what kCertifiedDrop alarms on.
    /// Equals relative_drop for degenerate estimates.
    double certified_drop = 0.0;
    bool alarm = false;
    /// Wall-clock seconds spent scoring this batch (predictor featurization
    /// + forest inference; the model's inference ran before the monitor saw
    /// the batch). 0 when telemetry is disabled (BBV_TELEMETRY=off).
    double latency_seconds = 0.0;
    /// Telemetry snapshot at report time: process-wide count of predictor
    /// estimate calls, for cross-referencing this serving log against the
    /// telemetry JSON export. 0 when telemetry is disabled.
    uint64_t estimate_calls_total = 0;
    /// Alarms this monitor has raised up to and including this report.
    size_t alarms_total = 0;
    /// Sliding-window fields; meaningful only when Options::window_batches
    /// is positive. The estimate over the sketched rows of the last
    /// `window_batches_used` batches, and its drops — this is what drives
    /// the alarm in window mode.
    ScoreEstimate windowed_estimate;
    double windowed_relative_drop = 0.0;
    /// Certified drop of the windowed interval (see certified_drop).
    double windowed_certified_drop = 0.0;
    /// Batches covered by the windowed estimate (<= window_batches).
    size_t window_batches_used = 0;
    /// Rows covered by the windowed estimate.
    uint64_t window_rows = 0;
    /// Predictor epoch this batch was scored under: 0 for the predictor the
    /// monitor was created with, incremented by every SwapPredictor. In
    /// windowed mode a swap also clears the window, so all
    /// window_batches_used batches of a report belong to the same epoch.
    uint64_t epoch = 0;
  };

  /// The factory: rejects a null or untrained predictor, an alarm threshold
  /// outside (0, 1), a zero history limit, a sketch resolution outside
  /// [1, 24] in windowed mode and a non-finite or non-positive reference
  /// score, with a Status instead of a crash. `name` labels the monitor in
  /// Summary()/ExportJson(); the predictor is shared, not copied, so
  /// thousands of tenants can monitor against one deployed forest.
  static common::Result<ModelMonitor> CreateForProba(
      std::string name,
      std::shared_ptr<const PerformancePredictor> predictor, Options options);

  /// Scores one batch of predicted class probabilities — its exact
  /// estimate, then in windowed mode the windowed step ObserveWindow runs —
  /// and appends the report to the history. Rejects empty batches, NaN/Inf
  /// probabilities and non-finite estimates (none pollutes the history or
  /// the window), and returns the report — callers must consume it (or at
  /// minimum its Status; the status-discard lint flags drops).
  common::Result<BatchReport> Observe(const linalg::Matrix& probabilities);

  /// The windowed step of Observe alone, for callers that score the batch
  /// elsewhere (the multi-tenant service estimates from its own sketches):
  /// adds the batch to the window, scores the window, decides the alarm
  /// and counts the batch exactly as Observe does, but computes no exact
  /// per-batch estimate and records no history. The report's windowed
  /// fields, alarm, counters and the window state that follows are those
  /// Observe gives on the same stream; `estimate` and its drops stay
  /// default. Windowed monitors only (FailedPrecondition otherwise).
  common::Result<BatchReport> ObserveWindow(
      const linalg::Matrix& probabilities);

  /// Deploys a retrained predictor (tenant hot-swap). This is an *epoch
  /// boundary*: the window is cleared, because its batches were
  /// scored under the old predictor's reference — mixing them into a window
  /// estimated by the new predictor would alarm (or fail to alarm) against
  /// a reference the batches were never served under. The first report
  /// after a swap therefore has window_batches_used == 1 and carries the
  /// incremented epoch. Rejects a null/untrained predictor and a
  /// non-finite or non-positive reference score (the monitor keeps its old
  /// predictor on rejection).
  common::Status SwapPredictor(
      std::shared_ptr<const PerformancePredictor> predictor);

  /// Epoch boundaries crossed so far (== accepted SwapPredictor calls).
  uint64_t epoch() const { return epoch_; }

  const std::deque<BatchReport>& history() const { return history_; }
  size_t batches_observed() const { return batches_observed_; }
  size_t alarms_raised() const { return alarms_raised_; }
  /// Fraction of observed batches that alarmed; 0 before any observation.
  double AlarmRate() const;

  /// Multi-line human-readable summary: batches seen, alarm count and rate,
  /// the distribution of recent estimates, and per-batch latency
  /// percentiles from the retained history.
  std::string Summary() const;

  /// Machine-readable serving log: monitor configuration, aggregate alarm
  /// statistics, and one JSON object per retained batch report.
  std::string ExportJson() const;

  /// True when the monitor alarms on windowed estimates.
  bool windowed() const { return options_.window_batches > 0; }

  /// Drops the window — retained batches and the sketch sum, releasing
  /// their memory — without observing anything: the same epoch boundary
  /// SwapPredictor enforces, for callers that invalidate the window by
  /// other means (e.g. the tenant registry evicting a cold tenant and
  /// rehydrating it later). No-op in classic mode.
  void ClearWindow();

 private:
  ModelMonitor(std::string name,
               std::shared_ptr<const PerformancePredictor> predictor,
               Options options);

  /// Adds a non-empty batch to window_sum_: the batch's one finiteness
  /// scan. Rejects NaN/Inf, then a class count the predictor was not
  /// trained on; a rejected batch changes nothing.
  common::Status AddToWindow(const linalg::Matrix& probabilities);
  /// The windowed step after AddToWindow: scores the window, sets the
  /// windowed fields and the alarm, slides the window and counts the batch.
  /// On a non-finite windowed estimate it retracts the batch and fails.
  common::Status StepWindow(const linalg::Matrix& probabilities,
                            BatchReport& report);
  /// Per-batch bookkeeping shared by both modes once the alarm is decided.
  void CountBatch(size_t rows, BatchReport& report);
  /// (reference - score) / reference.
  double Drop(double score) const;

  /// Label for Summary()/ExportJson().
  std::string name_;
  std::shared_ptr<const PerformancePredictor> predictor_;
  Options options_;
  std::deque<BatchReport> history_;
  /// The batches of the latest windowed report, newest at the back; at
  /// most options_.window_batches. Empty in classic mode.
  std::deque<linalg::Matrix> window_;
  /// Running cell-count sum over the newest window_batches - 1 entries of
  /// window_ — the part of the window the next batch shares. Adding a
  /// batch and retracting the one that leaves is exact (integer counts),
  /// so it equals the merge of those batches' sketches bit for bit.
  stats::QuantileSketchBank window_sum_;
  size_t batches_observed_ = 0;
  size_t alarms_raised_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace bbv::core

#endif  // BBV_CORE_MONITOR_H_
