#ifndef BBV_PERFBENCH_WORKLOADS_H_
#define BBV_PERFBENCH_WORKLOADS_H_

#include "perfbench/harness.h"

namespace bbv::perfbench {

/// serve_fleet — probability matrices straight into ValidatorService.
/// Zipf(1.1)-popular, bursty ~100-row requests over 1000 unmonitored
/// tenants sharing 3 predictors; LRU residency cap at 1/4 of the tenants;
/// the hottest tenants are hot-swapped mid-trace; closed-loop client that
/// flushes every 64 requests.
/// Why: per-request sketch cost (ingest, then a 4096-cell percentile scan
/// per column) and eviction/rehydration dominate; the monitor and the
/// black box do no work.
WorkloadResult RunServeFleet(const RunOptions& options);

/// serve_monitored — DataFrame ingress. Set-up trains an Algorithm 1
/// predictor for an income/lr black box; every tenant replays one of the
/// five errors::StandardDriftScenarios streams (frames pre-generated,
/// distinct seed per tenant); each request runs PredictProba, then Submit;
/// every tenant has a windowed monitor and there is no residency cap.
/// Why: the monitored path dominates (three forest evaluations, two
/// ingests, window re-merge per request), the sketch is used with two
/// ingests, repeated merges and two queries per request, and eviction
/// does no work. Black-box inference is the share no validator change
/// can move.
WorkloadResult RunServeMonitored(const RunOptions& options);

/// meta_train — Algorithm 1 over the fig2 tabular grid: {lr, xgb} x
/// {income, heart} x the 4 known error generators, one predictor per cell
/// at paper settings (tree grid {25, 50, 100}, 5-fold CV, conformal
/// calibration on), each scored on fig2's corrupted serving repetitions.
/// Why: the offline half; the forest fit (CV grid, final fit, calibration)
/// and the corrupt/predict/statistics collection dominate, and the serving
/// layers do no work.
WorkloadResult RunMetaTrain(const RunOptions& options);

}  // namespace bbv::perfbench

#endif  // BBV_PERFBENCH_WORKLOADS_H_
