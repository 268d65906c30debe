#include "serve/validator_service.h"

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/telemetry.h"

namespace bbv::serve {

common::Status ValidatorService::CreateTenant(
    const std::string& model_id,
    std::shared_ptr<const core::PerformancePredictor> predictor,
    const TenantOptions& options) {
  if (model_id.empty()) {
    return common::Status::InvalidArgument("model id must be non-empty");
  }
  // Build the per-tenant machinery before taking the lock; the factories
  // carry all the validation (trained predictor, sane resolutions, ...).
  BBV_ASSIGN_OR_RETURN(StreamingScorer scorer,
                       StreamingScorer::Create(predictor, options.scorer));
  std::optional<core::ModelMonitor> monitor;
  if (options.window_batches > 0) {
    core::ModelMonitor::Options monitor_options;
    monitor_options.alarm_threshold = options.alarm_threshold;
    monitor_options.alarm_policy = options.alarm_policy;
    monitor_options.history_limit = options.history_limit;
    monitor_options.window_batches = options.window_batches;
    monitor_options.sketch_resolution_bits = options.monitor_resolution_bits;
    BBV_ASSIGN_OR_RETURN(monitor,
                         core::ModelMonitor::CreateForProba(
                             model_id, predictor, monitor_options));
  }
  const common::MutexLock lock(mutex_);
  if (tenants_.find(model_id) != tenants_.end()) {
    return common::Status::AlreadyExists("tenant '" + model_id +
                                         "' is already registered");
  }
  Tenant& tenant = tenants_[model_id];
  tenant.predictor = std::move(predictor);
  tenant.options = options;
  tenant.scorer.emplace(std::move(scorer));
  tenant.monitor = std::move(monitor);
  tenant.last_touch = ++touch_clock_;
  common::telemetry::IncrementCounter("serve.service.tenants_created");
  EnforceResidencyCap();
  return common::Status::OK();
}

common::Status ValidatorService::RemoveTenant(const std::string& model_id) {
  const common::MutexLock lock(mutex_);
  const auto it = tenants_.find(model_id);
  if (it == tenants_.end()) {
    return common::Status::NotFound("unknown tenant '" + model_id + "'");
  }
  tenants_.erase(it);
  common::telemetry::IncrementCounter("serve.service.tenants_removed");
  return common::Status::OK();
}

uint64_t ValidatorService::Submit(const std::string& model_id,
                                  linalg::Matrix probabilities) {
  const common::MutexLock lock(mutex_);
  PendingOp op;
  op.request_id = next_request_id_++;
  op.model_id = model_id;
  op.probabilities = std::move(probabilities);
  pending_.push_back(std::move(op));
  common::telemetry::IncrementCounter("serve.service.requests");
  return pending_.back().request_id;
}

uint64_t ValidatorService::SubmitSwap(
    const std::string& model_id,
    std::shared_ptr<const core::PerformancePredictor> predictor) {
  const common::MutexLock lock(mutex_);
  PendingOp op;
  op.request_id = next_request_id_++;
  op.model_id = model_id;
  op.is_swap = true;
  op.predictor = std::move(predictor);
  pending_.push_back(std::move(op));
  common::telemetry::IncrementCounter("serve.service.swap_requests");
  return pending_.back().request_id;
}

common::Status ValidatorService::ApplySwap(
    Tenant& tenant,
    std::shared_ptr<const core::PerformancePredictor> predictor) {
  BBV_CHECK(tenant.scorer.has_value()) << "swap on a non-resident tenant";
  const std::shared_ptr<const core::PerformancePredictor> previous =
      tenant.scorer->shared_predictor();
  BBV_RETURN_NOT_OK(tenant.scorer->SwapPredictor(predictor));
  if (tenant.monitor.has_value()) {
    const common::Status monitor_swap =
        tenant.monitor->SwapPredictor(predictor);
    if (!monitor_swap.ok()) {
      // Keep scorer and monitor on the same predictor: roll the scorer
      // back (same class count, so this cannot fail) and reject the swap.
      BBV_CHECK(tenant.scorer->SwapPredictor(previous).ok());
      return monitor_swap;
    }
  }
  tenant.predictor = std::move(predictor);
  ++tenant.epoch;
  common::telemetry::IncrementCounter("serve.service.swaps");
  return common::Status::OK();
}

void ValidatorService::ProcessTenantOps(
    Tenant& tenant, const std::vector<PendingOp>& ops,
    const std::vector<size_t>& op_indices,
    std::vector<ScoreResponse>& responses) {
  // Indices into op_indices whose ingest succeeded but whose estimate is
  // still pending, plus their post-ingest percentile feature rows. One
  // kernel batch call scores the whole run when the segment closes (at a
  // hot-swap or at the end of the tenant's queue).
  std::vector<size_t> run;
  std::vector<std::vector<double>> run_features;
  const auto close_segment = [&]() {
    if (run.empty()) return;
    const size_t dimension = tenant.predictor->feature_dimension();
    linalg::Matrix statistics(run.size(), dimension);
    for (size_t i = 0; i < run.size(); ++i) {
      BBV_CHECK(run_features[i].size() == dimension);
      std::copy(run_features[i].begin(), run_features[i].end(),
                statistics.RowData(i));
    }
    std::vector<core::ScoreEstimate> estimates(run.size());
    // The coalesced path: one ForestKernel batch call for the whole run,
    // bit-identical per row (point and interval) to
    // StreamingScorer::EstimateScore.
    const common::Status scored = tenant.predictor->EstimateScoresFromStatistics(
        statistics, std::span<core::ScoreEstimate>(estimates));
    for (size_t i = 0; i < run.size(); ++i) {
      ScoreResponse& response = responses[op_indices[run[i]]];
      if (scored.ok()) {
        response.estimate = estimates[i];
      } else {
        response.status = scored;
      }
    }
    common::telemetry::IncrementCounter("serve.service.kernel_batches");
    common::telemetry::IncrementCounter("serve.service.coalesced_requests",
                                        run.size());
    run.clear();
    run_features.clear();
  };

  for (size_t position = 0; position < op_indices.size(); ++position) {
    const PendingOp& op = ops[op_indices[position]];
    ScoreResponse& response = responses[op_indices[position]];
    if (op.is_swap) {
      // Requests submitted before the swap must be scored by the predictor
      // they were submitted under; close their batch before switching.
      close_segment();
      response.status = ApplySwap(tenant, op.predictor);
      response.epoch = tenant.epoch;
      continue;
    }
    const common::Status ingested = tenant.scorer->Ingest(op.probabilities);
    if (!ingested.ok()) {
      common::telemetry::IncrementCounter("serve.service.request_errors");
      response.status = ingested;
      continue;
    }
    response.rows_ingested = tenant.scorer->rows_ingested();
    response.epoch = tenant.epoch;
    const common::Result<std::vector<double>> features =
        tenant.scorer->PercentileFeatures();
    if (!features.ok()) {
      response.status = features.status();
      continue;
    }
    run.push_back(position);
    run_features.push_back(*features);
    if (tenant.monitor.has_value()) {
      response.monitored = true;
      // The request's own estimate comes from the scorer's sketches above;
      // the monitor only runs its windowed step.
      const common::Result<core::ModelMonitor::BatchReport> report =
          tenant.monitor->ObserveWindow(op.probabilities);
      if (report.ok()) {
        response.alarm = report->alarm;
        response.windowed_estimate = report->windowed_estimate;
        response.windowed_relative_drop = report->windowed_relative_drop;
        response.windowed_certified_drop = report->windowed_certified_drop;
      }
      // A monitor failure is not a scoring failure: the estimate is still
      // delivered, the window just skips the batch (same contract as a
      // standalone ModelMonitor rejecting a batch).
    }
  }
  close_segment();
}

std::vector<ValidatorService::ScoreResponse> ValidatorService::Flush() {
  const common::telemetry::TraceSpan span("serve.service.flush");
  const common::MutexLock lock(mutex_);
  std::vector<PendingOp> ops;
  ops.swap(pending_);
  std::vector<ScoreResponse> responses(ops.size());
  if (ops.empty()) return responses;

  // Group the drained queue by tenant, preserving submission order within
  // each tenant; `order` remembers first-appearance order so the fan-out
  // below and the LRU stamps are deterministic.
  std::map<std::string, std::vector<size_t>> by_tenant;
  std::vector<std::string> order;
  for (size_t i = 0; i < ops.size(); ++i) {
    responses[i].request_id = ops[i].request_id;
    responses[i].model_id = ops[i].model_id;
    responses[i].is_swap = ops[i].is_swap;
    auto [it, inserted] = by_tenant.try_emplace(ops[i].model_id);
    if (inserted) order.push_back(ops[i].model_id);
    it->second.push_back(i);
  }

  // Resolve tenants and rehydrate serially (rehydration mutates the
  // registry and the order of rehydrations must not depend on BBV_THREADS).
  struct TenantWork {
    Tenant* tenant = nullptr;
    const std::vector<size_t>* op_indices = nullptr;
  };
  std::vector<TenantWork> work;
  work.reserve(order.size());
  for (const std::string& model_id : order) {
    const std::vector<size_t>& op_indices = by_tenant.at(model_id);
    const auto it = tenants_.find(model_id);
    common::Status resolve = common::Status::OK();
    if (it == tenants_.end()) {
      resolve = common::Status::NotFound("unknown tenant '" + model_id + "'");
    } else {
      resolve = EnsureResident(it->second);
    }
    if (!resolve.ok()) {
      for (const size_t i : op_indices) responses[i].status = resolve;
      common::telemetry::IncrementCounter("serve.service.request_errors",
                                          op_indices.size());
      continue;
    }
    it->second.last_touch = ++touch_clock_;
    work.push_back({&it->second, &op_indices});
  }

  // Fan the tenants out over the shared pool: each task owns one tenant's
  // state and disjoint response slots, so results are byte-identical at
  // every BBV_THREADS setting. Per-op statuses carry all failures, so the
  // tasks themselves never fail.
  const common::Status fanned_out = common::ParallelFor(
      work.size(), [&](size_t t) -> common::Status {
        ProcessTenantOps(*work[t].tenant, ops, *work[t].op_indices,
                         responses);
        return common::Status::OK();
      });
  BBV_CHECK(fanned_out.ok()) << fanned_out.ToString();

  EnforceResidencyCap();
  common::telemetry::IncrementCounter("serve.service.flushes");
  return responses;
}

ValidatorService::ScoreResponse ValidatorService::Score(
    const std::string& model_id, linalg::Matrix probabilities) {
  const uint64_t request_id = Submit(model_id, std::move(probabilities));
  const std::vector<ScoreResponse> responses = Flush();
  for (const ScoreResponse& response : responses) {
    if (response.request_id == request_id) return response;
  }
  // Another concurrent Flush drained our request; its responses are lost to
  // us by contract (see the header), so report the race explicitly.
  ScoreResponse response;
  response.request_id = request_id;
  response.model_id = model_id;
  response.status = common::Status::Internal(
      "request was flushed by a concurrent caller; use Submit/Flush to "
      "collect responses under concurrency");
  return response;
}

common::Result<core::ScoreEstimate> ValidatorService::EstimateScore(
    const std::string& model_id) {
  const common::MutexLock lock(mutex_);
  const auto it = tenants_.find(model_id);
  if (it == tenants_.end()) {
    return common::Status::NotFound("unknown tenant '" + model_id + "'");
  }
  BBV_RETURN_NOT_OK(EnsureResident(it->second));
  it->second.last_touch = ++touch_clock_;
  return it->second.scorer->EstimateScore();
}

common::Status ValidatorService::SaveTenantState(const std::string& model_id,
                                                 std::ostream& out) const {
  const common::MutexLock lock(mutex_);
  const auto it = tenants_.find(model_id);
  if (it == tenants_.end()) {
    return common::Status::NotFound("unknown tenant '" + model_id + "'");
  }
  if (it->second.scorer.has_value()) {
    return it->second.scorer->SaveState(out);
  }
  // Evicted: the cold store already holds the canonical SaveState bytes.
  out.write(it->second.cold_state.data(),
            static_cast<std::streamsize>(it->second.cold_state.size()));
  if (!out.good()) {
    return common::Status::Internal("failed to write tenant state");
  }
  return common::Status::OK();
}

common::Result<ValidatorService::TenantInfo> ValidatorService::GetTenantInfo(
    const std::string& model_id) const {
  const common::MutexLock lock(mutex_);
  const auto it = tenants_.find(model_id);
  if (it == tenants_.end()) {
    return common::Status::NotFound("unknown tenant '" + model_id + "'");
  }
  const Tenant& tenant = it->second;
  TenantInfo info;
  info.epoch = tenant.epoch;
  info.resident = tenant.scorer.has_value();
  info.monitored = tenant.monitor.has_value();
  if (tenant.monitor.has_value()) {
    info.monitor_alarms = tenant.monitor->alarms_raised();
  }
  if (tenant.scorer.has_value()) {
    info.rows_ingested = tenant.scorer->rows_ingested();
  } else {
    // Parsing the cold bytes just for a row count is not worth it; an
    // evicted tenant reports the rows at eviction time instead.
    info.rows_ingested = tenant.cold_rows;
  }
  return info;
}

size_t ValidatorService::num_tenants() const {
  const common::MutexLock lock(mutex_);
  return tenants_.size();
}

size_t ValidatorService::num_resident() const {
  const common::MutexLock lock(mutex_);
  size_t resident = 0;
  for (const auto& [model_id, tenant] : tenants_) {
    if (tenant.scorer.has_value()) ++resident;
  }
  return resident;
}

size_t ValidatorService::num_pending() const {
  const common::MutexLock lock(mutex_);
  return pending_.size();
}

common::Status ValidatorService::EnsureResident(Tenant& tenant) {
  if (tenant.scorer.has_value()) return common::Status::OK();
  BBV_ASSIGN_OR_RETURN(
      StreamingScorer scorer,
      StreamingScorer::Create(tenant.predictor, tenant.options.scorer));
  std::istringstream in(tenant.cold_state);
  BBV_RETURN_NOT_OK(scorer.LoadState(in));
  tenant.scorer.emplace(std::move(scorer));
  tenant.cold_state.clear();
  tenant.cold_state.shrink_to_fit();
  common::telemetry::IncrementCounter("serve.service.rehydrations");
  return common::Status::OK();
}

void ValidatorService::EnforceResidencyCap() {
  if (options_.max_resident_tenants == 0) return;
  while (true) {
    size_t resident = 0;
    std::map<std::string, Tenant>::iterator coldest = tenants_.end();
    for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
      if (!it->second.scorer.has_value()) continue;
      ++resident;
      if (coldest == tenants_.end() ||
          it->second.last_touch < coldest->second.last_touch) {
        coldest = it;
      }
    }
    if (resident <= options_.max_resident_tenants ||
        coldest == tenants_.end()) {
      return;
    }
    Tenant& tenant = coldest->second;
    std::ostringstream out;
    const common::Status saved = tenant.scorer->SaveState(out);
    if (!saved.ok()) {
      // Never drop state we failed to serialize; leave the tenant resident
      // (the cap is a memory target, not a correctness invariant).
      common::telemetry::IncrementCounter("serve.service.evict_failures");
      return;
    }
    tenant.cold_rows = tenant.scorer->rows_ingested();
    tenant.cold_state = std::move(out).str();
    tenant.scorer.reset();
    if (tenant.monitor.has_value()) {
      // Epoch-boundary contract: a window must not straddle an eviction
      // (rehydration restores sketch state, not the monitor ring).
      tenant.monitor->ClearWindow();
    }
    common::telemetry::IncrementCounter("serve.service.evictions");
  }
}

}  // namespace bbv::serve
