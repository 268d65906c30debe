// The two serving workloads (serve_fleet, serve_monitored): set-up from the
// seed, a closed-loop client driving serve::ValidatorService, a standalone
// per-tenant replay as the correctness reference and, in the traced run, a
// shadow replay of every Flush through the public per-tenant calls the
// service makes.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/monitor.h"
#include "core/performance_predictor.h"
#include "core/prediction_statistics.h"
#include "errors/drift_scenario.h"
#include "linalg/matrix.h"
#include "perfbench/workloads.h"
#include "serve/streaming_scorer.h"
#include "serve/validator_service.h"
#include "stats/quantile_sketch.h"

namespace bbv::perfbench {
namespace {

using serve::ValidatorService;

/// The client calls Flush after this many submitted operations.
constexpr size_t kFlushEvery = 64;

/// One client operation of a serving trace.
struct TraceOp {
  uint32_t tenant = 0;
  bool is_swap = false;
  /// serve_fleet: pool batch index. serve_monitored: batch index in the
  /// tenant's drift stream. Swap: index of the replacement predictor.
  uint32_t payload = 0;
};

/// The fields of one ScoreResponse the correctness gate compares.
struct Answer {
  bool ok = false;
  core::ScoreEstimate estimate;
  uint64_t rows_ingested = 0;
  uint64_t epoch = 0;
  bool monitored = false;
  bool alarm = false;
  core::ScoreEstimate windowed_estimate;
  double windowed_relative_drop = 0.0;
  double windowed_certified_drop = 0.0;
};

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(const core::ScoreEstimate& a, const core::ScoreEstimate& b) {
  return SameBits(a.point, b.point) && SameBits(a.lo, b.lo) &&
         SameBits(a.hi, b.hi) && SameBits(a.coverage_level, b.coverage_level);
}

/// Bitwise equality of every compared field.
bool SameAnswer(const Answer& a, const Answer& b) {
  return a.ok == b.ok && SameBits(a.estimate, b.estimate) &&
         a.rows_ingested == b.rows_ingested && a.epoch == b.epoch &&
         a.monitored == b.monitored && a.alarm == b.alarm &&
         SameBits(a.windowed_estimate, b.windowed_estimate) &&
         SameBits(a.windowed_relative_drop, b.windowed_relative_drop) &&
         SameBits(a.windowed_certified_drop, b.windowed_certified_drop);
}

Answer FromResponse(const ValidatorService::ScoreResponse& response) {
  Answer answer;
  answer.ok = response.status.ok();
  answer.estimate = response.estimate;
  answer.rows_ingested = response.rows_ingested;
  answer.epoch = response.epoch;
  answer.monitored = response.monitored;
  answer.alarm = response.alarm;
  answer.windowed_estimate = response.windowed_estimate;
  answer.windowed_relative_drop = response.windowed_relative_drop;
  answer.windowed_certified_drop = response.windowed_certified_drop;
  return answer;
}

/// Rows whose argmax class equals the label.
uint64_t CorrectRows(const linalg::Matrix& probabilities,
                     const std::vector<int>& labels) {
  const std::vector<size_t> predicted = probabilities.ArgMaxPerRow();
  uint64_t correct = 0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    if (static_cast<int>(predicted[i]) == labels[i]) ++correct;
  }
  return correct;
}

/// Everything set-up builds; the timed code reads only this.
struct ServeInputs {
  bool monitored = false;
  std::vector<std::shared_ptr<const core::PerformancePredictor>> predictors;
  std::vector<std::string> ids;
  /// Predictor index each tenant is created with.
  std::vector<uint32_t> tenant_predictor;
  ValidatorService::TenantOptions tenant_options;
  ValidatorService::Options service_options;
  std::vector<TraceOp> trace;
  /// Trace positions of every tenant's operations, in trace order.
  std::vector<std::vector<size_t>> tenant_ops;

  // serve_fleet payloads: a pool of labelled probability batches.
  std::vector<linalg::Matrix> pool;
  /// Centre of each tenant's draws from the pool (sorted by quality), so
  /// tenants serve models of different accuracy.
  std::vector<double> tenant_quality;

  // serve_monitored payloads: a black box and pre-generated drift frames.
  std::unique_ptr<ml::BlackBoxModel> model;
  std::vector<std::vector<data::Dataset>> frames;  // [tenant][batch]
  std::vector<uint32_t> tenant_scenario;
  std::vector<size_t> scenario_onset;
  std::vector<bool> scenario_drifts;

  /// The service of the first round, with every tenant registered.
  std::unique_ptr<ValidatorService> service;
};

core::ModelMonitor::Options MonitorOptions(
    const ValidatorService::TenantOptions& tenant) {
  core::ModelMonitor::Options options;
  options.alarm_threshold = tenant.alarm_threshold;
  options.alarm_policy = tenant.alarm_policy;
  options.history_limit = tenant.history_limit;
  options.window_batches = tenant.window_batches;
  options.sketch_resolution_bits = tenant.monitor_resolution_bits;
  return options;
}

std::unique_ptr<ValidatorService> MakeService(const ServeInputs& in) {
  auto service = std::make_unique<ValidatorService>(in.service_options);
  for (size_t t = 0; t < in.ids.size(); ++t) {
    const common::Status created = service->CreateTenant(
        in.ids[t], in.predictors[in.tenant_predictor[t]], in.tenant_options);
    BBV_CHECK(created.ok()) << created.ToString();
  }
  return service;
}

void IndexTenantOps(ServeInputs& in) {
  in.tenant_ops.assign(in.ids.size(), {});
  for (size_t k = 0; k < in.trace.size(); ++k) {
    in.tenant_ops[in.trace[k].tenant].push_back(k);
  }
}

/// The operation's probability matrix: a pool copy (serve_fleet) or the
/// black box's PredictProba of the tenant's frame (serve_monitored).
common::Result<linalg::Matrix> Payload(const ServeInputs& in,
                                       const TraceOp& op, SpanLog& log,
                                       uint64_t request) {
  if (!in.monitored) return in.pool[op.payload];
  const data::Dataset& frame = in.frames[op.tenant][op.payload];
  return log.Time("ml.predict_proba", Span::kRoot, request, frame.NumRows(),
                  [&] { return in.model->PredictProba(frame.features); });
}

// ---------------------------------------------------------------------------
// serve_fleet set-up
// ---------------------------------------------------------------------------

/// Binary predict_proba batch: a `good_fraction` of the rows put 0.99 on
/// their winner, the rest 0.51. Read as calibrated probabilities, the
/// batch's expected accuracy is 0.51 + 0.48 * good_fraction.
linalg::Matrix MixtureBatch(double good_fraction, size_t rows) {
  linalg::Matrix batch(rows, 2);
  const size_t good_rows =
      static_cast<size_t>(good_fraction * static_cast<double>(rows) + 0.5);
  for (size_t i = 0; i < rows; ++i) {
    const double confidence = i < good_rows ? 0.99 : 0.51;
    const size_t winner = i % 2;
    batch.At(i, winner) = confidence;
    batch.At(i, 1 - winner) = 1.0 - confidence;
  }
  return batch;
}

/// Meta-trains one fleet predictor on mixture statistics; distinct seeds
/// grow distinct forests so hot-swaps change the estimates.
std::shared_ptr<const core::PerformancePredictor> TrainFleetPredictor(
    uint64_t seed) {
  common::Rng rng(seed);
  core::PerformancePredictor::Options options;
  options.tree_count_grid = {50};
  core::PerformancePredictor predictor(options);
  std::vector<std::vector<double>> statistics;
  std::vector<double> scores;
  for (size_t rows : {380ul, 400ul, 420ul}) {
    for (int level = 0; level <= 40; ++level) {
      const double fraction = static_cast<double>(level) / 40.0;
      statistics.push_back(
          core::PredictionStatistics(MixtureBatch(fraction, rows)));
      scores.push_back(0.51 + 0.48 * fraction);
    }
  }
  const common::Status trained =
      predictor.TrainFromStatistics(statistics, scores, 0.99, rng);
  BBV_CHECK(trained.ok()) << trained.ToString();
  return std::make_shared<const core::PerformancePredictor>(
      std::move(predictor));
}

ServeInputs SetUpFleet(const RunOptions& options) {
  const size_t tenants = options.tiny ? 40 : 1000;
  const size_t requests = options.tiny ? 512 : 24576;
  const size_t pool_size = options.tiny ? 64 : 1024;
  constexpr size_t kPredictors = 3;
  constexpr size_t kSwappedTenants = 8;

  ServeInputs in;
  common::Rng rng(options.seed);
  for (size_t p = 0; p < kPredictors; ++p) {
    in.predictors.push_back(TrainFleetPredictor(rng.NextUint64()));
  }
  for (size_t t = 0; t < tenants; ++t) {
    char id[32];
    std::snprintf(id, sizeof(id), "fleet-%04zu", t);
    in.ids.push_back(id);
    in.tenant_predictor.push_back(static_cast<uint32_t>(t % kPredictors));
  }
  in.service_options.max_resident_tenants = std::max<size_t>(1, tenants / 4);

  // Pool batch b has good fraction ~ b / pool_size.
  for (size_t b = 0; b < pool_size; ++b) {
    const size_t rows = 60 + static_cast<size_t>(rng.Uniform() * 80.0);
    const double fraction = (static_cast<double>(b) + rng.Uniform()) /
                            static_cast<double>(pool_size);
    in.pool.push_back(MixtureBatch(fraction, rows));
  }
  for (size_t t = 0; t < tenants; ++t) {
    in.tenant_quality.push_back(rng.Uniform());
  }

  // Zipf(1.1) popularity; every arrival is a burst of 1-3 requests.
  std::vector<double> cdf(tenants);
  double total = 0.0;
  for (size_t t = 0; t < tenants; ++t) {
    total += 1.0 / std::pow(static_cast<double>(t + 1), 1.1);
    cdf[t] = total;
  }
  for (double& value : cdf) value /= total;
  while (in.trace.size() < requests) {
    const size_t tenant = std::min<size_t>(
        static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(),
                                             rng.Uniform()) -
                            cdf.begin()),
        tenants - 1);
    const size_t burst = 1 + rng.UniformInt(3);
    for (size_t b = 0; b < burst && in.trace.size() < requests; ++b) {
      TraceOp op;
      op.tenant = static_cast<uint32_t>(tenant);
      // A draw within +-10% of the pool around the tenant's quality.
      const double width = static_cast<double>(pool_size);
      const double draw = in.tenant_quality[tenant] * width +
                          (rng.Uniform() - 0.5) * 0.2 * width;
      op.payload = static_cast<uint32_t>(std::clamp(
          draw, 0.0, static_cast<double>(pool_size - 1)));
      in.trace.push_back(op);
    }
  }
  // Hot-swap the hottest tenants to the next predictor mid-trace.
  std::vector<TraceOp> swaps;
  for (size_t t = 0; t < std::min(kSwappedTenants, tenants); ++t) {
    TraceOp op;
    op.tenant = static_cast<uint32_t>(t);
    op.is_swap = true;
    op.payload = static_cast<uint32_t>((t + 1) % kPredictors);
    swaps.push_back(op);
  }
  const auto middle =
      in.trace.begin() + static_cast<ptrdiff_t>(in.trace.size() / 2);
  in.trace.insert(middle, swaps.begin(), swaps.end());
  IndexTenantOps(in);
  in.service = MakeService(in);
  return in;
}

// ---------------------------------------------------------------------------
// serve_monitored set-up
// ---------------------------------------------------------------------------

ServeInputs SetUpMonitored(const RunOptions& options) {
  const size_t per_scenario = options.tiny ? 2 : 16;
  errors::DriftScenarioOptions scenario_options;
  scenario_options.num_batches = options.tiny ? 8 : 24;
  scenario_options.batch_size = 100;
  scenario_options.drift_onset = scenario_options.num_batches / 2;
  constexpr size_t kWindow = 4;

  ServeInputs in;
  in.monitored = true;
  common::Rng rng(options.seed);
  bench::RunConfig config;  // --fast dataset and black-box sizes
  const bench::ExperimentData data =
      bench::PrepareDataset("income", config, rng);
  in.model = bench::TrainBlackBox("lr", data.train, config, rng);

  // Algorithm 1 on batches the size of the monitor window, so the windowed
  // features carry the sampling noise the predictor was trained on. The
  // forest size is fixed at the paper grid's largest point: a CV-selected
  // size would make every request's cost jump with the seed.
  core::PerformancePredictor::Options predictor_options;
  predictor_options.corruptions_per_generator = options.tiny ? 5 : 100;
  predictor_options.meta_batch_size = kWindow * scenario_options.batch_size;
  predictor_options.tree_count_grid = {100};
  auto predictor =
      std::make_shared<core::PerformancePredictor>(predictor_options);
  const auto generators = bench::KnownTabularErrors();
  const common::Status trained = predictor->Train(
      *in.model, data.test, bench::RawPointers(generators), rng);
  BBV_CHECK(trained.ok()) << trained.ToString();
  in.predictors.push_back(predictor);

  in.tenant_options.window_batches = kWindow;
  in.tenant_options.alarm_threshold = 0.05;
  in.tenant_options.alarm_policy =
      core::ModelMonitor::AlarmPolicy::kPointDrop;

  const std::vector<errors::DriftScenario> scenarios =
      errors::StandardDriftScenarios(
          std::make_shared<const data::Dataset>(data.serving),
          scenario_options);
  for (const errors::DriftScenario& scenario : scenarios) {
    in.scenario_onset.push_back(scenario.drift_onset());
    in.scenario_drifts.push_back(scenario.ExpectsDrift());
  }
  const size_t tenants = per_scenario * scenarios.size();
  for (size_t t = 0; t < tenants; ++t) {
    char id[32];
    std::snprintf(id, sizeof(id), "monitored-%03zu", t);
    in.ids.push_back(id);
    in.tenant_predictor.push_back(0);
    in.tenant_scenario.push_back(static_cast<uint32_t>(t % scenarios.size()));
  }

  // Frames: one pre-forked stream per tenant, one per batch below it.
  std::vector<common::Rng> tenant_rngs = rng.ForkStreams(tenants);
  in.frames.assign(tenants, {});
  const common::Status generated = common::ParallelFor(
      tenants, [&](size_t t) -> common::Status {
        const errors::DriftScenario& scenario =
            scenarios[in.tenant_scenario[t]];
        std::vector<common::Rng> batch_rngs =
            tenant_rngs[t].ForkStreams(scenario.num_batches());
        for (size_t b = 0; b < scenario.num_batches(); ++b) {
          BBV_ASSIGN_OR_RETURN(data::Dataset frame,
                               scenario.MakeBatch(b, batch_rngs[b]));
          in.frames[t].push_back(std::move(frame));
        }
        return common::Status::OK();
      });
  BBV_CHECK(generated.ok()) << generated.ToString();

  // A uniformly random interleaving of the tenant streams.
  std::vector<uint32_t> slots;
  for (size_t t = 0; t < tenants; ++t) {
    slots.insert(slots.end(), in.frames[t].size(), static_cast<uint32_t>(t));
  }
  rng.Shuffle(slots);
  std::vector<uint32_t> next_batch(tenants, 0);
  for (const uint32_t tenant : slots) {
    TraceOp op;
    op.tenant = tenant;
    op.payload = next_batch[tenant]++;
    in.trace.push_back(op);
  }
  IndexTenantOps(in);
  in.service = MakeService(in);
  return in;
}

// ---------------------------------------------------------------------------
// Standalone reference replay
// ---------------------------------------------------------------------------

struct Reference {
  /// One answer per trace op.
  std::vector<Answer> answers;
  /// |estimate - true accuracy|: per scored tenant at the end of the trace
  /// against its cumulative accuracy (serve_fleet), per request against
  /// the accuracy over the monitor window (serve_monitored).
  std::vector<double> abs_errors;
  /// Final SaveState bytes per tenant.
  std::vector<std::string> states;
};

/// Every tenant's stream through its own StreamingScorer (and monitor),
/// scalar EstimateScore per request, no eviction. Tenants are independent,
/// so they fan out over the shared pool.
Reference ReplayStandalone(const ServeInputs& in) {
  Reference ref;
  ref.answers.assign(in.trace.size(), Answer{});
  std::vector<double> abs_error(in.trace.size(), -1.0);
  std::vector<double> tenant_error(in.ids.size(), -1.0);
  ref.states.assign(in.ids.size(), "");
  const size_t window = in.tenant_options.window_batches;
  const common::Status replayed = common::ParallelFor(
      in.ids.size(), [&](size_t t) -> common::Status {
        auto predictor = in.predictors[in.tenant_predictor[t]];
        BBV_ASSIGN_OR_RETURN(
            serve::StreamingScorer scorer,
            serve::StreamingScorer::Create(predictor,
                                           in.tenant_options.scorer));
        std::optional<core::ModelMonitor> monitor;
        if (in.monitored) {
          BBV_ASSIGN_OR_RETURN(
              monitor, core::ModelMonitor::CreateForProba(
                           in.ids[t], predictor,
                           MonitorOptions(in.tenant_options)));
        }
        uint64_t epoch = 0;
        uint64_t rows = 0;
        double correct = 0.0;
        std::deque<std::pair<double, double>> recent;
        SpanLog quiet(nullptr, false);
        for (const size_t k : in.tenant_ops[t]) {
          const TraceOp& op = in.trace[k];
          Answer& answer = ref.answers[k];
          if (op.is_swap) {
            const auto& next = in.predictors[op.payload];
            BBV_RETURN_NOT_OK(scorer.SwapPredictor(next));
            if (monitor.has_value()) {
              BBV_RETURN_NOT_OK(monitor->SwapPredictor(next));
            }
            answer.ok = true;
            answer.epoch = ++epoch;
            recent.clear();
            continue;
          }
          BBV_ASSIGN_OR_RETURN(linalg::Matrix probabilities,
                               Payload(in, op, quiet, k));
          if (!scorer.Ingest(probabilities).ok()) continue;
          answer.rows_ingested = scorer.rows_ingested();
          answer.epoch = epoch;
          const common::Result<core::ScoreEstimate> estimate =
              scorer.EstimateScore();
          if (!estimate.ok()) continue;
          answer.ok = true;
          answer.estimate = *estimate;
          if (monitor.has_value()) {
            answer.monitored = true;
            const auto report = monitor->Observe(probabilities);
            if (report.ok()) {
              answer.alarm = report->alarm;
              answer.windowed_estimate = report->windowed_estimate;
              answer.windowed_relative_drop = report->windowed_relative_drop;
              answer.windowed_certified_drop =
                  report->windowed_certified_drop;
            }
          }
          // Truth: accuracy against the frame labels (serve_monitored),
          // or the expected accuracy of the calibrated synthetic fleet
          // batches (the sum of the row maxima).
          double hits = 0.0;
          if (in.monitored) {
            hits = static_cast<double>(CorrectRows(
                probabilities, in.frames[op.tenant][op.payload].labels));
          } else {
            for (const double p : probabilities.MaxPerRow()) hits += p;
          }
          rows += probabilities.rows();
          correct += hits;
          recent.emplace_back(static_cast<double>(probabilities.rows()), hits);
          if (window > 0 && recent.size() > window) recent.pop_front();
          if (in.monitored) {
            double window_rows = 0.0;
            double window_correct = 0.0;
            for (const auto& [r, c] : recent) {
              window_rows += r;
              window_correct += c;
            }
            abs_error[k] = std::fabs(answer.windowed_estimate.point -
                                     window_correct / window_rows);
          } else {
            tenant_error[t] =
                std::fabs(answer.estimate.point -
                          correct / static_cast<double>(rows));
          }
        }
        std::ostringstream out;
        BBV_RETURN_NOT_OK(scorer.SaveState(out));
        ref.states[t] = std::move(out).str();
        return common::Status::OK();
      });
  BBV_CHECK(replayed.ok()) << replayed.ToString();
  for (const double error : in.monitored ? abs_error : tenant_error) {
    if (error >= 0.0) ref.abs_errors.push_back(error);
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Shadow replay of Flush (traced run)
// ---------------------------------------------------------------------------

/// Mirrors ValidatorService's per-tenant state and replays each Flush
/// through the same public calls in the same order: resolve/rehydrate
/// (LoadState), then per tenant inside a ParallelFor: Ingest,
/// PercentileFeatures, one EstimateScoresFromStatistics per segment,
/// ModelMonitor::Observe; then the residency cap (SaveState). A replica
/// QuantileSketchBank per tenant times the stats layer on its own.
class Shadow {
 public:
  explicit Shadow(const ServeInputs& in) : in_(in), tenants_(in.ids.size()) {
    SpanLog quiet(nullptr, false);
    stats::QuantileSketch::Options sketch;
    sketch.resolution_bits = in.tenant_options.scorer.resolution_bits;
    for (size_t t = 0; t < tenants_.size(); ++t) {
      Tenant& tenant = tenants_[t];
      tenant.predictor = in.predictors[in.tenant_predictor[t]];
      auto scorer = serve::StreamingScorer::Create(tenant.predictor,
                                                   in.tenant_options.scorer);
      BBV_CHECK(scorer.ok()) << scorer.status().ToString();
      tenant.scorer.emplace(std::move(*scorer));
      if (in.monitored) {
        auto monitor = core::ModelMonitor::CreateForProba(
            in.ids[t], tenant.predictor, MonitorOptions(in.tenant_options));
        BBV_CHECK(monitor.ok()) << monitor.status().ToString();
        tenant.monitor.emplace(std::move(*monitor));
      }
      tenant.bank = stats::QuantileSketchBank(0, sketch);
      tenant.last_touch = ++clock_;
      EnforceCap(quiet, Span::kRoot);
    }
  }

  /// Replays one Flush of the trace ops `ops` (payloads[i] is what op i
  /// submitted) and returns their answers.
  std::vector<Answer> Flush(const std::vector<size_t>& ops,
                            const std::vector<const linalg::Matrix*>& payloads,
                            uint64_t flush_index, SpanLog& log) {
    std::vector<Answer> answers(ops.size());
    const int64_t root = log.Open("shadow.flush", Span::kRoot, flush_index,
                                  ops.size());
    std::map<uint32_t, std::vector<size_t>> by_tenant;
    std::vector<uint32_t> order;
    for (size_t i = 0; i < ops.size(); ++i) {
      auto [it, inserted] = by_tenant.try_emplace(in_.trace[ops[i]].tenant);
      if (inserted) order.push_back(it->first);
      it->second.push_back(i);
    }
    std::vector<uint32_t> work;
    for (const uint32_t t : order) {
      if (!EnsureResident(t, log, root).ok()) continue;
      tenants_[t].last_touch = ++clock_;
      work.push_back(t);
    }
    std::vector<SpanLog> task_logs(work.size(), log.Fork());
    std::vector<char> bank_mismatch(work.size(), 0);
    const common::Status fanned_out = common::ParallelFor(
        work.size(), [&](size_t w) -> common::Status {
          SpanLog& task_log = task_logs[w];
          const int64_t task =
              task_log.Open("shadow.tenant", Span::kTaskParent, work[w]);
          bank_mismatch[w] =
              ProcessTenant(tenants_[work[w]], by_tenant.at(work[w]), ops,
                            payloads, answers, task_log, task)
                  ? 0
                  : 1;
          task_log.Close(task);
          return common::Status::OK();
        });
    BBV_CHECK(fanned_out.ok()) << fanned_out.ToString();
    for (size_t w = 0; w < work.size(); ++w) {
      log.Append(std::move(task_logs[w]), root);
      if (bank_mismatch[w] != 0) bank_consistent_ = false;
    }
    EnforceCap(log, root);
    log.Close(root);
    return answers;
  }

  /// Canonical state of a tenant, resident or evicted.
  std::string State(size_t t) const {
    const Tenant& tenant = tenants_[t];
    if (!tenant.scorer.has_value()) return tenant.cold;
    std::ostringstream out;
    BBV_CHECK(tenant.scorer->SaveState(out).ok());
    return std::move(out).str();
  }

  /// False once a replica bank disagreed with its scorer's features.
  bool bank_consistent() const { return bank_consistent_; }

 private:
  struct Tenant {
    std::shared_ptr<const core::PerformancePredictor> predictor;
    std::optional<serve::StreamingScorer> scorer;
    std::string cold;
    std::optional<core::ModelMonitor> monitor;
    stats::QuantileSketchBank bank;
    uint64_t last_touch = 0;
    uint64_t epoch = 0;
  };

  common::Status EnsureResident(uint32_t t, SpanLog& log, int64_t parent) {
    Tenant& tenant = tenants_[t];
    if (tenant.scorer.has_value()) return common::Status::OK();
    return log.Time(
        "serve.state_load", parent, t, 0, [&]() -> common::Status {
          BBV_ASSIGN_OR_RETURN(
              serve::StreamingScorer scorer,
              serve::StreamingScorer::Create(tenant.predictor,
                                             in_.tenant_options.scorer));
          std::istringstream state(tenant.cold);
          BBV_RETURN_NOT_OK(scorer.LoadState(state));
          tenant.scorer.emplace(std::move(scorer));
          tenant.cold.clear();
          return common::Status::OK();
        });
  }

  void EnforceCap(SpanLog& log, int64_t parent) {
    const size_t cap = in_.service_options.max_resident_tenants;
    if (cap == 0) return;
    while (true) {
      size_t resident = 0;
      size_t coldest = tenants_.size();
      for (size_t t = 0; t < tenants_.size(); ++t) {
        if (!tenants_[t].scorer.has_value()) continue;
        ++resident;
        if (coldest == tenants_.size() ||
            tenants_[t].last_touch < tenants_[coldest].last_touch) {
          coldest = t;
        }
      }
      if (resident <= cap || coldest == tenants_.size()) return;
      Tenant& tenant = tenants_[coldest];
      std::ostringstream out;
      const common::Status saved =
          log.Time("serve.state_save", parent, coldest, 0,
                   [&] { return tenant.scorer->SaveState(out); });
      if (!saved.ok()) return;
      tenant.cold = std::move(out).str();
      tenant.scorer.reset();
      if (tenant.monitor.has_value()) tenant.monitor->ClearWindow();
    }
  }

  common::Status Swap(
      Tenant& tenant,
      const std::shared_ptr<const core::PerformancePredictor>& predictor) {
    const auto previous = tenant.scorer->shared_predictor();
    BBV_RETURN_NOT_OK(tenant.scorer->SwapPredictor(predictor));
    if (tenant.monitor.has_value()) {
      const common::Status swapped = tenant.monitor->SwapPredictor(predictor);
      if (!swapped.ok()) {
        BBV_CHECK(tenant.scorer->SwapPredictor(previous).ok());
        return swapped;
      }
    }
    tenant.predictor = predictor;
    ++tenant.epoch;
    return common::Status::OK();
  }

  /// One tenant's share of a flush, in submission order; returns false if
  /// the replica bank's features differ from the scorer's.
  bool ProcessTenant(Tenant& tenant, const std::vector<size_t>& positions,
                     const std::vector<size_t>& ops,
                     const std::vector<const linalg::Matrix*>& payloads,
                     std::vector<Answer>& answers, SpanLog& log,
                     int64_t task) {
    bool bank_consistent = true;
    std::vector<size_t> run;
    std::vector<std::vector<double>> run_features;
    const auto close_segment = [&]() {
      if (run.empty()) return;
      const size_t dimension = tenant.predictor->feature_dimension();
      linalg::Matrix statistics(run.size(), dimension);
      for (size_t i = 0; i < run.size(); ++i) {
        std::copy(run_features[i].begin(), run_features[i].end(),
                  statistics.RowData(i));
      }
      std::vector<core::ScoreEstimate> estimates(run.size());
      const common::Status scored =
          log.Time("core.estimate_batch", task, UINT64_MAX, run.size(), [&] {
            return tenant.predictor->EstimateScoresFromStatistics(
                statistics, std::span<core::ScoreEstimate>(estimates));
          });
      for (size_t i = 0; i < run.size(); ++i) {
        if (scored.ok()) {
          answers[run[i]].estimate = estimates[i];
        } else {
          answers[run[i]].ok = false;
        }
      }
      run.clear();
      run_features.clear();
    };
    for (const size_t position : positions) {
      const size_t k = ops[position];
      const TraceOp& op = in_.trace[k];
      Answer& answer = answers[position];
      if (op.is_swap) {
        close_segment();
        const common::Status swapped =
            log.Time("serve.swap", task, k, 0, [&] {
              return Swap(tenant, in_.predictors[op.payload]);
            });
        answer.ok = swapped.ok();
        answer.epoch = tenant.epoch;
        continue;
      }
      const linalg::Matrix& probabilities = *payloads[position];
      const uint64_t rows = probabilities.rows();
      const common::Status ingested = log.Time(
          "serve.ingest", task, k, rows,
          [&] { return tenant.scorer->Ingest(probabilities); });
      if (!ingested.ok()) continue;
      const common::Status observed = log.Time(
          "stats.bank_observe", task, k, rows,
          [&] { return tenant.bank.Observe(probabilities); });
      answer.rows_ingested = tenant.scorer->rows_ingested();
      answer.epoch = tenant.epoch;
      common::Result<std::vector<double>> features =
          log.Time("serve.percentiles", task, k, 0,
                   [&] { return tenant.scorer->PercentileFeatures(); });
      if (!features.ok()) continue;
      const std::vector<double> bank_features =
          log.Time("stats.bank_percentiles", task, k, 0, [&] {
            return tenant.bank.PercentileFeatures(
                tenant.predictor->percentile_points());
          });
      if (!observed.ok() || bank_features != *features) {
        bank_consistent = false;
      }
      answer.ok = true;
      run.push_back(position);
      run_features.push_back(std::move(*features));
      if (tenant.monitor.has_value()) {
        answer.monitored = true;
        const common::Result<core::ModelMonitor::BatchReport> report =
            log.Time("core.monitor_observe", task, k, rows,
                     [&] { return tenant.monitor->Observe(probabilities); });
        if (report.ok()) {
          answer.alarm = report->alarm;
          answer.windowed_estimate = report->windowed_estimate;
          answer.windowed_relative_drop = report->windowed_relative_drop;
          answer.windowed_certified_drop = report->windowed_certified_drop;
        }
      }
    }
    close_segment();
    return bank_consistent;
  }

  const ServeInputs& in_;
  std::vector<Tenant> tenants_;
  uint64_t clock_ = 0;
  bool bank_consistent_ = true;
};

// ---------------------------------------------------------------------------
// The closed-loop client
// ---------------------------------------------------------------------------

/// Totals of one or more trace replays.
struct PassResult {
  size_t rounds = 0;
  /// Client wall time inside the rounds (service calls, black box,
  /// payload copies); service creation and shadow replays excluded.
  double serving_s = 0.0;
  /// Wall time of the whole pass, for CPU/wall.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> flush_s;
  /// Process CPU seconds (all threads) of each Flush call and of the
  /// rounds' serving loops.
  std::vector<double> flush_cpu_s;
  double serving_cpu_s = 0.0;
  uint64_t rows = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  bool correct = true;
};

/// Replays the whole trace once on `service`, flushing every kFlushEvery
/// operations, and checks every response and final tenant state against
/// the reference (and against the shadow, when given).
void RunRound(const ServeInputs& in, ValidatorService& service,
              const Reference& ref, Shadow* shadow, bool plant_mismatch,
              uint64_t* flush_counter, SpanLog& log, PassResult& pass) {
  const bench::WallTimer timer;
  const double cpu_start = ProcessCpuSeconds();
  double shadow_cpu_s = 0.0;
  double shadow_s = 0.0;
  std::vector<size_t> pending;
  std::vector<uint64_t> pending_ids;
  std::vector<linalg::Matrix> pending_payloads;
  bool planted = false;
  const auto flush = [&]() {
    const uint64_t flush_index = (*flush_counter)++;
    const double flush_cpu_start = ProcessCpuSeconds();
    const bench::WallTimer flush_timer;
    const std::vector<ValidatorService::ScoreResponse> responses =
        log.Time("serve.flush", Span::kRoot, flush_index, pending.size(),
                 [&] { return service.Flush(); });
    pass.flush_s.push_back(flush_timer.Seconds());
    pass.flush_cpu_s.push_back(ProcessCpuSeconds() - flush_cpu_start);
    std::vector<Answer> answers;
    if (responses.size() != pending.size()) pass.correct = false;
    for (size_t i = 0; i < std::min(responses.size(), pending.size()); ++i) {
      answers.push_back(FromResponse(responses[i]));
      if (!responses[i].status.ok()) ++pass.failed;
      if (plant_mismatch && !planted && !in.trace[pending[i]].is_swap) {
        answers.back().estimate.point =
            std::nextafter(answers.back().estimate.point, 2.0);
        planted = true;
      }
      if (responses[i].request_id != pending_ids[i] ||
          !SameAnswer(answers.back(), ref.answers[pending[i]])) {
        pass.correct = false;
      }
    }
    if (shadow != nullptr) {
      const bench::WallTimer shadow_timer;
      const double shadow_cpu_start = ProcessCpuSeconds();
      std::vector<const linalg::Matrix*> payloads;
      size_t next_payload = 0;
      for (const size_t k : pending) {
        const TraceOp& op = in.trace[k];
        if (op.is_swap) {
          payloads.push_back(nullptr);
        } else if (in.monitored) {
          payloads.push_back(&pending_payloads[next_payload++]);
        } else {
          payloads.push_back(&in.pool[op.payload]);
        }
      }
      const std::vector<Answer> replayed =
          shadow->Flush(pending, payloads, flush_index, log);
      for (size_t i = 0; i < answers.size(); ++i) {
        if (!SameAnswer(replayed[i], answers[i])) pass.correct = false;
      }
      shadow_s += shadow_timer.Seconds();
      shadow_cpu_s += ProcessCpuSeconds() - shadow_cpu_start;
    }
    pending.clear();
    pending_ids.clear();
    pending_payloads.clear();
  };

  for (size_t k = 0; k < in.trace.size(); ++k) {
    const TraceOp& op = in.trace[k];
    ++pass.ops;
    if (op.is_swap) {
      pending_ids.push_back(log.Time("serve.submit", Span::kRoot, k, 0, [&] {
        return service.SubmitSwap(in.ids[op.tenant],
                                  in.predictors[op.payload]);
      }));
    } else {
      common::Result<linalg::Matrix> payload = Payload(in, op, log, k);
      if (!payload.ok()) {
        ++pass.failed;
        pass.correct = false;
        continue;
      }
      pass.rows += payload->rows();
      if (shadow != nullptr && in.monitored) {
        pending_payloads.push_back(*payload);
      }
      pending_ids.push_back(log.Time("serve.submit", Span::kRoot, k,
                                     payload->rows(), [&] {
                                       return service.Submit(
                                           in.ids[op.tenant],
                                           std::move(*payload));
                                     }));
    }
    pending.push_back(k);
    if (pending.size() >= kFlushEvery) flush();
  }
  if (!pending.empty()) flush();
  pass.serving_s += timer.Seconds() - shadow_s;
  pass.serving_cpu_s += ProcessCpuSeconds() - cpu_start - shadow_cpu_s;

  // Final states: bitwise the standalone replay's, resident or evicted.
  for (size_t t = 0; t < in.ids.size(); ++t) {
    std::ostringstream out;
    const common::Status saved = service.SaveTenantState(in.ids[t], out);
    if (!saved.ok() || out.str() != ref.states[t]) pass.correct = false;
    if (shadow != nullptr && shadow->State(t) != ref.states[t]) {
      pass.correct = false;
    }
  }
  if (shadow != nullptr && !shadow->bank_consistent()) pass.correct = false;
}

/// Whole rounds until at least `min_rounds` ran and `min_seconds` of
/// serving time were measured. The first round uses the set-up service;
/// later rounds get a fresh one (created outside the measured time).
PassResult RunPass(ServeInputs& in, const Reference& ref, size_t min_rounds,
                   double min_seconds, bool shadow, bool plant_mismatch,
                   SpanLog& log) {
  PassResult pass;
  const bench::WallTimer wall;
  const double cpu_start = ProcessCpuSeconds();
  uint64_t flush_counter = 0;
  while (pass.rounds < min_rounds || pass.serving_s < min_seconds) {
    std::unique_ptr<ValidatorService> service =
        in.service != nullptr ? std::move(in.service) : MakeService(in);
    std::optional<Shadow> replay;
    if (shadow) replay.emplace(in);
    RunRound(in, *service, ref, replay.has_value() ? &*replay : nullptr,
             plant_mismatch && pass.rounds == 0, &flush_counter, log, pass);
    ++pass.rounds;
  }
  pass.wall_s = wall.Seconds();
  pass.cpu_s = ProcessCpuSeconds() - cpu_start;
  return pass;
}

/// Detection quality of the monitored tenants over one trace replay:
/// mean batches from onset to the first alarm over drifted tenants (an
/// undetected stream counts its whole post-onset span), and the share of
/// pre-onset or no-drift batches that alarmed.
std::pair<double, double> DetectionQuality(const ServeInputs& in,
                                           const Reference& ref) {
  double delay_sum = 0.0;
  size_t drifted = 0;
  size_t quiet_batches = 0;
  size_t false_alarms = 0;
  for (size_t t = 0; t < in.ids.size(); ++t) {
    const size_t scenario = in.tenant_scenario[t];
    const size_t onset = in.scenario_onset[scenario];
    const bool drifts = in.scenario_drifts[scenario];
    const size_t batches = in.frames[t].size();
    size_t first_alarm = batches;
    for (const size_t k : in.tenant_ops[t]) {
      const size_t batch = in.trace[k].payload;
      const bool alarm = ref.answers[k].alarm;
      if (!drifts || batch < onset) {
        ++quiet_batches;
        if (alarm) ++false_alarms;
      } else if (alarm && first_alarm == batches) {
        first_alarm = batch;
      }
    }
    if (drifts) {
      delay_sum += static_cast<double>(first_alarm - onset);
      ++drifted;
    }
  }
  const double delay =
      drifted > 0 ? delay_sum / static_cast<double>(drifted) : 0.0;
  const double false_alarm_rate =
      quiet_batches > 0 ? static_cast<double>(false_alarms) /
                              static_cast<double>(quiet_batches)
                        : 0.0;
  return {delay, false_alarm_rate};
}

double LayerBusy(const std::map<std::string, LayerTotals>& totals,
                 const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.busy_s;
}

LayerTotals Layer(const std::map<std::string, LayerTotals>& totals,
                  const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? LayerTotals{} : it->second;
}

WorkloadResult RunServe(const RunOptions& options, bool monitored) {
  WorkloadResult result;
  ServeInputs in;
  const SetupCost setup = MedianSetupCost(options, [&] {
    in = ServeInputs{};
    in = monitored ? SetUpMonitored(options) : SetUpFleet(options);
  });
  const Reference ref = ReplayStandalone(in);
  const bench::WallTimer epoch;

  if (!options.trace) {
    BBV_CHECK(!common::telemetry::Enabled())
        << "end-to-end runs need BBV_TELEMETRY=off";
    SpanLog no_spans(&epoch, false);
    const PassResult pass = RunPass(in, ref, 1, options.seconds, false,
                                    options.plant_mismatch, no_spans);
    result.correct = pass.correct;
    result.attempted = pass.ops;
    result.failed = pass.failed;
    // CPU-time figures: see README.md, "Steadiness".
    MetricSet& m = result.metrics;
    m.Set("rows_per_cpu_s", "1/s",
          static_cast<double>(pass.rows) / pass.serving_cpu_s);
    m.Set("op_cpu_ms", "ms", Mean(pass.flush_cpu_s) * 1e3);
    m.Set("setup_s", "s", setup.cpu_s);
    m.Set("peak_rss_mb", "MiB", PeakRssMb());
    MetricSet& r = result.report;
    r.Set("rows_per_s", "1/s",
          static_cast<double>(pass.rows) / pass.serving_s);
    r.Set("flush_p50_ms", "ms", Percentile(pass.flush_s, 50.0) * 1e3);
    r.Set("flush_p99_ms", "ms", Percentile(pass.flush_s, 99.0) * 1e3);
    r.Set("abs_err_p50", "acc", Median(ref.abs_errors));
    if (monitored) {
      const auto [delay, false_alarm_rate] = DetectionQuality(in, ref);
      r.Set("detect_delay_batches", "batches", delay);
      r.Set("false_alarm_rate", "ratio", false_alarm_rate);
    }
    r.Set("failed_ratio", "ratio",
          static_cast<double>(pass.failed) /
              static_cast<double>(std::max<uint64_t>(1, pass.ops)));
    r.Set("setup_s", "s", setup.cpu_s);
    r.Set("setup_wall_s", "s", setup.wall_s);
    r.Set("peak_rss_mb", "MiB", m.Get("peak_rss_mb"));
    result.notes.push_back("rounds=" + std::to_string(pass.rounds) +
                           " flushes=" + std::to_string(pass.flush_s.size()) +
                           " requests=" + std::to_string(pass.ops) +
                           " rows=" + std::to_string(pass.rows));
    return result;
  }

  // Traced run: A untraced (telemetry off), B telemetry on, C telemetry on
  // plus benchmark spans and the shadow replay; B and C replay A's rounds.
  SpanLog no_spans(&epoch, false);
  common::telemetry::SetEnabled(false);
  const PassResult a = RunPass(in, ref, 1, options.seconds / 3.0, false,
                               options.plant_mismatch, no_spans);
  common::telemetry::SetEnabled(true);
  const PassResult b =
      RunPass(in, ref, a.rounds, 0.0, false, false, no_spans);
  SpanLog log(&epoch, true);
  const PassResult c = RunPass(in, ref, a.rounds, 0.0, true, false, log);
  common::telemetry::SetEnabled(false);
  result.correct = a.correct && b.correct && c.correct;
  result.attempted = a.ops + b.ops + c.ops;
  result.failed = a.failed + b.failed + c.failed;

  const std::map<std::string, LayerTotals> totals = SumByName(log.spans());
  const std::map<uint64_t, std::pair<double, double>> coverage =
      CoverageByRoot(log.spans(), "shadow.flush");
  double root_s = 0.0;
  double covered_s = 0.0;
  for (const auto& [flush, entry] : coverage) {
    root_s += entry.first;
    covered_s += entry.second;
  }
  double unattributed_s = 0.0;
  for (const Span& span : log.spans()) {
    if (std::string(span.name) != "serve.flush") continue;
    const auto it = coverage.find(span.request);
    const double covered = it == coverage.end() ? 0.0 : it->second.second;
    unattributed_s += std::max(0.0, span.end - span.start - covered);
  }
  const LayerTotals estimate = Layer(totals, "core.estimate_batch");
  uint64_t alarms = 0;
  for (const Answer& answer : ref.answers) alarms += answer.alarm ? 1 : 0;
  const auto [delay, false_alarm_rate] =
      monitored ? DetectionQuality(in, ref) : std::pair<double, double>{0, 0};

  MetricSet& m = result.metrics;
  const LayerTotals ingest = Layer(totals, "serve.ingest");
  m.Set("serve.ingest.calls", "count", static_cast<double>(ingest.calls));
  m.Set("serve.ingest.rows", "rows", static_cast<double>(ingest.rows));
  m.Set("serve.ingest.busy_s", "s", ingest.busy_s);
  m.Set("serve.percentiles.busy_s", "s",
        LayerBusy(totals, "serve.percentiles"));
  m.Set("stats.bank_observe.busy_s", "s",
        LayerBusy(totals, "stats.bank_observe"));
  m.Set("stats.bank_percentiles.busy_s", "s",
        LayerBusy(totals, "stats.bank_percentiles"));
  const LayerTotals save = Layer(totals, "serve.state_save");
  const LayerTotals load = Layer(totals, "serve.state_load");
  m.Set("serve.state_save.calls", "count", static_cast<double>(save.calls));
  m.Set("serve.state_save.busy_s", "s", save.busy_s);
  m.Set("serve.state_load.calls", "count", static_cast<double>(load.calls));
  m.Set("serve.state_load.busy_s", "s", load.busy_s);
  m.Set("serve.kernel_batches", "count", static_cast<double>(estimate.calls));
  m.Set("serve.requests_per_kernel_batch", "ratio",
        estimate.calls > 0 ? static_cast<double>(estimate.rows) /
                                 static_cast<double>(estimate.calls)
                           : 0.0);
  m.Set("core.estimate_batch.calls", "count",
        static_cast<double>(estimate.calls));
  m.Set("core.estimate_batch.rows", "rows",
        static_cast<double>(estimate.rows));
  m.Set("core.estimate_batch.busy_s", "s", estimate.busy_s);
  const LayerTotals observe = Layer(totals, "core.monitor_observe");
  m.Set("core.monitor_observe.calls", "count",
        static_cast<double>(observe.calls));
  m.Set("core.monitor_observe.busy_s", "s", observe.busy_s);
  m.Set("core.monitor.alarms", "count",
        static_cast<double>(alarms * c.rounds));
  m.Set("core.monitor.detect_delay_batches", "batches", delay);
  m.Set("core.monitor.false_alarm_rate", "ratio", false_alarm_rate);
  const LayerTotals predict = Layer(totals, "ml.predict_proba");
  m.Set("ml.predict_proba.calls", "count", static_cast<double>(predict.calls));
  m.Set("ml.predict_proba.rows", "rows", static_cast<double>(predict.rows));
  m.Set("ml.predict_proba.busy_s", "s", predict.busy_s);
  const LayerTotals flush = Layer(totals, "serve.flush");
  m.Set("serve.flush.calls", "count", static_cast<double>(flush.calls));
  m.Set("serve.flush.busy_s", "s", flush.busy_s);
  m.Set("serve.flush.unattributed_s", "s", unattributed_s);
  m.Set("e2e.rows_per_s", "1/s", static_cast<double>(a.rows) / a.serving_s);
  m.Set("e2e.op_p50_ms", "ms", Percentile(a.flush_s, 50.0) * 1e3);
  m.Set("e2e.op_p99_ms", "ms", Percentile(a.flush_s, 99.0) * 1e3);
  m.Set("core.estimate.abs_err_p50", "acc", Median(ref.abs_errors));
  m.Set("common.cpu_per_wall", "ratio", a.cpu_s / a.wall_s);
  m.Set("common.telemetry.on_off_ratio", "ratio", b.serving_s / a.serving_s);
  m.Set("trace.coverage", "ratio", root_s > 0.0 ? covered_s / root_s : 0.0);
  m.Set("trace.overhead_ratio", "ratio", c.serving_s / a.serving_s);
  result.notes.push_back("rounds_per_pass=" + std::to_string(a.rounds) +
                         " spans=" + std::to_string(log.spans().size()));
  if (!options.trace_path.empty() &&
      !WriteSpansCsv(options.trace_path, log.spans())) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_path.c_str());
    result.correct = false;
  }
  return result;
}

}  // namespace

WorkloadResult RunServeFleet(const RunOptions& options) {
  return RunServe(options, /*monitored=*/false);
}

WorkloadResult RunServeMonitored(const RunOptions& options) {
  return RunServe(options, /*monitored=*/true);
}

}  // namespace bbv::perfbench
