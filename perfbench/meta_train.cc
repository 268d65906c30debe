// meta_train: Algorithm 1 (PerformancePredictor::Train) over the fig2
// tabular grid, with a shadow replay of Train's collection phase through
// public calls as the correctness reference and the traced run's
// per-layer breakdown.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
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
#include "core/performance_predictor.h"
#include "core/prediction_statistics.h"
#include "linalg/matrix.h"
#include "ml/cross_validation.h"
#include "ml/random_forest.h"
#include "perfbench/workloads.h"

namespace bbv::perfbench {
namespace {

/// Train replicas per fig2 cell, each from its own seed. A Train's cost
/// depends on the tree count its CV grid picks, so two draws per cell halve
/// that seed-driven variance of the run's figures.
constexpr size_t kReplicas = 2;

/// One replica of a fig2 cell: a (dataset, black box, error generator)
/// triple with its pre-generated corrupted serving repetitions.
struct Cell {
  size_t dataset = 0;
  /// Index into MetaInputs::models.
  size_t model = 0;
  size_t generator = 0;
  /// Seed of the Rng every Train call of this cell starts from.
  uint64_t seed = 0;
  /// Percentile statistics of each serving repetition (one row each).
  linalg::Matrix serving_statistics;
  /// True accuracy of each serving repetition.
  std::vector<double> serving_accuracy;
};

struct MetaInputs {
  std::vector<bench::ExperimentData> data;
  std::vector<std::unique_ptr<ml::BlackBoxModel>> models;
  std::vector<std::shared_ptr<errors::ErrorGen>> generators;
  std::vector<Cell> cells;
  core::PerformancePredictor::Options predictor_options;
};

MetaInputs SetUp(const RunOptions& options) {
  MetaInputs in;
  // Paper settings: 100 corruptions per generator, tree grid {25, 50, 100},
  // 5-fold CV, conformal calibration on (the Options defaults).
  in.predictor_options.corruptions_per_generator = options.tiny ? 5 : 100;
  const int repetitions = options.tiny ? 4 : 50;
  const std::vector<std::string> datasets = {"income", "heart"};
  const std::vector<std::string> models = {"lr", "xgb"};
  bench::RunConfig config;  // --fast dataset and black-box sizes
  common::Rng rng(options.seed);
  for (const std::string& dataset : datasets) {
    in.data.push_back(bench::PrepareDataset(dataset, config, rng));
    for (const std::string& model : models) {
      in.models.push_back(
          bench::TrainBlackBox(model, in.data.back().train, config, rng));
    }
  }
  in.generators = bench::KnownTabularErrors();
  const std::vector<double> points = core::DefaultPercentilePoints();
  for (size_t d = 0; d < datasets.size(); ++d) {
    for (size_t m = 0; m < models.size(); ++m) {
      for (size_t g = 0; g < in.generators.size(); ++g) {
        for (size_t r = 0; r < kReplicas; ++r) {
          Cell cell;
          cell.dataset = d;
          cell.model = d * models.size() + m;
          cell.generator = g;
          cell.seed = rng.NextUint64();
          in.cells.push_back(std::move(cell));
        }
      }
    }
  }
  // fig2's serving protocol: corrupt the unseen serving partition with a
  // fresh random magnitude per repetition. One pre-forked stream per
  // repetition keeps the inputs independent of BBV_THREADS.
  for (size_t c = 0; c < in.cells.size(); c += kReplicas) {
    Cell& cell = in.cells[c];
    const bench::ExperimentData& data = in.data[cell.dataset];
    const ml::BlackBox& model = *in.models[cell.model];
    const errors::ErrorGen& generator = *in.generators[cell.generator];
    std::vector<common::Rng> rep_rngs =
        rng.ForkStreams(static_cast<size_t>(repetitions));
    std::vector<std::vector<double>> statistics(rep_rngs.size());
    cell.serving_accuracy.assign(rep_rngs.size(), 0.0);
    const common::Status generated = common::ParallelFor(
        rep_rngs.size(), [&](size_t r) -> common::Status {
          BBV_ASSIGN_OR_RETURN(
              data::DataFrame corrupted,
              generator.Corrupt(data.serving.features, rep_rngs[r]));
          BBV_ASSIGN_OR_RETURN(linalg::Matrix probabilities,
                               model.PredictProba(corrupted));
          cell.serving_accuracy[r] =
              core::ComputeScore(core::ScoreMetric::kAccuracy, probabilities,
                                 data.serving.labels);
          statistics[r] = core::PredictionStatistics(probabilities, points);
          return common::Status::OK();
        });
    BBV_CHECK(generated.ok()) << generated.ToString();
    cell.serving_statistics = linalg::Matrix::FromRows(statistics);
    for (size_t r = 1; r < kReplicas; ++r) {
      in.cells[c + r].serving_statistics = cell.serving_statistics;
      in.cells[c + r].serving_accuracy = cell.serving_accuracy;
    }
  }
  return in;
}

/// Rows Train pushes through the black box: the clean test set plus one
/// corrupted copy per repetition.
uint64_t TrainRows(const MetaInputs& in, const Cell& cell) {
  const uint64_t copies =
      1 + static_cast<uint64_t>(in.predictor_options.corruptions_per_generator);
  return in.data[cell.dataset].test.NumRows() * copies;
}

std::string SaveBytes(const core::PerformancePredictor& predictor) {
  std::ostringstream out;
  if (!predictor.Save(out).ok()) return "";
  return std::move(out).str();
}

/// Train's collection phase replayed through public calls (clean
/// PredictProba, forked streams, Corrupt + PredictProba + statistics per
/// task under ParallelFor) followed by TrainFromStatistics; returns the
/// trained predictor's Save bytes. With `replay_forest`, the CV grid and
/// the final fit are replayed on a copy of the same Rng state and timed on
/// their own; `forest_consistent` reports whether that replay picked the
/// tree count Train picked.
std::string ShadowTrain(const MetaInputs& in, size_t cell_index,
                        bool replay_forest, SpanLog& log,
                        bool* forest_consistent) {
  const Cell& cell = in.cells[cell_index];
  const data::Dataset& test = in.data[cell.dataset].test;
  const ml::BlackBox& model = *in.models[cell.model];
  const errors::ErrorGen* generator = in.generators[cell.generator].get();
  core::PerformancePredictor predictor(in.predictor_options);
  const std::vector<double>& points = predictor.percentile_points();
  const core::ScoreMetric metric = in.predictor_options.metric;
  const uint64_t rows = test.NumRows();

  const int64_t root = log.Open("shadow.train", Span::kRoot, cell_index);
  common::Rng rng(cell.seed);
  const common::Result<linalg::Matrix> clean =
      log.Time("ml.predict_proba", root, cell_index, rows,
               [&] { return model.PredictProba(test.features); });
  if (!clean.ok()) {
    log.Close(root);
    return "";
  }
  const double test_score = log.Time("core.statistics", root, cell_index, rows,
                                     [&] {
                                       return core::ComputeScore(
                                           metric, *clean, test.labels);
                                     });
  std::vector<const errors::ErrorGen*> task_generators(
      static_cast<size_t>(in.predictor_options.clean_copies), nullptr);
  task_generators.insert(
      task_generators.end(),
      static_cast<size_t>(in.predictor_options.corruptions_per_generator),
      generator);
  std::vector<common::Rng> task_rngs =
      log.Time("common.fork_streams", root, cell_index, 0,
               [&] { return rng.ForkStreams(task_generators.size()); });
  std::vector<std::vector<double>> feature_rows(task_generators.size());
  std::vector<double> scores(task_generators.size());
  std::vector<SpanLog> task_logs(task_generators.size(), log.Fork());
  const common::Status collected = common::ParallelFor(
      task_generators.size(), [&](size_t task) -> common::Status {
        SpanLog& task_log = task_logs[task];
        const int64_t span =
            task_log.Open("shadow.task", Span::kTaskParent, task);
        const auto body = [&]() -> common::Status {
          const linalg::Matrix* probabilities = &*clean;
          linalg::Matrix corrupted_probabilities;
          if (task_generators[task] != nullptr) {
            BBV_ASSIGN_OR_RETURN(
                data::DataFrame corrupted,
                task_log.Time("errors.corrupt", span, task, rows, [&] {
                  return task_generators[task]->Corrupt(test.features,
                                                        task_rngs[task]);
                }));
            BBV_ASSIGN_OR_RETURN(
                corrupted_probabilities,
                task_log.Time("ml.predict_proba", span, task, rows,
                              [&] { return model.PredictProba(corrupted); }));
            probabilities = &corrupted_probabilities;
          }
          task_log.Time("core.statistics", span, task, rows, [&] {
            feature_rows[task] =
                core::PredictionStatistics(*probabilities, points);
            scores[task] =
                core::ComputeScore(metric, *probabilities, test.labels);
          });
          return common::Status::OK();
        };
        const common::Status status = body();
        task_log.Close(span);
        return status;
      });
  for (SpanLog& task_log : task_logs) log.Append(std::move(task_log), root);
  if (!collected.ok()) {
    log.Close(root);
    return "";
  }
  const common::Rng forest_rng = rng;
  const common::Status trained =
      log.Time("core.train_from_statistics", root, cell_index,
               feature_rows.size(), [&] {
                 return predictor.TrainFromStatistics(feature_rows, scores,
                                                      test_score, rng);
               });
  log.Close(root);
  if (!trained.ok()) return "";

  if (replay_forest) {
    // TrainFromStatistics' CV grid and final fit on the same Rng sequence.
    const int64_t forest_root =
        log.Open("shadow.forest", Span::kRoot, cell_index);
    common::Rng replay_rng = forest_rng;
    const linalg::Matrix features = linalg::Matrix::FromRows(feature_rows);
    const auto& grid = in.predictor_options.tree_count_grid;
    const int folds = in.predictor_options.cv_folds;
    int best_trees = grid.front();
    double best_mae = -1.0;
    bool ok = true;
    if (grid.size() > 1 && scores.size() >= static_cast<size_t>(folds)) {
      for (const int tree_count : grid) {
        const auto factory = [tree_count]() {
          ml::RandomForestRegressor::Options forest_options;
          forest_options.num_trees = tree_count;
          return ml::RandomForestRegressor(forest_options);
        };
        const common::Result<double> mae = log.Time(
            "ml.cv_mae", forest_root, static_cast<uint64_t>(tree_count),
            scores.size(), [&] {
              return ml::CrossValRegressionMae(factory, features, scores,
                                               folds, replay_rng);
            });
        if (!mae.ok()) {
          ok = false;
          break;
        }
        if (best_mae < 0.0 || *mae < best_mae) {
          best_mae = *mae;
          best_trees = tree_count;
        }
      }
    }
    ml::RandomForestRegressor::Options forest_options;
    forest_options.num_trees = best_trees;
    ml::RandomForestRegressor forest(forest_options);
    const common::Status fit =
        log.Time("ml.forest_fit", forest_root, cell_index, scores.size(),
                 [&] { return forest.Fit(features, scores, replay_rng); });
    log.Close(forest_root);
    *forest_consistent = ok && fit.ok() &&
                         best_trees == predictor.selected_tree_count();
  }
  return SaveBytes(predictor);
}

/// Totals of whole passes over the grid.
struct PassResult {
  size_t passes = 0;
  std::vector<double> train_s;
  /// Process CPU seconds (all threads) of each Train call.
  std::vector<double> train_cpu_s;
  uint64_t rows = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool correct = true;
};

/// Whole grid passes (one Train per cell replica, each from its seed) until
/// at least `min_passes` ran and `min_seconds` of Train time were measured.
/// Every Train's Save bytes must equal `saved` (filled on first use); the
/// first pass also scores the serving repetitions into `abs_errors`.
/// With a traced log, every cell also runs the shadow replay and its
/// bytes must match too.
PassResult RunPass(const MetaInputs& in, size_t min_passes,
                   double min_seconds, SpanLog* shadow_log,
                   std::vector<std::string>& saved,
                   std::vector<double>* abs_errors) {
  PassResult pass;
  const bench::WallTimer wall;
  const double cpu_start = ProcessCpuSeconds();
  double measured_s = 0.0;
  while (pass.passes < min_passes || measured_s < min_seconds) {
    for (size_t c = 0; c < in.cells.size(); ++c) {
      const Cell& cell = in.cells[c];
      const data::Dataset& test = in.data[cell.dataset].test;
      core::PerformancePredictor predictor(in.predictor_options);
      common::Rng rng(cell.seed);
      const std::vector<const errors::ErrorGen*> generators = {
          in.generators[cell.generator].get()};
      ++pass.attempted;
      const int64_t span =
          shadow_log != nullptr
              ? shadow_log->Open("meta.train", Span::kRoot, c)
              : Span::kRoot;
      const double cpu_before = ProcessCpuSeconds();
      const bench::WallTimer timer;
      const common::Status trained =
          predictor.Train(*in.models[cell.model], test, generators, rng);
      const double seconds = timer.Seconds();
      pass.train_cpu_s.push_back(ProcessCpuSeconds() - cpu_before);
      if (shadow_log != nullptr) shadow_log->Close(span);
      pass.train_s.push_back(seconds);
      measured_s += seconds;
      pass.rows += TrainRows(in, cell);
      if (!trained.ok()) {
        ++pass.failed;
        pass.correct = false;
        continue;
      }
      const std::string bytes = SaveBytes(predictor);
      if (saved[c].empty()) saved[c] = bytes;
      if (bytes.empty() || bytes != saved[c]) pass.correct = false;
      if (shadow_log != nullptr) {
        bool forest_consistent = false;
        if (ShadowTrain(in, c, /*replay_forest=*/true, *shadow_log,
                        &forest_consistent) != bytes ||
            !forest_consistent) {
          pass.correct = false;
        }
      }
      if (abs_errors != nullptr && pass.passes == 0) {
        std::vector<core::ScoreEstimate> estimates(
            cell.serving_statistics.rows());
        const common::Status scored = predictor.EstimateScoresFromStatistics(
            cell.serving_statistics, std::span<core::ScoreEstimate>(estimates));
        if (!scored.ok()) {
          pass.correct = false;
          continue;
        }
        for (size_t r = 0; r < estimates.size(); ++r) {
          abs_errors->push_back(
              std::fabs(estimates[r].point - cell.serving_accuracy[r]));
        }
      }
    }
    ++pass.passes;
  }
  pass.wall_s = wall.Seconds();
  pass.cpu_s = ProcessCpuSeconds() - cpu_start;
  return pass;
}

/// FNV-1a over every cell's Save bytes: equal across runs at one seed.
uint64_t Digest(const std::vector<std::string>& saved) {
  uint64_t hash = 1469598103934665603ull;
  for (const std::string& bytes : saved) {
    for (const char c : bytes) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  return hash;
}

}  // namespace

WorkloadResult RunMetaTrain(const RunOptions& options) {
  WorkloadResult result;
  MetaInputs in;
  const SetupCost setup = MedianSetupCost(options, [&] {
    in = MetaInputs{};
    in = SetUp(options);
  });
  std::vector<std::string> saved(in.cells.size());
  std::vector<double> abs_errors;
  const bench::WallTimer epoch;

  if (!options.trace) {
    BBV_CHECK(!common::telemetry::Enabled())
        << "end-to-end runs need BBV_TELEMETRY=off";
    const PassResult pass =
        RunPass(in, 1, options.seconds, nullptr, saved, &abs_errors);
    // Correctness gate: the shadow collection replay must produce Train's
    // exact bytes for every cell.
    bool shadow_match = true;
    SpanLog no_spans(&epoch, false);
    for (size_t c = 0; c < in.cells.size(); ++c) {
      bool unused = true;
      std::string bytes = ShadowTrain(in, c, false, no_spans, &unused);
      if (options.plant_mismatch && c == 0 && !bytes.empty()) {
        bytes.back() = static_cast<char>(bytes.back() ^ 1);
      }
      if (bytes.empty() || bytes != saved[c]) shadow_match = false;
    }
    result.correct = pass.correct && shadow_match;
    result.attempted = pass.attempted;
    result.failed = pass.failed;
    MetricSet& m = result.metrics;
    // CPU-time figures: see README.md, "Steadiness".
    m.Set("rows_per_cpu_s", "1/s",
          static_cast<double>(pass.rows) / Sum(pass.train_cpu_s));
    m.Set("op_cpu_ms", "ms", Mean(pass.train_cpu_s) * 1e3);
    m.Set("setup_s", "s", setup.cpu_s);
    m.Set("peak_rss_mb", "MiB", PeakRssMb());
    MetricSet& r = result.report;
    r.Set("rows_per_s", "1/s",
          static_cast<double>(pass.rows) / Sum(pass.train_s));
    r.Set("train_s_p50", "s", Percentile(pass.train_s, 50.0));
    r.Set("abs_err_p50", "acc", Median(abs_errors));
    r.Set("failed_ratio", "ratio",
          static_cast<double>(pass.failed) /
              static_cast<double>(std::max<uint64_t>(1, pass.attempted)));
    r.Set("setup_s", "s", setup.cpu_s);
    r.Set("setup_wall_s", "s", setup.wall_s);
    r.Set("peak_rss_mb", "MiB", m.Get("peak_rss_mb"));
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(Digest(saved)));
    result.notes.push_back("passes=" + std::to_string(pass.passes) +
                           " train_calls=" +
                           std::to_string(pass.train_s.size()) +
                           " save_digest=" + digest);
    return result;
  }

  // Traced run: A untraced (telemetry off), B telemetry on, C telemetry on
  // plus spans and the shadow replay of every Train; B and C repeat A's
  // passes.
  common::telemetry::SetEnabled(false);
  const PassResult a =
      RunPass(in, 1, options.seconds / 3.0, nullptr, saved, &abs_errors);
  common::telemetry::SetEnabled(true);
  const PassResult b = RunPass(in, a.passes, 0.0, nullptr, saved, nullptr);
  SpanLog log(&epoch, true);
  const PassResult c = RunPass(in, a.passes, 0.0, &log, saved, nullptr);
  common::telemetry::SetEnabled(false);
  result.correct = a.correct && b.correct && c.correct;
  result.attempted = a.attempted + b.attempted + c.attempted;
  result.failed = a.failed + b.failed + c.failed;

  const std::map<std::string, LayerTotals> totals = SumByName(log.spans());
  const auto layer = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? LayerTotals{} : it->second;
  };
  double root_s = 0.0;
  double covered_s = 0.0;
  for (const char* root : {"shadow.train", "shadow.forest"}) {
    for (const auto& [cell, entry] : CoverageByRoot(log.spans(), root)) {
      root_s += entry.first;
      covered_s += entry.second;
    }
  }
  double traced_train_s = 0.0;
  for (const Span& span : log.spans()) {
    if (std::string(span.name) == "meta.train") {
      traced_train_s += span.end - span.start;
    }
  }

  MetricSet& m = result.metrics;
  const LayerTotals predict = layer("ml.predict_proba");
  m.Set("ml.predict_proba.calls", "count", static_cast<double>(predict.calls));
  m.Set("ml.predict_proba.rows", "rows", static_cast<double>(predict.rows));
  m.Set("ml.predict_proba.busy_s", "s", predict.busy_s);
  const LayerTotals corrupt = layer("errors.corrupt");
  m.Set("errors.corrupt.calls", "count", static_cast<double>(corrupt.calls));
  m.Set("errors.corrupt.busy_s", "s", corrupt.busy_s);
  m.Set("core.statistics.busy_s", "s", layer("core.statistics").busy_s);
  const LayerTotals cv = layer("ml.cv_mae");
  m.Set("ml.cv_mae.calls", "count", static_cast<double>(cv.calls));
  m.Set("ml.cv_mae.busy_s", "s", cv.busy_s);
  m.Set("ml.forest_fit.busy_s", "s", layer("ml.forest_fit").busy_s);
  m.Set("core.train_from_statistics.busy_s", "s",
        layer("core.train_from_statistics").busy_s);
  m.Set("core.estimate.abs_err_p50", "acc", Median(abs_errors));
  m.Set("e2e.rows_per_s", "1/s", static_cast<double>(a.rows) / Sum(a.train_s));
  m.Set("e2e.op_p50_ms", "ms", Percentile(a.train_s, 50.0) * 1e3);
  m.Set("e2e.op_p99_ms", "ms", Percentile(a.train_s, 99.0) * 1e3);
  m.Set("common.cpu_per_wall", "ratio", a.cpu_s / a.wall_s);
  m.Set("common.telemetry.on_off_ratio", "ratio",
        Sum(b.train_s) / Sum(a.train_s));
  m.Set("trace.coverage", "ratio", root_s > 0.0 ? covered_s / root_s : 0.0);
  m.Set("trace.overhead_ratio", "ratio", traced_train_s / Sum(a.train_s));
  result.notes.push_back("passes_per_pass=" + std::to_string(a.passes) +
                         " spans=" + std::to_string(log.spans().size()));
  if (!options.trace_path.empty() &&
      !WriteSpansCsv(options.trace_path, log.spans())) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_path.c_str());
    result.correct = false;
  }
  return result;
}

}  // namespace bbv::perfbench
