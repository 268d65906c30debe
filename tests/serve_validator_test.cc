// Tests for the multi-tenant ValidatorService: coalesced flushes must be
// bit-identical to a standalone StreamingScorer replay of each tenant's
// stream at every BBV_THREADS setting, hot-swaps must apply at exactly
// their queue position, eviction/rehydration must round-trip state
// byte-identically, and no malformed request may take down the process.

#include "serve/validator_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/prediction_statistics.h"
#include "serve/streaming_scorer.h"

namespace bbv::serve {
namespace {

/// Sets BBV_THREADS for one scope and restores the previous value after.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* previous = std::getenv("BBV_THREADS");
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
    ::setenv("BBV_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (had_previous_) {
      ::setenv("BBV_THREADS", previous_.c_str(), 1);
    } else {
      ::unsetenv("BBV_THREADS");
    }
  }
  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  bool had_previous_ = false;
  std::string previous_;
};

/// Binary predict_proba batch where a `good_fraction` of the rows are
/// confidently correct (winner probability 0.99) and the rest are barely
/// above chance (0.51); winners alternate between the two classes.
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

/// Trains a predictor on synthetic (statistics, score) pairs where the
/// score is a linear function of the confident fraction; reference score
/// is 0.99. Different seeds grow different forests, which the hot-swap
/// tests rely on to tell the epochs apart.
std::shared_ptr<const core::PerformancePredictor> TrainSharedPredictor(
    uint64_t seed) {
  common::Rng rng(seed);
  core::PerformancePredictor::Options options;
  options.tree_count_grid = {30};
  core::PerformancePredictor predictor(options);
  std::vector<std::vector<double>> statistics;
  std::vector<double> scores;
  for (size_t rows : {400ul, 410ul, 420ul}) {
    for (int level = 0; level <= 10; ++level) {
      const double fraction = static_cast<double>(level) / 10.0;
      statistics.push_back(
          core::PredictionStatistics(MixtureBatch(fraction, rows)));
      scores.push_back(0.51 + 0.48 * fraction);
    }
  }
  BBV_CHECK(
      predictor.TrainFromStatistics(statistics, scores, 0.99, rng).ok());
  return std::make_shared<const core::PerformancePredictor>(
      std::move(predictor));
}

linalg::Matrix RandomProbabilities(size_t rows, common::Rng& rng) {
  linalg::Matrix batch(rows, 2);
  for (size_t i = 0; i < rows; ++i) {
    const double p = rng.Uniform();
    batch.At(i, 0) = p;
    batch.At(i, 1) = 1.0 - p;
  }
  return batch;
}

std::string ScorerBytes(const StreamingScorer& scorer) {
  std::ostringstream out;
  BBV_CHECK(scorer.SaveState(out).ok());
  return out.str();
}

std::string TenantBytes(const ValidatorService& service,
                        const std::string& model_id) {
  std::ostringstream out;
  BBV_CHECK(service.SaveTenantState(model_id, out).ok());
  return out.str();
}

/// Per-tenant synthetic stream: a deterministic mix of random and mixture
/// batches, keyed by the tenant index so streams differ across tenants.
std::vector<linalg::Matrix> TenantStream(size_t tenant, size_t batches) {
  common::Rng rng(1000 + tenant);
  std::vector<linalg::Matrix> stream;
  for (size_t b = 0; b < batches; ++b) {
    if (b % 3 == 0) {
      stream.push_back(
          MixtureBatch(static_cast<double>(tenant % 5) / 4.0, 40 + 7 * b));
    } else {
      stream.push_back(RandomProbabilities(30 + 5 * b, rng));
    }
  }
  return stream;
}

/// Replays one tenant's stream through a standalone StreamingScorer,
/// returning the per-batch estimates (the ground truth the service's
/// coalesced batch path must match bitwise).
std::vector<core::ScoreEstimate> StandaloneEstimates(
    const std::shared_ptr<const core::PerformancePredictor>& predictor,
    const std::vector<linalg::Matrix>& stream) {
  auto scorer = StreamingScorer::Create(predictor, {});
  BBV_CHECK(scorer.ok());
  std::vector<core::ScoreEstimate> estimates;
  for (const linalg::Matrix& batch : stream) {
    BBV_CHECK(scorer->Ingest(batch).ok());
    const auto estimate = scorer->EstimateScore();
    BBV_CHECK(estimate.ok());
    estimates.push_back(*estimate);
  }
  return estimates;
}

TEST(ValidatorServiceTest, CreateTenantValidatesArguments) {
  auto predictor = TrainSharedPredictor(41);
  ValidatorService service;
  EXPECT_FALSE(service.CreateTenant("", predictor).ok());
  EXPECT_FALSE(service.CreateTenant("m", nullptr).ok());
  EXPECT_FALSE(
      service
          .CreateTenant("m", std::make_shared<const core::PerformancePredictor>())
          .ok());
  ValidatorService::TenantOptions bad_resolution;
  bad_resolution.scorer.resolution_bits = 0;
  EXPECT_FALSE(service.CreateTenant("m", predictor, bad_resolution).ok());
  ValidatorService::TenantOptions bad_threshold;
  bad_threshold.window_batches = 4;
  bad_threshold.alarm_threshold = 1.5;
  EXPECT_FALSE(service.CreateTenant("m", predictor, bad_threshold).ok());

  ASSERT_TRUE(service.CreateTenant("m", predictor).ok());
  EXPECT_EQ(service.CreateTenant("m", predictor).code(),
            common::StatusCode::kAlreadyExists);
  EXPECT_EQ(service.num_tenants(), 1u);
  EXPECT_TRUE(service.RemoveTenant("m").ok());
  EXPECT_EQ(service.RemoveTenant("m").code(),
            common::StatusCode::kNotFound);
}

TEST(ValidatorServiceTest, CoalescedFlushMatchesStandaloneBitwise) {
  auto predictor = TrainSharedPredictor(42);
  const size_t kTenants = 3;
  const size_t kBatches = 6;
  std::vector<std::vector<linalg::Matrix>> streams;
  for (size_t t = 0; t < kTenants; ++t) {
    streams.push_back(TenantStream(t, kBatches));
  }

  // One interleaved submission trace, replayed identically per run.
  auto run_service = [&](const char* threads) {
    ScopedThreadsEnv env(threads);
    ValidatorService service;
    std::vector<std::string> ids;
    for (size_t t = 0; t < kTenants; ++t) {
      ids.push_back("tenant-" + std::to_string(t));
      BBV_CHECK(service.CreateTenant(ids.back(), predictor).ok());
    }
    std::vector<std::vector<uint64_t>> request_ids(kTenants);
    for (size_t b = 0; b < kBatches; ++b) {
      for (size_t t = 0; t < kTenants; ++t) {
        request_ids[t].push_back(service.Submit(ids[t], streams[t][b]));
      }
    }
    const auto responses = service.Flush();
    BBV_CHECK(responses.size() == kTenants * kBatches);
    // Map responses back per tenant, in submission order.
    std::vector<std::vector<core::ScoreEstimate>> estimates(kTenants);
    for (size_t t = 0; t < kTenants; ++t) {
      for (const uint64_t id : request_ids[t]) {
        bool found = false;
        for (const auto& response : responses) {
          if (response.request_id != id) continue;
          BBV_CHECK(response.status.ok()) << response.status.ToString();
          estimates[t].push_back(response.estimate);
          found = true;
        }
        BBV_CHECK(found);
      }
    }
    std::vector<std::string> state;
    for (size_t t = 0; t < kTenants; ++t) {
      state.push_back(TenantBytes(service, ids[t]));
    }
    return std::make_pair(estimates, state);
  };

  const auto [serial_estimates, serial_state] = run_service("1");
  const auto [parallel_estimates, parallel_state] = run_service("8");

  for (size_t t = 0; t < kTenants; ++t) {
    const std::vector<core::ScoreEstimate> standalone =
        StandaloneEstimates(predictor, streams[t]);
    ASSERT_EQ(serial_estimates[t].size(), standalone.size());
    for (size_t b = 0; b < standalone.size(); ++b) {
      // Bitwise: the coalesced kernel batch walks trees in the same order
      // as the standalone scalar path.
      EXPECT_EQ(serial_estimates[t][b], standalone[b])
          << "tenant " << t << " batch " << b;
      EXPECT_EQ(parallel_estimates[t][b], standalone[b])
          << "tenant " << t << " batch " << b;
    }
    auto scorer = StreamingScorer::Create(predictor, {});
    ASSERT_TRUE(scorer.ok());
    for (const auto& batch : streams[t]) {
      ASSERT_TRUE(scorer->Ingest(batch).ok());
    }
    EXPECT_EQ(serial_state[t], ScorerBytes(*scorer));
    EXPECT_EQ(parallel_state[t], ScorerBytes(*scorer));
  }
}

TEST(ValidatorServiceTest, ScoreMatchesCoalescedFlush) {
  auto predictor = TrainSharedPredictor(43);
  const std::vector<linalg::Matrix> stream = TenantStream(7, 5);

  ValidatorService coalesced;
  ASSERT_TRUE(coalesced.CreateTenant("m", predictor).ok());
  for (const auto& batch : stream) coalesced.Submit("m", batch);
  const auto responses = coalesced.Flush();
  ASSERT_EQ(responses.size(), stream.size());

  ValidatorService sequential;
  ASSERT_TRUE(sequential.CreateTenant("m", predictor).ok());
  for (size_t b = 0; b < stream.size(); ++b) {
    const auto response = sequential.Score("m", stream[b]);
    ASSERT_TRUE(response.status.ok());
    ASSERT_TRUE(responses[b].status.ok());
    EXPECT_EQ(response.estimate, responses[b].estimate) << "batch " << b;
    EXPECT_EQ(response.rows_ingested, responses[b].rows_ingested);
  }
  EXPECT_EQ(TenantBytes(coalesced, "m"), TenantBytes(sequential, "m"));
}

TEST(ValidatorServiceTest, EvictionAndRehydrationAreByteInvisible) {
  auto predictor = TrainSharedPredictor(44);
  ValidatorService::Options options;
  options.max_resident_tenants = 1;
  ValidatorService service(options);
  ASSERT_TRUE(service.CreateTenant("a", predictor).ok());
  ASSERT_TRUE(service.CreateTenant("b", predictor).ok());
  EXPECT_EQ(service.num_resident(), 1u);

  const std::vector<linalg::Matrix> stream_a = TenantStream(0, 4);
  const std::vector<linalg::Matrix> stream_b = TenantStream(1, 4);

  // Alternate tenants so every request lands on an evicted tenant and
  // forces a rehydration round-trip.
  std::vector<core::ScoreEstimate> estimates_a;
  std::vector<core::ScoreEstimate> estimates_b;
  for (size_t b = 0; b < 4; ++b) {
    const auto response_a = service.Score("a", stream_a[b]);
    ASSERT_TRUE(response_a.status.ok()) << response_a.status.ToString();
    estimates_a.push_back(response_a.estimate);
    const auto response_b = service.Score("b", stream_b[b]);
    ASSERT_TRUE(response_b.status.ok()) << response_b.status.ToString();
    estimates_b.push_back(response_b.estimate);
  }
  EXPECT_EQ(service.num_resident(), 1u);

  const auto info_a = service.GetTenantInfo("a");
  const auto info_b = service.GetTenantInfo("b");
  ASSERT_TRUE(info_a.ok());
  ASSERT_TRUE(info_b.ok());
  // "b" was scored last, so it holds the single residency slot.
  EXPECT_FALSE(info_a->resident);
  EXPECT_TRUE(info_b->resident);
  size_t rows_a = 0;
  for (const auto& batch : stream_a) rows_a += batch.rows();
  EXPECT_EQ(info_a->rows_ingested, rows_a);

  // Evicted and resident tenants must serialize the same canonical bytes a
  // standalone scorer of the same stream produces.
  const std::vector<core::ScoreEstimate> standalone_a =
      StandaloneEstimates(predictor, stream_a);
  const std::vector<core::ScoreEstimate> standalone_b =
      StandaloneEstimates(predictor, stream_b);
  for (size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(estimates_a[b], standalone_a[b]) << "batch " << b;
    EXPECT_EQ(estimates_b[b], standalone_b[b]) << "batch " << b;
  }
  auto replay_a = StreamingScorer::Create(predictor, {});
  auto replay_b = StreamingScorer::Create(predictor, {});
  ASSERT_TRUE(replay_a.ok());
  ASSERT_TRUE(replay_b.ok());
  for (const auto& batch : stream_a) ASSERT_TRUE(replay_a->Ingest(batch).ok());
  for (const auto& batch : stream_b) ASSERT_TRUE(replay_b->Ingest(batch).ok());
  EXPECT_EQ(TenantBytes(service, "a"), ScorerBytes(*replay_a));
  EXPECT_EQ(TenantBytes(service, "b"), ScorerBytes(*replay_b));

  // EstimateScore rehydrates "a" and answers from the restored state.
  const auto estimate = service.EstimateScore("a");
  ASSERT_TRUE(estimate.ok());
  const auto replayed = replay_a->EstimateScore();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*estimate, *replayed);
  EXPECT_TRUE(service.GetTenantInfo("a")->resident);
}

/// Reference LRU residency model: the service must evict exactly the
/// tenants this picks. Every use stamps a fresh clock value; enforcing the
/// cap evicts the resident tenant with the oldest stamp until it holds.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t cap) : cap_(cap) {}

  /// A CreateTenant or an EstimateScore: touch one tenant, then enforce.
  void Use(const std::string& id) {
    Touch(id);
    Enforce();
  }
  void Remove(const std::string& id) {
    stamps_.erase(id);
    resident_.erase(id);
  }
  /// A flush: touch the tenants in first-appearance order, then enforce.
  void Flush(const std::vector<std::string>& first_appearance) {
    for (const std::string& id : first_appearance) Touch(id);
    Enforce();
  }
  bool resident(const std::string& id) const { return resident_.contains(id); }
  size_t num_resident() const { return resident_.size(); }

 private:
  void Touch(const std::string& id) {
    stamps_[id] = ++clock_;
    resident_.insert(id);
  }
  void Enforce() {
    while (resident_.size() > cap_) {
      std::string coldest;
      for (const std::string& id : resident_) {
        if (coldest.empty() || stamps_.at(id) < stamps_.at(coldest)) {
          coldest = id;
        }
      }
      resident_.erase(coldest);
    }
  }

  size_t cap_;
  uint64_t clock_ = 0;
  std::map<std::string, uint64_t> stamps_;
  std::set<std::string> resident_;
};

TEST(ValidatorServiceTest, EvictionOrderMatchesReferenceLru) {
  auto predictor = TrainSharedPredictor(48);
  constexpr size_t kCap = 3;
  constexpr size_t kTenants = 8;
  ValidatorService::Options options;
  options.max_resident_tenants = kCap;
  ValidatorService service(options);
  ReferenceLru lru(kCap);
  std::vector<std::string> ids;
  std::vector<std::vector<linalg::Matrix>> streams;
  for (size_t t = 0; t < kTenants; ++t) {
    ids.push_back(std::to_string(t));
    ids.back().insert(0, 1, 't');
    streams.push_back(TenantStream(t, 6));
  }
  std::vector<bool> registered(kTenants, false);
  std::vector<size_t> submitted(kTenants, 0);
  std::vector<std::vector<core::ScoreEstimate>> estimates(kTenants);

  const auto expect_residency = [&](const std::string& step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(service.num_resident(), lru.num_resident());
    for (size_t t = 0; t < kTenants; ++t) {
      if (!registered[t]) continue;
      const auto info = service.GetTenantInfo(ids[t]);
      ASSERT_TRUE(info.ok());
      EXPECT_EQ(info->resident, lru.resident(ids[t])) << ids[t];
    }
  };
  const auto create = [&](size_t t) {
    ASSERT_TRUE(service.CreateTenant(ids[t], predictor).ok());
    registered[t] = true;
    lru.Use(ids[t]);
    std::string step = "create ";
    step += ids[t];
    expect_residency(step);
  };
  // Submits the next batch of each listed tenant (repeats allowed) in
  // order, flushes once and records every estimate.
  const auto flush = [&](const std::vector<size_t>& tenants) {
    std::vector<std::string> first_appearance;
    std::vector<size_t> owners;
    for (const size_t t : tenants) {
      const std::string& id = ids[t];
      if (std::find(first_appearance.begin(), first_appearance.end(), id) ==
          first_appearance.end()) {
        first_appearance.push_back(id);
      }
      service.Submit(id, streams[t][submitted[t]++]);
      owners.push_back(t);
    }
    const auto responses = service.Flush();
    ASSERT_EQ(responses.size(), owners.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.ToString();
      estimates[owners[i]].push_back(responses[i].estimate);
    }
    lru.Flush(first_appearance);
    std::string step = "flush";
    for (const std::string& id : first_appearance) {
      step += ' ';
      step += id;
    }
    expect_residency(step);
  };

  // Going over the cap through CreateTenant: one victim per create.
  for (size_t t = 0; t < 7; ++t) create(t);
  // Five distinct tenants, four of them evicted, in one flush: the call
  // rehydrates four and then evicts four, the untouched t5 and t6 first,
  // then the earliest-touched of this flush.
  flush({2, 0, 4, 2, 1, 3, 0});
  flush({6, 5});
  flush({0, 1, 2, 3, 4, 5, 6});
  // EstimateScore rehydrates an evicted tenant, which used to leave the
  // service over its cap; the estimate is the tenant's latest answer.
  const auto estimate = [&](size_t t) {
    const auto current = service.EstimateScore(ids[t]);
    ASSERT_TRUE(current.ok()) << current.status().ToString();
    EXPECT_EQ(*current, estimates[t].back());
    lru.Use(ids[t]);
    std::string step = "estimate ";
    step += ids[t];
    expect_residency(step);
  };
  estimate(0);
  estimate(1);
  estimate(0);
  // Removing a resident tenant frees its slot: the next create evicts no one.
  ASSERT_TRUE(service.RemoveTenant(ids[6]).ok());
  registered[6] = false;
  lru.Remove(ids[6]);
  expect_residency("remove t6");
  create(7);
  flush({7, 1, 4, 7, 3});

  // Every state, resident or evicted, and every answer equals a standalone
  // replay of the batches the tenant was sent.
  for (size_t t = 0; t < kTenants; ++t) {
    if (!registered[t]) continue;
    SCOPED_TRACE(ids[t]);
    const std::vector<linalg::Matrix> sent(
        streams[t].begin(),
        streams[t].begin() + static_cast<std::ptrdiff_t>(submitted[t]));
    EXPECT_EQ(estimates[t], StandaloneEstimates(predictor, sent));
    auto replay = StreamingScorer::Create(predictor, {});
    ASSERT_TRUE(replay.ok());
    for (const auto& batch : sent) ASSERT_TRUE(replay->Ingest(batch).ok());
    EXPECT_EQ(TenantBytes(service, ids[t]), ScorerBytes(*replay));
  }
}

TEST(ValidatorServiceTest, EvictionOrderMatchesReferenceLruOnRandomTraffic) {
  // Skewed random flushes over many tenants, so most flushes rehydrate and
  // evict several tenants at once; the resident set must follow the
  // reference model after every flush.
  auto predictor = TrainSharedPredictor(49);
  constexpr size_t kCap = 5;
  constexpr size_t kTenants = 24;
  ValidatorService::Options options;
  options.max_resident_tenants = kCap;
  ValidatorService service(options);
  ReferenceLru lru(kCap);
  std::vector<std::string> ids;
  for (size_t t = 0; t < kTenants; ++t) {
    ids.push_back(std::to_string(t));
    ids.back().insert(0, 1, 'r');
    ASSERT_TRUE(service.CreateTenant(ids.back(), predictor).ok());
    lru.Use(ids.back());
  }
  common::Rng rng(50);
  std::vector<std::vector<linalg::Matrix>> sent(kTenants);
  for (int round = 0; round < 40; ++round) {
    std::vector<std::string> first_appearance;
    const int64_t requests = rng.UniformInt(1, 12);
    for (int64_t r = 0; r < requests; ++r) {
      // Squaring a uniform draw skews traffic toward low tenant indices.
      const double u = rng.Uniform();
      const auto t = std::min(kTenants - 1, static_cast<size_t>(
                                                u * u * kTenants));
      if (std::find(first_appearance.begin(), first_appearance.end(),
                    ids[t]) == first_appearance.end()) {
        first_appearance.push_back(ids[t]);
      }
      sent[t].push_back(RandomProbabilities(8, rng));
      service.Submit(ids[t], sent[t].back());
    }
    for (const auto& response : service.Flush()) {
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    }
    lru.Flush(first_appearance);
    ASSERT_EQ(service.num_resident(), lru.num_resident()) << "round " << round;
    for (const std::string& id : ids) {
      const auto info = service.GetTenantInfo(id);
      ASSERT_TRUE(info.ok());
      ASSERT_EQ(info->resident, lru.resident(id))
          << id << " after round " << round;
    }
  }
  for (size_t t = 0; t < kTenants; ++t) {
    auto replay = StreamingScorer::Create(predictor, {});
    ASSERT_TRUE(replay.ok());
    for (const auto& batch : sent[t]) ASSERT_TRUE(replay->Ingest(batch).ok());
    EXPECT_EQ(TenantBytes(service, ids[t]), ScorerBytes(*replay)) << ids[t];
  }
}

TEST(ValidatorServiceTest, HotSwapAppliesAtItsQueuePosition) {
  auto old_predictor = TrainSharedPredictor(45);
  auto new_predictor = TrainSharedPredictor(46);
  const linalg::Matrix before = MixtureBatch(0.8, 300);
  const linalg::Matrix after = MixtureBatch(0.8, 310);

  ValidatorService service;
  ASSERT_TRUE(service.CreateTenant("m", old_predictor).ok());
  const uint64_t id_before = service.Submit("m", before);
  const uint64_t id_swap = service.SubmitSwap("m", new_predictor);
  const uint64_t id_after = service.Submit("m", after);
  const auto responses = service.Flush();
  ASSERT_EQ(responses.size(), 3u);
  ASSERT_EQ(responses[0].request_id, id_before);
  ASSERT_EQ(responses[1].request_id, id_swap);
  ASSERT_EQ(responses[2].request_id, id_after);
  ASSERT_TRUE(responses[0].status.ok());
  ASSERT_TRUE(responses[1].status.ok());
  ASSERT_TRUE(responses[2].status.ok());
  EXPECT_TRUE(responses[1].is_swap);
  EXPECT_EQ(responses[0].epoch, 0u);
  EXPECT_EQ(responses[1].epoch, 1u);
  EXPECT_EQ(responses[2].epoch, 1u);

  // The request ahead of the swap is scored by the old forest; the one
  // behind it by the new forest — even though all three ride one flush.
  auto replay = StreamingScorer::Create(old_predictor, {});
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(replay->Ingest(before).ok());
  const auto old_estimate = replay->EstimateScore();
  ASSERT_TRUE(old_estimate.ok());
  EXPECT_EQ(responses[0].estimate, *old_estimate);

  ASSERT_TRUE(replay->SwapPredictor(new_predictor).ok());
  ASSERT_TRUE(replay->Ingest(after).ok());
  const auto new_estimate = replay->EstimateScore();
  ASSERT_TRUE(new_estimate.ok());
  EXPECT_EQ(responses[2].estimate, *new_estimate);

  // The two forests genuinely differ, otherwise this test proves nothing.
  auto cross_check = StreamingScorer::Create(old_predictor, {});
  ASSERT_TRUE(cross_check.ok());
  ASSERT_TRUE(cross_check->Ingest(before).ok());
  ASSERT_TRUE(cross_check->Ingest(after).ok());
  const auto old_path = cross_check->EstimateScore();
  ASSERT_TRUE(old_path.ok());
  EXPECT_NE(responses[2].estimate, *old_path);

  const auto info = service.GetTenantInfo("m");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->epoch, 1u);
}

TEST(ValidatorServiceTest, MalformedRequestsFailSoftly) {
  auto predictor = TrainSharedPredictor(47);
  ValidatorService service;
  ASSERT_TRUE(service.CreateTenant("m", predictor).ok());

  EXPECT_EQ(service.Score("ghost", MixtureBatch(1.0, 8)).status.code(),
            common::StatusCode::kNotFound);

  EXPECT_FALSE(service.Score("m", linalg::Matrix()).status.ok());
  EXPECT_FALSE(service.Score("m", linalg::Matrix(4, 3)).status.ok());
  linalg::Matrix poisoned = MixtureBatch(1.0, 8);
  poisoned.At(3, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(service.Score("m", poisoned).status.ok());

  // A rejected swap leaves the tenant on its old predictor and epoch.
  service.SubmitSwap("m", nullptr);
  service.SubmitSwap("m",
                     std::make_shared<const core::PerformancePredictor>());
  for (const auto& response : service.Flush()) {
    EXPECT_TRUE(response.is_swap);
    EXPECT_FALSE(response.status.ok());
  }
  const auto info = service.GetTenantInfo("m");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->epoch, 0u);
  EXPECT_EQ(info->rows_ingested, 0u);

  // The tenant is fully usable after every failure above.
  const auto response = service.Score("m", MixtureBatch(1.0, 200));
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(std::isfinite(response.estimate.point));
  EXPECT_EQ(response.rows_ingested, 200u);
}

TEST(ValidatorServiceTest, MonitoredTenantAlarmsOnWindowedDrop) {
  auto predictor = TrainSharedPredictor(48);
  ValidatorService service;
  ValidatorService::TenantOptions options;
  options.window_batches = 2;
  options.alarm_threshold = 0.35;
  ASSERT_TRUE(service.CreateTenant("m", predictor, options).ok());

  const linalg::Matrix good = MixtureBatch(1.0, 400);
  const linalg::Matrix bad = MixtureBatch(0.0, 400);

  const auto healthy = service.Score("m", good);
  ASSERT_TRUE(healthy.status.ok());
  EXPECT_TRUE(healthy.monitored);
  EXPECT_FALSE(healthy.alarm);

  // One degraded batch shares the window with the healthy one: no alarm.
  const auto mixed = service.Score("m", bad);
  ASSERT_TRUE(mixed.status.ok());
  EXPECT_FALSE(mixed.alarm);
  EXPECT_LT(mixed.windowed_relative_drop, options.alarm_threshold);

  // The second degraded batch evicts the healthy one and the alarm fires.
  const auto degraded = service.Score("m", bad);
  ASSERT_TRUE(degraded.status.ok());
  EXPECT_TRUE(degraded.alarm);
  EXPECT_GE(degraded.windowed_relative_drop, options.alarm_threshold);
  const auto info = service.GetTenantInfo("m");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->monitored);
  EXPECT_EQ(info->monitor_alarms, 1u);
}

TEST(ValidatorServiceTest, ConcurrentSubmitFlushAndSwapStayCoherent) {
  ScopedThreadsEnv env("8");
  auto predictor = TrainSharedPredictor(49);
  auto retrained = TrainSharedPredictor(50);
  const size_t kWorkers = 6;
  const size_t kBatches = 5;

  ValidatorService service;
  std::vector<std::string> ids;
  std::vector<std::vector<linalg::Matrix>> streams;
  for (size_t t = 0; t < kWorkers; ++t) {
    ids.push_back("tenant-" + std::to_string(t));
    ASSERT_TRUE(service.CreateTenant(ids[t], predictor).ok());
    streams.push_back(TenantStream(t, kBatches));
  }

  // Each worker drives its own tenant: submits its stream in order,
  // interleaves Flush calls (draining whatever other workers queued), and
  // worker 0 hot-swaps its tenant mid-stream. Per-tenant submission order
  // is still total because one worker owns each tenant, so the final state
  // must match a standalone replay no matter how the flushes interleave.
  const common::Status raced =
      common::ParallelFor(kWorkers, [&](size_t t) -> common::Status {
        for (size_t b = 0; b < kBatches; ++b) {
          service.Submit(ids[t], streams[t][b]);
          if (t == 0 && b == 2) service.SubmitSwap(ids[t], retrained);
          if (b % 2 == 1) service.Flush();
        }
        return common::Status::OK();
      });
  ASSERT_TRUE(raced.ok());
  service.Flush();
  EXPECT_EQ(service.num_pending(), 0u);

  for (size_t t = 0; t < kWorkers; ++t) {
    auto replay = StreamingScorer::Create(predictor, {});
    ASSERT_TRUE(replay.ok());
    for (const auto& batch : streams[t]) {
      ASSERT_TRUE(replay->Ingest(batch).ok());
    }
    EXPECT_EQ(TenantBytes(service, ids[t]), ScorerBytes(*replay))
        << "tenant " << t;
    const auto info = service.GetTenantInfo(ids[t]);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->epoch, t == 0 ? 1u : 0u);
    const auto estimate = service.EstimateScore(ids[t]);
    ASSERT_TRUE(estimate.ok());
    EXPECT_TRUE(std::isfinite(estimate->point));
  }
}

}  // namespace
}  // namespace bbv::serve
