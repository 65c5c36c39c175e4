// Load-generation plane tests (DESIGN.md §14). The whole binary carries
// the `determinism` ctest label: the arrival processes and the loadgen
// driver promise byte-identical output per seed under the discrete-event
// scheduler, and the gates here compare raw double bytes, not tolerances.
// Alongside the bit-stability gates: the one percentile rule (exact
// nearest rank, pinned byte for byte against the historical resilience
// percentile, and what LoadResult reports), phase statistics (Little's
// law holds by construction) and Zipf skew properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/teamnet.hpp"
#include "data/blobs.hpp"
#include "data/synthetic_mnist.hpp"
#include "load/arrival.hpp"
#include "load/breakdown.hpp"
#include "load/loadgen.hpp"
#include "load/stats.hpp"
#include "net/collab.hpp"
#include "net/message.hpp"
#include "nn/mlp.hpp"
#include "obs/percentile.hpp"
#include "sim/driver_util.hpp"
#include "sim/scenario.hpp"

namespace teamnet {
namespace {

std::uint64_t determinism_seed() {
  const char* env = std::getenv("TEAMNET_DETERMINISM_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 123u;
}

void put_double(std::string& out, double v) {
  char raw[sizeof v];
  std::memcpy(raw, &v, sizeof v);
  out.append(raw, sizeof v);
}

// ---- arrival processes ------------------------------------------------------

std::string arrival_bytes(load::ArrivalProcess& process, int n) {
  std::string out;
  double now = 0.0;
  for (int i = 0; i < n; ++i) {
    const double t = process.next_arrival(now);
    put_double(out, t);
    now = std::max(now, t);
    // Closed loops need completions to keep drawing; a fixed service time
    // keeps the feedback deterministic.
    process.on_complete(now + 0.001);
  }
  return out;
}

TEST(Arrival, SameSeedSameByteSequenceEveryKind) {
  for (const auto kind :
       {load::ArrivalKind::open_poisson, load::ArrivalKind::closed_loop,
        load::ArrivalKind::bursty}) {
    load::ArrivalConfig cfg;
    cfg.kind = kind;
    cfg.seed = determinism_seed();
    auto a = load::make_arrival_process(cfg);
    auto b = load::make_arrival_process(cfg);
    EXPECT_EQ(arrival_bytes(*a, 200), arrival_bytes(*b, 200))
        << load::to_string(kind);
  }
}

TEST(Arrival, DifferentSeedDifferentSequence) {
  for (const auto kind :
       {load::ArrivalKind::open_poisson, load::ArrivalKind::closed_loop,
        load::ArrivalKind::bursty}) {
    load::ArrivalConfig cfg;
    cfg.kind = kind;
    cfg.seed = 1;
    auto a = load::make_arrival_process(cfg);
    cfg.seed = 2;
    auto b = load::make_arrival_process(cfg);
    EXPECT_NE(arrival_bytes(*a, 50), arrival_bytes(*b, 50))
        << load::to_string(kind);
  }
}

TEST(Arrival, ArrivalsAreNondecreasing) {
  for (const auto kind :
       {load::ArrivalKind::open_poisson, load::ArrivalKind::closed_loop,
        load::ArrivalKind::bursty}) {
    load::ArrivalConfig cfg;
    cfg.kind = kind;
    cfg.seed = determinism_seed();
    auto p = load::make_arrival_process(cfg);
    double prev = 0.0;
    for (int i = 0; i < 500; ++i) {
      const double t = p->next_arrival(prev);
      EXPECT_GE(t, prev) << load::to_string(kind) << " draw " << i;
      prev = t;
      p->on_complete(prev + 0.001);
    }
  }
}

TEST(Arrival, OpenPoissonMeanGapMatchesRate) {
  load::ArrivalConfig cfg;
  cfg.kind = load::ArrivalKind::open_poisson;
  cfg.rate_qps = 200.0;
  cfg.seed = determinism_seed();
  auto p = load::make_arrival_process(cfg);
  const int n = 4000;
  double last = 0.0;
  for (int i = 0; i < n; ++i) last = p->next_arrival(last);
  // Mean gap = last/n; for 4000 exponential draws the sample mean is
  // within ~5 sigma of 1/rate at a 10% band.
  EXPECT_NEAR(last / n, 1.0 / cfg.rate_qps, 0.1 / cfg.rate_qps);
}

TEST(Arrival, ClosedLoopThrowsWhenPopulationExhausted) {
  load::ArrivalConfig cfg;
  cfg.kind = load::ArrivalKind::closed_loop;
  cfg.clients = 2;
  cfg.seed = determinism_seed();
  auto p = load::make_arrival_process(cfg);
  p->next_arrival(0.0);
  p->next_arrival(0.0);  // both clients now awaiting completions
  EXPECT_THROW(p->next_arrival(0.0), InvariantError);
  p->on_complete(1.0);  // one client finishes thinking eventually
  EXPECT_GT(p->next_arrival(0.0), 1.0);
}

TEST(Arrival, BurstyStaysPositiveAndOrdered) {
  load::ArrivalConfig cfg;
  cfg.kind = load::ArrivalKind::bursty;
  cfg.rate_qps = 100.0;
  cfg.burst_amplitude = 1.0;  // rate touches zero at the trough
  cfg.burst_period_s = 0.5;
  cfg.seed = determinism_seed();
  auto p = load::make_arrival_process(cfg);
  double prev = 0.0;
  for (int i = 0; i < 300; ++i) {
    const double t = p->next_arrival(prev);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

// ---- Zipf class skew --------------------------------------------------------

TEST(Zipf, ExponentZeroIsUniformish) {
  load::ZipfClassSampler sampler(4, 0.0, determinism_seed());
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) counts[sampler.sample()]++;
  for (int c = 0; c < 4; ++c) {
    EXPECT_NEAR(counts[c], 1000, 150) << "class " << c;
  }
}

TEST(Zipf, SkewConcentratesOnSeededHotClass) {
  load::ZipfClassSampler sampler(8, 1.2, determinism_seed());
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 4000; ++i) counts[sampler.sample()]++;
  const int hot = sampler.hot_classes()[0];
  for (int c = 0; c < 8; ++c) {
    if (c != hot) {
      EXPECT_GE(counts[hot], counts[c]);
    }
  }
  // Zipf(1.2) over 8 classes gives the rank-1 class ~37% of the mass —
  // far above the 12.5% uniform share.
  EXPECT_GT(counts[hot], 4000 / 4);
}

TEST(Zipf, HotClassesIsSeededPermutation) {
  load::ZipfClassSampler a(6, 1.0, 5);
  load::ZipfClassSampler b(6, 1.0, 5);
  EXPECT_EQ(a.hot_classes(), b.hot_classes());
  auto sorted = a.hot_classes();
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Zipf, SameSeedSameDraws) {
  load::ZipfClassSampler a(5, 0.9, determinism_seed());
  load::ZipfClassSampler b(5, 0.9, determinism_seed());
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.sample(), b.sample());
}

// ---- shared nearest-rank percentile -----------------------------------------

/// The historical implementation this repo's resilience numbers were
/// published with (verbatim from the pre-refactor scenario.cpp); the
/// shared helper must reproduce it byte for byte.
double legacy_percentile_ms(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  return values[std::min(rank, n) - 1];
}

TEST(Percentile, SharedHelperMatchesLegacyByteForByte) {
  Rng rng(determinism_seed());
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> values;
    const int n = 1 + rng.randint(0, 99);
    for (int i = 0; i < n; ++i) {
      values.push_back(static_cast<double>(rng.uniform(0.0f, 100.0f)));
    }
    for (double pct : {0.001, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      const double expected = legacy_percentile_ms(values, pct);
      const double actual = obs::nearest_rank_percentile(values, pct);
      EXPECT_EQ(std::memcmp(&expected, &actual, sizeof expected), 0)
          << "n=" << n << " pct=" << pct;
    }
  }
  EXPECT_EQ(obs::nearest_rank_percentile({}, 50.0), 0.0);
}

TEST(Percentile, NearestRankRule) {
  EXPECT_EQ(obs::nearest_rank(0, 50.0), 0u);
  EXPECT_EQ(obs::nearest_rank(4, 50.0), 2u);
  EXPECT_EQ(obs::nearest_rank(4, 100.0), 4u);
  EXPECT_EQ(obs::nearest_rank(100, 99.0), 99u);
  EXPECT_EQ(obs::nearest_rank(100, 99.9), 100u);
  EXPECT_EQ(obs::nearest_rank(10, 0.001), 1u);  // rank clamps up to 1
  // 0.999 * 1000 is 999.0000000000001 in doubles: the rank must still be
  // 999, not the max.
  EXPECT_EQ(obs::nearest_rank(1000, 99.9), 999u);
  EXPECT_EQ(obs::nearest_rank(10000, 99.9), 9990u);
}

TEST(Percentile, PublishedOnlyWithTenSamplesBeyond) {
  EXPECT_EQ(obs::published_percentile(7.0, 20, 50.0), 7.0);  // 10 beyond
  EXPECT_TRUE(std::isnan(obs::published_percentile(7.0, 19, 50.0)));
  EXPECT_TRUE(std::isnan(obs::published_percentile(7.0, 32, 90.0)));
  EXPECT_EQ(obs::published_percentile(7.0, 100, 90.0), 7.0);
  EXPECT_TRUE(std::isnan(obs::published_percentile(7.0, 180, 99.0)));
  EXPECT_EQ(obs::published_percentile(7.0, 1000, 99.0), 7.0);
  EXPECT_TRUE(std::isnan(obs::published_percentile(7.0, 0, 50.0)));
}

// ---- phase statistics -------------------------------------------------------

TEST(PhaseStats, LittlesLawOnSyntheticRecords) {
  // 10 queries, one per second, each served in exactly 0.5 s.
  std::vector<load::QueryRecord> records;
  for (int i = 0; i < 10; ++i) {
    load::QueryRecord r;
    r.arrival_s = static_cast<double>(i);
    r.completion_s = r.arrival_s + 0.5;
    records.push_back(r);
  }
  const auto phase = load::make_phase_stats(records, 0, records.size());
  EXPECT_EQ(phase.queries, 10);
  EXPECT_DOUBLE_EQ(phase.window_start_s, 0.0);
  EXPECT_DOUBLE_EQ(phase.window_end_s, 9.5);
  EXPECT_DOUBLE_EQ(phase.inflight_integral_s, 5.0);
  // L = lambda * W: 10 queries / 9.5 s * 0.5 s each.
  EXPECT_NEAR(phase.mean_inflight(),
              phase.achieved_qps() * 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(phase.offered_qps(), 10.0 / 9.0);
}

TEST(PhaseStats, WarmupQueryStraddlingBoundaryChargesBothPhases) {
  // Warmup query [0, 4] is still in flight when steady opens at t=2.
  std::vector<load::QueryRecord> records(2);
  records[0].arrival_s = 0.0;
  records[0].completion_s = 4.0;
  records[1].arrival_s = 2.0;
  records[1].completion_s = 6.0;
  const auto warmup = load::make_phase_stats(records, 0, 1);
  const auto steady = load::make_phase_stats(records, 1, 2);
  // Warmup window [0,4]: own query 4s + steady query's [2,4] overlap.
  EXPECT_DOUBLE_EQ(warmup.inflight_integral_s, 6.0);
  // Steady window [2,6]: own query 4s + warmup query's [2,4] overlap.
  EXPECT_DOUBLE_EQ(steady.inflight_integral_s, 6.0);
  EXPECT_EQ(steady.queries, 1);
}

TEST(PhaseStats, LoadResultPercentilesAreExactNearestRank) {
  // 3 warmup + 30 steady queries, one every 10 ms, served in shuffled
  // times 2.000..4.900 ms (100 us steps) that sit on no bucket edge.
  load::LoadResult r;
  r.warmup_queries = 3;
  std::vector<double> steady_ms;
  for (int i = 0; i < 33; ++i) {
    load::QueryRecord rec;
    rec.arrival_s = 0.01 * i;
    rec.completion_s = rec.arrival_s + 0.002 + 1e-4 * ((i * 11) % 30);
    r.records.push_back(rec);
    if (i >= r.warmup_queries) {
      steady_ms.push_back(1e3 * (rec.completion_s - rec.arrival_s));
    }
  }
  load::summarize_records(r);
  EXPECT_EQ(r.steady.queries, 30);
  EXPECT_EQ(r.warmup.queries, 3);
  EXPECT_EQ(r.p50_ms, obs::nearest_rank_percentile(steady_ms, 50.0));
  EXPECT_EQ(r.p90_ms, obs::nearest_rank_percentile(steady_ms, 90.0));
  EXPECT_EQ(r.max_ms, *std::max_element(steady_ms.begin(), steady_ms.end()));
  EXPECT_EQ(r.mean_ms, obs::sample_mean(steady_ms));
  EXPECT_EQ(r.mean_inflight, r.steady.mean_inflight());
}

TEST(PhaseStats, EmptySliceIsAllZero) {
  const auto phase = load::make_phase_stats({}, 0, 0);
  EXPECT_EQ(phase.queries, 0);
  EXPECT_EQ(phase.offered_qps(), 0.0);
  EXPECT_EQ(phase.achieved_qps(), 0.0);
  EXPECT_EQ(phase.mean_inflight(), 0.0);
}

// ---- loadgen driver ---------------------------------------------------------

data::Dataset blob_test_set() {
  data::BlobsConfig cfg;
  cfg.num_samples = 200;
  cfg.num_classes = 4;
  cfg.dims = 8;
  cfg.seed = 21;
  return data::make_blobs(cfg);
}

std::vector<std::unique_ptr<nn::MlpNet>> make_experts(int k) {
  std::vector<std::unique_ptr<nn::MlpNet>> experts;
  for (int i = 0; i < k; ++i) {
    nn::MlpConfig cfg;
    cfg.in_features = 8;
    cfg.num_classes = 4;
    cfg.depth = 2;
    cfg.hidden = 12;
    Rng rng(100 + i);
    experts.push_back(std::make_unique<nn::MlpNet>(cfg, rng));
  }
  return experts;
}

std::vector<nn::Module*> expert_ptrs(
    const std::vector<std::unique_ptr<nn::MlpNet>>& experts) {
  std::vector<nn::Module*> ptrs;
  for (const auto& e : experts) ptrs.push_back(e.get());
  return ptrs;
}

sim::ScenarioConfig des_config() {
  sim::ScenarioConfig cfg;
  cfg.link = net::LinkProfile{0.0005, 0.0, 0.0};
  cfg.seed = determinism_seed();
  return cfg;
}

std::string result_bytes(const load::LoadResult& r) {
  std::string out = r.approach + '\0' + r.arrival + '\0';
  out += std::to_string(r.num_nodes) + ",";
  out += std::to_string(r.num_queries) + ",";
  out += std::to_string(r.schedule_digest);
  for (double v : {r.offered_qps, r.achieved_qps, r.p50_ms, r.p90_ms,
                   r.p99_ms, r.p999_ms, r.mean_ms, r.max_ms,
                   r.mean_inflight, r.accuracy_pct, r.bytes_per_query,
                   r.messages_per_query, r.air_bytes_per_query}) {
    put_double(out, v);
  }
  for (const auto& rec : r.records) {
    put_double(out, rec.arrival_s);
    put_double(out, rec.completion_s);
    out += std::to_string(rec.row);
    out += rec.correct ? '1' : '0';
  }
  return out;
}

load::LoadConfig small_load(load::ArrivalKind kind) {
  load::LoadConfig load_cfg;
  load_cfg.arrival.kind = kind;
  load_cfg.arrival.rate_qps = 500.0;
  load_cfg.arrival.clients = 3;
  load_cfg.arrival.seed = determinism_seed();
  load_cfg.num_queries = 12;
  load_cfg.warmup_queries = 3;
  load_cfg.query_seed = determinism_seed();
  return load_cfg;
}

TEST(LoadGen, ByteIdenticalAcrossRunsEveryKind) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  for (const auto kind :
       {load::ArrivalKind::open_poisson, load::ArrivalKind::closed_loop,
        load::ArrivalKind::bursty}) {
    const auto a =
        load::run_teamnet_load(ptrs, test, des_config(), small_load(kind));
    const auto b =
        load::run_teamnet_load(ptrs, test, des_config(), small_load(kind));
    EXPECT_EQ(result_bytes(a), result_bytes(b)) << load::to_string(kind);
    EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  }
}

TEST(LoadGen, RecordsAreCoherent) {
  const auto experts = make_experts(2);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  const auto r = load::run_teamnet_load(
      ptrs, test, des_config(), small_load(load::ArrivalKind::open_poisson));
  ASSERT_EQ(static_cast<int>(r.records.size()), r.num_queries);
  double prev_arrival = 0.0;
  double prev_completion = 0.0;
  for (const auto& rec : r.records) {
    EXPECT_GE(rec.arrival_s, prev_arrival);
    EXPECT_GT(rec.completion_s, rec.arrival_s);
    // FIFO workers and a FIFO medium: a fault-free fleet completes its
    // queries in arrival order, however many are in flight.
    EXPECT_GE(rec.completion_s, prev_completion);
    EXPECT_GE(rec.row, 0);
    EXPECT_LT(rec.row, static_cast<int>(test.size()));
    prev_arrival = rec.arrival_s;
    prev_completion = rec.completion_s;
  }
  EXPECT_GT(r.achieved_qps, 0.0);
  EXPECT_GT(r.p50_ms, 0.0);
  EXPECT_GE(r.p99_ms, r.p50_ms);
  EXPECT_GE(r.p999_ms, r.p99_ms);
  EXPECT_EQ(r.steady.queries, r.num_queries - r.warmup_queries);
  EXPECT_EQ(r.warmup.queries, r.warmup_queries);
}

TEST(LoadGen, EightNodeRunKeepsEveryStragglerSlack) {
  // Seven workers, every gather full: a query has six stragglers when a
  // worker's reply released it and seven when the master's expert did.
  const auto experts = make_experts(8);
  const auto r = load::run_teamnet_load(
      expert_ptrs(experts), blob_test_set(), des_config(),
      small_load(load::ArrivalKind::open_poisson));
  ASSERT_EQ(r.attributions.size(), r.records.size());
  for (const auto& a : r.attributions) {
    EXPECT_EQ(a.crit_sum(), a.total_ns) << "qid " << a.qid;
    EXPECT_EQ(r.attributions.straggler_slack_ns(a).size(),
              a.critical_worker < 0 ? 7u : 6u)
        << "qid " << a.qid;
  }
}

TEST(Breakdown, HandBuiltSetGivesTheCensus) {
  // Four queries, the first one warmup. Its slack (9 ms) and level must
  // not reach the summary; the others' slacks keep query then lane order.
  struct Row {
    std::int64_t total_ms;
    std::vector<std::pair<obs::AttrPhase, std::int64_t>> e2e_ms;
    std::vector<std::pair<obs::AttrPhase, std::int64_t>> crit_ms;
    obs::AttrPhase dominant;
    int degradation;
    std::vector<std::int64_t> slack_ms;
  };
  constexpr std::int64_t kMs = 1'000'000;
  using P = obs::AttrPhase;
  const std::vector<Row> rows{
      {4, {{P::gather_wait, 4}}, {{P::worker_compute, 4}}, P::worker_compute,
       2, {9}},
      {10,
       {{P::master_queue, 2}, {P::gather_wait, 8}},
       {{P::reply_transit, 6}, {P::worker_compute, 4}},
       P::reply_transit,
       0,
       {1, 2}},
      {5, {{P::master_queue, 5}}, {{P::master_queue, 5}}, P::master_queue, 1,
       {}},
      // e2e falls 1 ms short of the total: not reconciled.
      {7, {{P::argmin, 6}}, {{P::local_compute, 7}}, P::local_compute, 2,
       {3}},
  };
  obs::AttributionSet set;
  for (std::size_t q = 0; q < rows.size(); ++q) {
    const Row& row = rows[q];
    obs::QueryAttribution a;
    a.qid = static_cast<std::int64_t>(q) + 1;
    a.total_ns = row.total_ms * kMs;
    for (const auto& [phase, ms] : row.e2e_ms) a.e2e_ns.at(phase) = ms * kMs;
    for (const auto& [phase, ms] : row.crit_ms) {
      a.crit_ns[static_cast<std::size_t>(phase)] = ms * kMs;
    }
    a.dominant = row.dominant;
    a.degradation = static_cast<std::int8_t>(row.degradation);
    std::vector<std::int64_t> slack;
    for (std::int64_t ms : row.slack_ms) slack.push_back(ms * kMs);
    set.add_query(a, slack);
  }

  const auto s = load::summarize_attributions(set, 1);
  EXPECT_EQ(s.queries, 3);
  EXPECT_EQ(s.reconciled, 2);
  EXPECT_EQ(s.max_residual_ns, 1 * kMs);
  EXPECT_EQ(s.latency_ms, (std::vector<double>{10.0, 5.0, 7.0}));
  EXPECT_EQ(s.straggler_slack_ms, (std::vector<double>{1.0, 2.0, 3.0}));
  for (int level = 0; level < 3; ++level) {
    EXPECT_EQ(s.levels[static_cast<std::size_t>(level)].queries, 1);
  }
  EXPECT_EQ(s.levels[2].latency_ms, (std::vector<double>{7.0}));
  const auto phase = [&s](P p) -> const load::PhaseBreakdown& {
    return s.phases[static_cast<std::size_t>(p)];
  };
  EXPECT_EQ(phase(P::master_queue).e2e_sum_ns, 7 * kMs);
  EXPECT_EQ(phase(P::gather_wait).e2e_sum_ns, 8 * kMs);
  EXPECT_EQ(phase(P::argmin).e2e_sum_ns, 6 * kMs);
  EXPECT_EQ(phase(P::worker_compute).crit_sum_ns, 4 * kMs);
  EXPECT_EQ(phase(P::worker_compute).crit_ms, (std::vector<double>{4.0}));
  EXPECT_EQ(phase(P::reply_transit).dominant_queries, 1);
  EXPECT_EQ(phase(P::master_queue).dominant_queries, 1);
  EXPECT_EQ(phase(P::local_compute).dominant_queries, 1);
  EXPECT_EQ(phase(P::worker_compute).dominant_queries, 0);
  EXPECT_EQ(s.dominant_kind_queries[static_cast<int>(obs::CritKind::transit)],
            1);
  EXPECT_EQ(
      s.dominant_kind_queries[static_cast<int>(obs::CritKind::queueing)], 1);
  EXPECT_EQ(s.dominant_kind_queries[static_cast<int>(obs::CritKind::compute)],
            1);
  EXPECT_EQ(s.crit_total_ns(), 22 * kMs);
  EXPECT_EQ(s.dominant_phase, P::local_compute);
}

/// A k=4 open-loop run at `rate_qps` on a link whose frames cost airtime,
/// unicast or multicast: queries overlap (most are still gathering when
/// the next is dispatched, so their replies are read after n+1 went out),
/// and every full gather answers what an in-process arg-min-entropy over
/// the same experts answers, ties going to the lowest node.
void expect_pipelined_full_gathers_match_oracle(bool multicast,
                                                double rate_qps) {
  const auto experts = make_experts(4);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  // Frames that cost airtime give the in-flight queries a medium to share.
  auto config = des_config();
  config.link.per_message_overhead_s = 0.0002;
  auto load_cfg = small_load(load::ArrivalKind::open_poisson);
  load_cfg.arrival.rate_qps = rate_qps;
  load_cfg.num_queries = 40;
  load_cfg.warmup_queries = 4;
  load_cfg.multicast = multicast;
  const auto r = load::run_teamnet_load(ptrs, test, config, load_cfg);
  ASSERT_EQ(static_cast<int>(r.records.size()), load_cfg.num_queries);

  ASSERT_EQ(r.attributions.size(), r.records.size());
  int overlapped = 0;
  for (std::size_t q = 0; q + 1 < r.attributions.size(); ++q) {
    const auto& next = r.attributions[q + 1];
    const std::int64_t next_dispatch =
        next.arrival_ns +
        next.e2e_ns[static_cast<std::size_t>(obs::AttrPhase::master_queue)];
    if (next_dispatch < r.attributions[q].complete_ns) ++overlapped;
  }
  EXPECT_GT(2 * overlapped, load_cfg.num_queries);

  int checked = 0;
  for (const auto& rec : r.records) {
    if (rec.degradation != 0) continue;
    ++checked;
    const core::InferenceResult want =
        core::infer_experts(ptrs, sim::query_row_tensor(test, rec.row));
    EXPECT_EQ(rec.chosen, want.chosen[0]) << "row " << rec.row;
    EXPECT_EQ(rec.prediction, want.predictions[0]) << "row " << rec.row;
  }
  EXPECT_EQ(checked, load_cfg.num_queries);
}

TEST(LoadGen, PipelinedFullGathersMatchTheArgMinEntropyOracle) {
  expect_pipelined_full_gathers_match_oracle(/*multicast=*/false, 600.0);
}

TEST(LoadGen, MulticastFullGathersMatchTheArgMinEntropyOracle) {
  // One group frame per query leaves more of the medium free, so it takes
  // a higher rate to keep most queries overlapping.
  expect_pipelined_full_gathers_match_oracle(/*multicast=*/true, 900.0);
}

TEST(LoadGen, MulticastRunsAreByteIdenticalPerSeed) {
  const auto experts = make_experts(4);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  auto config = des_config();
  config.link.per_message_overhead_s = 0.0002;
  for (const auto kind :
       {load::ArrivalKind::open_poisson, load::ArrivalKind::closed_loop,
        load::ArrivalKind::bursty}) {
    auto load_cfg = small_load(kind);
    load_cfg.multicast = true;
    const auto a = load::run_teamnet_load(ptrs, test, config, load_cfg);
    const auto b = load::run_teamnet_load(ptrs, test, config, load_cfg);
    EXPECT_EQ(result_bytes(a), result_bytes(b)) << load::to_string(kind);
    EXPECT_EQ(a.schedule_digest, b.schedule_digest);
    // Not the unicast run under another name: the schedule differs.
    load_cfg.multicast = false;
    const auto unicast = load::run_teamnet_load(ptrs, test, config, load_cfg);
    EXPECT_NE(a.schedule_digest, unicast.schedule_digest);
  }
}

/// The compact Infer bytes of every query `r` served: each record's row as
/// the master codes it on every wire.
std::int64_t compact_infer_bytes(const load::LoadResult& r,
                                 const data::Dataset& test) {
  std::int64_t infers = 0;
  for (const auto& rec : r.records) {
    net::Message infer;
    infer.type = net::MsgType::Infer;
    net::set_infer_info(infer, {});
    infer.tensors = {sim::query_row_tensor(test, rec.row)};
    infers += infer.encoded_size(net::TensorCoding::compact);
  }
  return infers;
}

TEST(LoadGen, AirBytesCountEachGroupFrameOnce) {
  // MNIST-shaped frames: a compact [1, 784] Infer (the blobs rows take few
  // enough top bytes for the palette) and a 10-class Result of 112 B. A
  // k=4 unicast query puts 3 Infers and 3 Results on the air and delivers
  // the same; a multicast query puts ONE Infer on the air and still
  // delivers three.
  data::BlobsConfig data_cfg;
  data_cfg.num_samples = 40;
  data_cfg.num_classes = 10;
  data_cfg.dims = 784;
  data_cfg.seed = 21;
  const auto test = data::make_blobs(data_cfg);
  std::vector<std::unique_ptr<nn::MlpNet>> experts;
  for (int i = 0; i < 4; ++i) {
    nn::MlpConfig cfg;
    cfg.in_features = 784;
    cfg.num_classes = 10;
    cfg.depth = 2;
    cfg.hidden = 12;
    Rng rng(100 + i);
    experts.push_back(std::make_unique<nn::MlpNet>(cfg, rng));
  }
  const auto ptrs = expert_ptrs(experts);
  auto load_cfg = small_load(load::ArrivalKind::open_poisson);
  load_cfg.multicast = false;
  const auto unicast = load::run_teamnet_load(ptrs, test, des_config(), load_cfg);
  const auto unicast_n = static_cast<double>(unicast.num_queries);
  EXPECT_EQ(unicast.bytes_per_query,
            static_cast<double>(3 * compact_infer_bytes(unicast, test) +
                                3 * 112 * unicast.num_queries) /
                unicast_n);
  EXPECT_LT(unicast.bytes_per_query, 3 * 3192 + 3 * 112);
  EXPECT_EQ(unicast.air_bytes_per_query, unicast.bytes_per_query);
  EXPECT_EQ(unicast.messages_per_query, 6);
  load_cfg.multicast = true;
  const auto multicast =
      load::run_teamnet_load(ptrs, test, des_config(), load_cfg);
  const std::int64_t infers = compact_infer_bytes(multicast, test);
  const auto n = static_cast<double>(multicast.num_queries);
  EXPECT_EQ(multicast.air_bytes_per_query,
            static_cast<double>(infers + 3 * 112 * multicast.num_queries) / n);
  EXPECT_EQ(multicast.bytes_per_query,
            static_cast<double>(3 * infers + 3 * 112 * multicast.num_queries) / n);
  EXPECT_EQ(multicast.messages_per_query, unicast.messages_per_query);
  EXPECT_EQ(multicast.accuracy_pct, unicast.accuracy_pct);
}

TEST(LoadGen, CompactInferFramesAreLossless) {
  // Synthetic-MNIST rows have exact +0.0 pixels, so their Infers go out
  // compact on every wire. Every query, unicast and multicast, must still
  // be a full gather whose class and winning node are the single-process
  // oracle's (core::infer_experts) on the same row.
  data::MnistConfig data_cfg;
  data_cfg.num_samples = 40;
  data_cfg.seed = 21;
  const auto test = data::make_synthetic_mnist(data_cfg);
  std::vector<std::unique_ptr<nn::MlpNet>> experts;
  for (int i = 0; i < 4; ++i) {
    nn::MlpConfig cfg;
    cfg.in_features = 784;
    cfg.num_classes = 10;
    cfg.depth = 2;
    cfg.hidden = 12;
    Rng rng(100 + i);
    experts.push_back(std::make_unique<nn::MlpNet>(cfg, rng));
  }
  const auto ptrs = expert_ptrs(experts);
  auto load_cfg = small_load(load::ArrivalKind::open_poisson);
  for (const bool multicast : {false, true}) {
    load_cfg.multicast = multicast;
    const auto r = load::run_teamnet_load(ptrs, test, des_config(), load_cfg);
    ASSERT_EQ(static_cast<int>(r.records.size()), load_cfg.num_queries);
    for (const auto& rec : r.records) {
      EXPECT_EQ(rec.degradation, 0) << "row " << rec.row;
      const core::InferenceResult want =
          core::infer_experts(ptrs, sim::query_row_tensor(test, rec.row));
      EXPECT_EQ(rec.chosen, want.chosen[0]) << "row " << rec.row;
      EXPECT_EQ(rec.prediction, want.predictions[0]) << "row " << rec.row;
    }
    // On the air: the compact Infers as the master codes them, one per
    // query multicast and three unicast, and three 112 B Results.
    const std::int64_t infers = compact_infer_bytes(r, test);
    const auto n = static_cast<double>(r.records.size());
    EXPECT_EQ(r.air_bytes_per_query,
              static_cast<double>((multicast ? 1 : 3) * infers +
                                  3 * 112 * r.num_queries) /
                  n)
        << "multicast " << multicast;
    EXPECT_LT(r.air_bytes_per_query,
              (multicast ? 1 : 3) * 3192 + 3 * 112);
  }
}

TEST(LoadGen, QuorumOfOneCompletesEveryQueryAtDispatch) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  auto load_cfg = small_load(load::ArrivalKind::open_poisson);
  const auto full = load::run_teamnet_load(ptrs, test, des_config(), load_cfg);
  // The local answer alone meets a quorum of one, so no reply ever
  // completes a query: each must complete at dispatch, local only.
  load_cfg.gather_quorum = 1;
  const auto r = load::run_teamnet_load(ptrs, test, des_config(), load_cfg);
  ASSERT_EQ(static_cast<int>(r.records.size()), load_cfg.num_queries);
  for (const auto& rec : r.records) {
    EXPECT_EQ(rec.degradation,
              static_cast<int>(net::DegradationLevel::local_only));
    EXPECT_EQ(rec.chosen, 0);
    EXPECT_GT(rec.completion_s, rec.arrival_s);
  }
  // The replies still arrive and are read (as stale) before shutdown.
  EXPECT_EQ(r.messages_per_query, full.messages_per_query);
  EXPECT_EQ(r.bytes_per_query, full.bytes_per_query);
  EXPECT_LT(r.mean_ms, full.mean_ms);
}

TEST(LoadGen, RejectsNegativeQuorumAndDeadline) {
  // A negative quorum or deadline is a configuration error, not "none":
  // it must throw instead of running a full, unbounded gather.
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  auto load_cfg = small_load(load::ArrivalKind::open_poisson);
  load_cfg.gather_quorum = -1;
  EXPECT_THROW(load::run_teamnet_load(ptrs, test, des_config(), load_cfg),
               InvariantError);
  load_cfg.gather_quorum = 0;
  load_cfg.worker_timeout_s = -0.01;
  EXPECT_THROW(load::run_teamnet_load(ptrs, test, des_config(), load_cfg),
               InvariantError);
}

TEST(LoadGen, ZipfRowsSkewTowardHotClasses) {
  const auto test = blob_test_set();
  const auto uniform = load::sample_load_rows(test, 400, 9, 0.0);
  const auto skewed = load::sample_load_rows(test, 400, 9, 1.5);
  // Uniform path must be byte-identical to the scenario drivers' sampling.
  EXPECT_EQ(uniform, sim::sample_query_rows(test, 400, 9));
  // Count per-class traffic; the skewed stream's hottest class must take a
  // clearly super-uniform share.
  std::vector<int> counts(4, 0);
  for (int row : skewed) {
    counts[static_cast<std::size_t>(
        test.labels[static_cast<std::size_t>(row)])]++;
  }
  EXPECT_GT(*std::max_element(counts.begin(), counts.end()), 400 / 4 + 50);
  // Deterministic per seed.
  EXPECT_EQ(skewed, load::sample_load_rows(test, 400, 9, 1.5));
}

}  // namespace
}  // namespace teamnet
