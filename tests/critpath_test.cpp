// Latency-attribution tests (DESIGN.md §15). The binary carries the
// `determinism` ctest label: the attribution contract is EXACT — each
// query's end-to-end and critical-path partitions are integer-nanosecond
// telescopes that sum to the measured latency bit for bit, and the
// aggregated breakdown JSON is byte-identical across same-seed runs under
// the discrete-event scheduler. Alongside the exactness gates: synthetic
// attribute() units, fault-injection attribution (a delayed link lands in
// serialization/transit/slack, never in compute; a partitioned worker
// degrades the gather without breaking any sum), flow-event serialization
// with epoch-folded ids, and the breakdown JSON's exact percentiles.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/blobs.hpp"
#include "load/breakdown.hpp"
#include "load/loadgen.hpp"
#include "net/collab.hpp"
#include "net/fault.hpp"
#include "nn/mlp.hpp"
#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/percentile.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/des/runtime.hpp"
#include "sim/driver_util.hpp"
#include "sim/scenario.hpp"

namespace teamnet {
namespace {

constexpr std::int64_t kMs = 1'000'000;  // one millisecond in nanoseconds

std::uint64_t determinism_seed() {
  const char* env = std::getenv("TEAMNET_DETERMINISM_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 123u;
}

std::int64_t ns(const obs::QueryAttribution& a, obs::AttrPhase p) {
  return a.crit_ns[static_cast<std::size_t>(p)];
}
std::int64_t e2e(const obs::QueryAttribution& a, obs::AttrPhase p) {
  return a.e2e_ns[static_cast<std::size_t>(p)];
}

/// Critical-path nanoseconds attributed to `kind` across one query.
std::int64_t crit_kind_ns(const obs::QueryAttribution& a, obs::CritKind kind) {
  std::int64_t sum = 0;
  for (int p = 0; p < obs::kNumAttrPhases; ++p) {
    if (obs::kind_of(static_cast<obs::AttrPhase>(p)) == kind) {
      sum += a.crit_ns[static_cast<std::size_t>(p)];
    }
  }
  return sum;
}

// ---- attribute(): synthetic timelines ---------------------------------------

/// The worked example: an 11 ms query whose gather was released by worker
/// 0's reply, with worker 1 finishing 3 ms early.
obs::QueryTimeline worked_example() {
  obs::QueryTimeline tl;
  tl.qid = 7;
  tl.t[static_cast<int>(obs::QueryPhase::arrival)] = 0.000;
  tl.t[static_cast<int>(obs::QueryPhase::dispatch)] = 0.001;
  tl.t[static_cast<int>(obs::QueryPhase::broadcast_end)] = 0.003;
  tl.t[static_cast<int>(obs::QueryPhase::local_compute_end)] = 0.004;
  tl.t[static_cast<int>(obs::QueryPhase::gather_end)] = 0.010;
  tl.t[static_cast<int>(obs::QueryPhase::complete)] = 0.011;
  obs::WorkerLane& w0 = tl.lane(0);
  w0.t[static_cast<int>(obs::WorkerMark::sent)] = 0.002;
  w0.t[static_cast<int>(obs::WorkerMark::request_recv)] = 0.0025;
  w0.t[static_cast<int>(obs::WorkerMark::compute_begin)] = 0.0026;
  w0.t[static_cast<int>(obs::WorkerMark::compute_end)] = 0.006;
  w0.t[static_cast<int>(obs::WorkerMark::reply_sent)] = 0.0062;
  w0.t[static_cast<int>(obs::WorkerMark::reply_recv)] = 0.010;
  obs::WorkerLane& w1 = tl.lane(1);
  w1.t[static_cast<int>(obs::WorkerMark::sent)] = 0.003;
  w1.t[static_cast<int>(obs::WorkerMark::request_recv)] = 0.0035;
  w1.t[static_cast<int>(obs::WorkerMark::compute_begin)] = 0.0036;
  w1.t[static_cast<int>(obs::WorkerMark::compute_end)] = 0.005;
  w1.t[static_cast<int>(obs::WorkerMark::reply_sent)] = 0.0052;
  w1.t[static_cast<int>(obs::WorkerMark::reply_recv)] = 0.007;
  return tl;
}

TEST(Attribute, WorkedExampleSlicesAreExact) {
  obs::AttributionSet set;
  const auto& a = set.add_query(worked_example());
  EXPECT_EQ(a.qid, 7);
  EXPECT_EQ(a.total_ns, 11 * kMs);
  EXPECT_EQ(a.critical_worker, 0);

  // End-to-end partition: the master's five consecutive slices.
  EXPECT_EQ(e2e(a, obs::AttrPhase::master_queue), 1 * kMs);
  EXPECT_EQ(e2e(a, obs::AttrPhase::broadcast), 2 * kMs);
  EXPECT_EQ(e2e(a, obs::AttrPhase::local_compute), 1 * kMs);
  EXPECT_EQ(e2e(a, obs::AttrPhase::gather_wait), 6 * kMs);
  EXPECT_EQ(e2e(a, obs::AttrPhase::argmin), 1 * kMs);
  EXPECT_EQ(a.e2e_sum(), a.total_ns);

  // Critical-path partition through worker 0's lane.
  EXPECT_EQ(ns(a, obs::AttrPhase::master_queue), 1 * kMs);
  EXPECT_EQ(ns(a, obs::AttrPhase::broadcast_serial), 1 * kMs);
  EXPECT_EQ(ns(a, obs::AttrPhase::request_transit), kMs / 2);
  EXPECT_EQ(ns(a, obs::AttrPhase::worker_queue), kMs / 10);
  EXPECT_EQ(ns(a, obs::AttrPhase::worker_compute), 3'400'000);
  EXPECT_EQ(ns(a, obs::AttrPhase::reply_prep), 200'000);
  EXPECT_EQ(ns(a, obs::AttrPhase::reply_transit), 3'800'000);
  EXPECT_EQ(ns(a, obs::AttrPhase::gather_slack), 0);
  EXPECT_EQ(ns(a, obs::AttrPhase::argmin), 1 * kMs);
  EXPECT_EQ(ns(a, obs::AttrPhase::unattributed), 0);
  EXPECT_EQ(a.crit_sum(), a.total_ns);

  // Largest slice wins; reply transit (3.8 ms) beats compute (3.4 ms).
  EXPECT_EQ(a.dominant, obs::AttrPhase::reply_transit);
  EXPECT_EQ(a.dominant_kind(), obs::CritKind::transit);

  // Worker 1's reply was read 3 ms before the gather released.
  const auto slack = set.straggler_slack_ns(a);
  ASSERT_EQ(slack.size(), 1u);
  EXPECT_EQ(slack[0], 3 * kMs);
}

TEST(Attribute, CriticalPathSliceNeverExceedsTotal) {
  obs::AttributionSet set;
  const auto& a = set.add_query(worked_example());
  std::int64_t max_slice = 0;
  for (int p = 0; p < obs::kNumAttrPhases; ++p) {
    const std::int64_t v = a.crit_ns[static_cast<std::size_t>(p)];
    EXPECT_GE(v, 0);
    EXPECT_LE(v, a.total_ns);
    max_slice = std::max(max_slice, v);
  }
  // The dominant slice IS the maximum, and the chain covers it.
  EXPECT_EQ(ns(a, a.dominant), max_slice);
  EXPECT_GE(a.crit_sum(), max_slice);
}

TEST(Attribute, LocalReleaserChargesWaitAsGatherSlack) {
  // Master's own expert finished last: all worker replies arrived earlier.
  auto tl = worked_example();
  tl.t[static_cast<int>(obs::QueryPhase::local_compute_end)] = 0.0095;
  tl.lane(0).t[static_cast<int>(obs::WorkerMark::reply_recv)] = 0.005;
  obs::AttributionSet set;
  const auto& a = set.add_query(tl);
  EXPECT_EQ(a.critical_worker, -1);
  EXPECT_EQ(ns(a, obs::AttrPhase::local_compute), 6'500'000);
  // local_compute_end -> gather_end is slack, not gather_wait, on this
  // chain: the gather was only draining already-read replies.
  EXPECT_EQ(ns(a, obs::AttrPhase::gather_slack), kMs / 2);
  EXPECT_EQ(a.crit_sum(), a.total_ns);
  // Both workers were stragglers relative to the local expert.
  EXPECT_EQ(set.straggler_slack_ns(a).size(), 2u);
}

TEST(Attribute, MissingInteriorMarksCollapseToUnattributed) {
  // The critical worker's interior marks were suppressed (e.g. a hedged
  // backup answered under its identity): dispatch->reply is real time but
  // its interior must become `unattributed`, never a skewed named phase.
  auto tl = worked_example();
  obs::WorkerLane& w0 = tl.lane(0);
  w0 = obs::WorkerLane();
  w0.worker = 0;
  w0.t[static_cast<int>(obs::WorkerMark::sent)] = 0.002;
  w0.t[static_cast<int>(obs::WorkerMark::reply_recv)] = 0.010;
  obs::AttributionSet set;
  const auto& a = set.add_query(tl);
  EXPECT_EQ(a.critical_worker, 0);
  EXPECT_EQ(ns(a, obs::AttrPhase::broadcast_serial), 1 * kMs);
  EXPECT_EQ(ns(a, obs::AttrPhase::unattributed), 8 * kMs);
  EXPECT_EQ(ns(a, obs::AttrPhase::worker_compute), 0);
  EXPECT_EQ(a.crit_sum(), a.total_ns);
  EXPECT_EQ(a.e2e_sum(), a.total_ns);
}

TEST(Attribute, MissingAnchorsYieldEmptyAttribution) {
  obs::QueryTimeline tl;
  tl.qid = 3;
  tl.t[static_cast<int>(obs::QueryPhase::dispatch)] = 0.001;
  // No `complete` mark: nothing to anchor on.
  obs::AttributionSet set;
  const auto& a = set.add_query(tl);
  EXPECT_EQ(a.total_ns, 0);
  EXPECT_EQ(a.e2e_sum(), 0);
  EXPECT_EQ(a.crit_sum(), 0);
}

TEST(Attribute, AwkwardDoublesStillTelescopeExactly) {
  // Timestamps with no nice binary representation: the integer-ns
  // telescopes must still close bit-exactly, for any monotone chain.
  Rng rng(determinism_seed());
  for (int trial = 0; trial < 200; ++trial) {
    obs::QueryTimeline tl;
    tl.qid = trial + 1;
    double t = static_cast<double>(rng.uniform(0.0f, 10.0f));
    auto step = [&rng, &t] {
      t += static_cast<double>(rng.uniform(0.0f, 0.01f)) + 1e-7;
      return t;
    };
    tl.t[static_cast<int>(obs::QueryPhase::arrival)] = t;
    tl.t[static_cast<int>(obs::QueryPhase::dispatch)] = step();
    obs::WorkerLane& w0 = tl.lane(0);
    w0.t[static_cast<int>(obs::WorkerMark::sent)] = step();
    w0.t[static_cast<int>(obs::WorkerMark::request_recv)] = step();
    w0.t[static_cast<int>(obs::WorkerMark::compute_begin)] = step();
    tl.t[static_cast<int>(obs::QueryPhase::broadcast_end)] = step();
    tl.t[static_cast<int>(obs::QueryPhase::local_compute_end)] = step();
    w0.t[static_cast<int>(obs::WorkerMark::compute_end)] = step();
    w0.t[static_cast<int>(obs::WorkerMark::reply_sent)] = step();
    w0.t[static_cast<int>(obs::WorkerMark::reply_recv)] = step();
    tl.t[static_cast<int>(obs::QueryPhase::gather_end)] = step();
    tl.t[static_cast<int>(obs::QueryPhase::complete)] = step();
    obs::AttributionSet set;
    const auto& a = set.add_query(tl);
    ASSERT_EQ(a.e2e_sum(), a.total_ns) << "trial " << trial;
    ASSERT_EQ(a.crit_sum(), a.total_ns) << "trial " << trial;
  }
}

TEST(Attribute, EightNodeQueryKeepsEveryStragglerSlackInLaneOrder) {
  // An 8-node team has 7 workers. Worker 3's reply released the gather at
  // 20 ms; the other six were read 1..6 ms earlier, out of lane order.
  obs::QueryTimeline tl;
  tl.qid = 11;
  tl.t[static_cast<int>(obs::QueryPhase::arrival)] = 0.000;
  tl.t[static_cast<int>(obs::QueryPhase::dispatch)] = 0.001;
  tl.t[static_cast<int>(obs::QueryPhase::broadcast_end)] = 0.002;
  tl.t[static_cast<int>(obs::QueryPhase::local_compute_end)] = 0.003;
  tl.t[static_cast<int>(obs::QueryPhase::gather_end)] = 0.020;
  tl.t[static_cast<int>(obs::QueryPhase::complete)] = 0.021;
  const double reply_ms[7] = {14, 19, 15, 20, 17, 16, 18};
  for (int w = 0; w < 7; ++w) {
    obs::WorkerLane& lane = tl.lane(w);
    lane.t[static_cast<int>(obs::WorkerMark::sent)] = 0.0015;
    lane.t[static_cast<int>(obs::WorkerMark::reply_recv)] = reply_ms[w] / 1e3;
  }
  obs::AttributionSet set;
  const auto& a = set.add_query(tl);
  EXPECT_EQ(a.critical_worker, 3);
  EXPECT_EQ(a.crit_sum(), a.total_ns);
  const auto slack = set.straggler_slack_ns(a);
  const std::vector<std::int64_t> want{6 * kMs, 1 * kMs, 5 * kMs,
                                       3 * kMs, 4 * kMs, 2 * kMs};
  EXPECT_EQ(std::vector<std::int64_t>(slack.begin(), slack.end()), want);

  // A second query's slacks follow in the shared arena without moving the
  // first query's.
  const auto& b = set.add_query(worked_example());
  ASSERT_EQ(set.straggler_slack_ns(b).size(), 1u);
  EXPECT_EQ(set.straggler_slack_ns(b)[0], 3 * kMs);
  const auto again = set.straggler_slack_ns(set[0]);
  EXPECT_EQ(std::vector<std::int64_t>(again.begin(), again.end()), want);
}

TEST(Attribute, EndToEndPartitionReadsZeroOnCriticalPathOnlyPhases) {
  obs::AttributionSet set;
  obs::QueryAttribution a = set.add_query(worked_example());
  for (int p = 0; p < obs::kNumAttrPhases; ++p) {
    const auto phase = static_cast<obs::AttrPhase>(p);
    if (phase <= obs::AttrPhase::argmin ||
        phase == obs::AttrPhase::unattributed) {
      continue;
    }
    EXPECT_EQ(a.e2e_ns[static_cast<std::size_t>(p)], 0)
        << obs::to_string(phase);
    EXPECT_THROW(a.e2e_ns.at(phase), Error) << obs::to_string(phase);
  }
  // The worked example's critical path does run through such phases.
  EXPECT_GT(ns(a, obs::AttrPhase::reply_transit), 0);
}

TEST(Attribute, RecordIsFixedSizeWithoutHeapStorage) {
  EXPECT_LE(sizeof(obs::QueryAttribution), 256u);
  EXPECT_TRUE(std::is_trivially_copyable_v<obs::QueryAttribution>);
}

TEST(TimelineRecorder, LanesAllocatedOnceAreIndexedByWorker) {
  auto& recorder = obs::TimelineRecorder::instance();
  const std::vector<std::vector<int>> orders{
      {0}, {2, 0, 1}, {5, 1, 6, 0, 3, 2, 4}};
  for (const auto& order : orders) {
    const auto workers = order.size();
    recorder.start(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      recorder.mark_worker(1, order[i], obs::WorkerMark::sent,
                           0.001 * static_cast<double>(i + 1));
    }
    recorder.stop();
    const auto timelines = recorder.take();
    ASSERT_EQ(timelines.size(), 1u);
    const obs::QueryTimeline& tl = timelines[0];
    ASSERT_EQ(tl.lanes.size(), workers);
    // One allocation at the team's size: a lane-by-lane growth would have
    // left capacity 4 for 3 workers and 8 for 7.
    EXPECT_EQ(tl.lanes.capacity(), workers);
    // A hand-built timeline whose lanes are added in the same order keeps
    // the same lane order and lookups.
    obs::QueryTimeline built;
    for (const int w : order) built.lane(w);
    ASSERT_EQ(built.lanes.size(), workers);
    for (std::size_t i = 0; i < workers; ++i) {
      const int w = order[i];
      EXPECT_EQ(tl.lanes[static_cast<std::size_t>(w)].worker, w);
      EXPECT_EQ(built.lanes[static_cast<std::size_t>(w)].worker, w);
      const obs::WorkerLane* lane = tl.find_lane(w);
      ASSERT_EQ(lane, &tl.lanes[static_cast<std::size_t>(w)]);
      EXPECT_EQ(lane->at(obs::WorkerMark::sent),
                0.001 * static_cast<double>(i + 1));
      EXPECT_EQ(built.find_lane(w), &built.lanes[static_cast<std::size_t>(w)]);
    }
    EXPECT_EQ(tl.find_lane(-1), nullptr);
    EXPECT_EQ(tl.find_lane(static_cast<int>(workers)), nullptr);
    EXPECT_EQ(built.find_lane(static_cast<int>(workers)), nullptr);
  }
}

TEST(TimelineRecorder, UnmarkedLanesStayUnsetAndForeignWorkersThrow) {
  auto& recorder = obs::TimelineRecorder::instance();
  recorder.start(3);
  recorder.mark_worker(1, 2, obs::WorkerMark::reply_recv, 0.004);
  EXPECT_THROW(recorder.mark_worker(1, 3, obs::WorkerMark::sent, 0.001),
               Error);
  EXPECT_THROW(recorder.mark_worker(1, -1, obs::WorkerMark::sent, 0.001),
               Error);
  recorder.stop();
  const auto timelines = recorder.take();
  ASSERT_EQ(timelines.size(), 1u);
  const obs::QueryTimeline& tl = timelines[0];
  ASSERT_EQ(tl.lanes.size(), 3u);
  for (int m = 0; m < obs::kNumWorkerMarks; ++m) {
    const auto mark = static_cast<obs::WorkerMark>(m);
    EXPECT_FALSE(tl.lanes[0].has(mark)) << obs::to_string(mark);
    EXPECT_FALSE(tl.lanes[1].has(mark)) << obs::to_string(mark);
    EXPECT_EQ(tl.lanes[2].has(mark), mark == obs::WorkerMark::reply_recv)
        << obs::to_string(mark);
  }
}

TEST(AttributionSet, SlackRangeOutsideTheArenaThrows) {
  obs::AttributionSet set;
  set.add_query(worked_example());
  const obs::QueryAttribution& a = set[0];
  ASSERT_EQ(set.straggler_slack_ns(a).size(), 1u);
  // The same record read against another set's (empty) arena, and a
  // hand-made record whose range runs one past this arena's end.
  EXPECT_THROW(obs::AttributionSet().straggler_slack_ns(a), Error);
  obs::QueryAttribution past = a;
  past.slack_count = 2;
  EXPECT_THROW(set.straggler_slack_ns(past), Error);
}

// ---- full drivers: exact reconciliation -------------------------------------

data::Dataset blob_test_set() {
  data::BlobsConfig cfg;
  cfg.num_samples = 200;
  cfg.num_classes = 4;
  cfg.dims = 8;
  cfg.seed = 21;
  return data::make_blobs(cfg);
}

nn::MlpConfig tiny_mlp() {
  nn::MlpConfig cfg;
  cfg.in_features = 8;
  cfg.num_classes = 4;
  cfg.depth = 2;
  cfg.hidden = 12;
  return cfg;
}

std::vector<std::unique_ptr<nn::MlpNet>> make_experts(int k) {
  std::vector<std::unique_ptr<nn::MlpNet>> experts;
  for (int i = 0; i < k; ++i) {
    Rng rng(100 + i);
    experts.push_back(std::make_unique<nn::MlpNet>(tiny_mlp(), rng));
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

load::LoadConfig small_load(double rate_qps) {
  load::LoadConfig load_cfg;
  load_cfg.arrival.kind = load::ArrivalKind::open_poisson;
  load_cfg.arrival.rate_qps = rate_qps;
  load_cfg.arrival.seed = determinism_seed();
  load_cfg.num_queries = 16;
  load_cfg.warmup_queries = 4;
  load_cfg.query_seed = determinism_seed();
  return load_cfg;
}

void expect_exact_reconciliation(const load::LoadResult& r) {
  ASSERT_EQ(r.attributions.size(), r.records.size());
  for (std::size_t q = 0; q < r.attributions.size(); ++q) {
    const auto& a = r.attributions[q];
    EXPECT_EQ(a.qid, static_cast<std::int64_t>(q) + 1);
    EXPECT_GT(a.total_ns, 0) << "qid " << a.qid;
    EXPECT_EQ(a.e2e_sum(), a.total_ns) << "qid " << a.qid;
    EXPECT_EQ(a.crit_sum(), a.total_ns) << "qid " << a.qid;
    EXPECT_EQ(a.degradation, r.records[q].degradation) << "qid " << a.qid;
  }
}

TEST(LoadDriver, TeamnetAttributionsReconcileBitExactly) {
  const auto experts = make_experts(3);
  const auto r = load::run_teamnet_load(expert_ptrs(experts), blob_test_set(),
                                        des_config(), small_load(500.0));
  expect_exact_reconciliation(r);
  const auto s = load::summarize_attributions(r.attributions, 4);
  EXPECT_EQ(s.queries, 12);
  EXPECT_EQ(s.reconciled, s.queries);
  EXPECT_EQ(s.max_residual_ns, 0);
}

TEST(LoadDriver, BreakdownJsonByteIdenticalAcrossRuns) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  std::string docs[2];
  for (std::string& doc : docs) {
    const auto r =
        load::run_teamnet_load(ptrs, test, des_config(), small_load(500.0));
    const auto s = load::summarize_attributions(r.attributions, 4);
    load::append_breakdown_json(doc, s, "  ");
  }
  EXPECT_EQ(docs[0], docs[1]);
  EXPECT_NE(docs[0].find("\"reconciled\""), std::string::npos);
}

TEST(Breakdown, JsonPercentilesAreExactNearestRank) {
  // 25 synthetic queries in shuffled order, latencies 1.000..1.888 ms in
  // 37 us steps: none sits on a round bucket edge, so any bucketed
  // estimate would miss the exact nearest-rank answer.
  obs::AttributionSet attrs;
  std::vector<double> latencies_ms;
  for (int q = 0; q < 25; ++q) {
    obs::QueryAttribution a;
    a.qid = q + 1;
    a.total_ns = 1'000'000 + 37'000 * ((q * 7) % 25);
    a.e2e_ns.at(obs::AttrPhase::gather_wait) = a.total_ns;
    a.crit_ns[static_cast<int>(obs::AttrPhase::request_transit)] = a.total_ns;
    attrs.add_query(a);
    latencies_ms.push_back(static_cast<double>(a.total_ns) / 1e6);
  }
  const auto s = load::summarize_attributions(attrs, 0);
  std::string doc;
  load::append_breakdown_json(doc, s, "");
  // 25 samples leave 12 beyond p50 but only 1 beyond p95 and p99, so
  // those two are unsupported and written as null.
  const std::string latency =
      "\"latency\": {\"count\": 25, \"mean_ms\": " +
      obs::json_double(obs::sample_mean(latencies_ms)) + ", \"p50_ms\": " +
      obs::json_double(obs::nearest_rank_percentile(latencies_ms, 50.0)) +
      ", \"p95_ms\": null, \"p99_ms\": null, \"max_ms\": " +
      obs::json_double(1.888) + "}";
  EXPECT_NE(doc.find(latency), std::string::npos) << doc;
  EXPECT_EQ(obs::nearest_rank_percentile(latencies_ms, 50.0), 1.444);
}

TEST(LoadDriver, OverloadPutsQueueingAheadOfCompute) {
  // An open-loop rate far past what the shared medium can carry. The
  // pipelined master dispatches every query on arrival, so queries no
  // longer wait for the master: they wait for the air. A medium wait owns
  // the critical path — the bench's headline claim, pinned here at test
  // scale on a link whose frames cost airtime.
  const auto experts = make_experts(3);
  auto config = des_config();
  config.link.per_message_overhead_s = 0.0002;
  auto load_cfg = small_load(50'000.0);
  load_cfg.num_queries = 24;
  load_cfg.warmup_queries = 4;
  const auto r = load::run_teamnet_load(expert_ptrs(experts), blob_test_set(),
                                        config, load_cfg);
  expect_exact_reconciliation(r);
  const auto s = load::summarize_attributions(r.attributions, 4);
  EXPECT_GT(s.kind_share(obs::CritKind::queueing),
            s.kind_share(obs::CritKind::compute));
  EXPECT_TRUE(s.dominant_phase == obs::AttrPhase::request_medium_wait ||
              s.dominant_phase == obs::AttrPhase::reply_medium_wait)
      << obs::to_string(s.dominant_phase);
}

// ---- fault injection: attribution under delays and partitions ---------------

struct FaultRun {
  obs::AttributionSet attributions;
  std::vector<int> degradation;  ///< per query, from the master's Result
};

/// Compact chaos-style harness: k nodes under DES, the master reaching the
/// LAST worker through a FaultyChannel (delay faults advance the master's
/// virtual clock through the DES leg it wraps, like the chaos scenario
/// driver).
FaultRun run_with_faulty_last_worker(const net::FaultProfile& profile,
                                     double worker_timeout_s, int quorum,
                                     int num_queries) {
  const int k = 3;
  const auto test = blob_test_set();
  const auto experts = make_experts(k);
  const sim::ScenarioConfig cfg = des_config();
  auto net = std::make_unique<sim::SimNet>(k, cfg.link);
  sim::SimNet* netp = net.get();

  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<net::CollaborativeWorker>> workers;
  for (int i = 1; i < k; ++i) {
    workers.push_back(std::make_unique<net::CollaborativeWorker>(
        *experts[static_cast<std::size_t>(i)], net->channel(i, 0)));
    workers.back()->set_compute_hook(
        sim::make_compute_hook(*net, i, cfg.device, nullptr));
    workers.back()->set_trace_node(i);
    threads.push_back(sim::spawn_sim_worker(
        *net, i, [w = workers.back().get()] { w->serve(); }));
  }

  auto faulty = std::make_unique<net::FaultyChannel>(
      net->take_channel(0, k - 1), profile);
  std::vector<net::Channel*> worker_channels;
  for (int i = 1; i < k - 1; ++i) worker_channels.push_back(&net->channel(0, i));
  worker_channels.push_back(faulty.get());

  net::CollaborativeMaster master(*experts[0], worker_channels);
  master.set_compute_hook(
      sim::make_compute_hook(*net, 0, cfg.device, nullptr));
  if (worker_timeout_s > 0.0) master.set_worker_timeout(worker_timeout_s);
  if (quorum > 0) master.set_gather_quorum(quorum);

  FaultRun out;
  auto& recorder = obs::TimelineRecorder::instance();
  recorder.start(k - 1);
  for (int q = 0; q < num_queries; ++q) {
    recorder.note_arrival(netp->node_time(0));
    const auto res =
        master.infer(sim::query_row_tensor(test, q % static_cast<int>(test.size())));
    out.degradation.push_back(static_cast<int>(res.degradation));
  }
  master.shutdown();
  faulty->close();
  net->close_all();
  net->retire(0);
  for (auto& t : threads) t.join();
  recorder.stop();
  for (const auto& tl : recorder.take()) {
    out.attributions.add_query(tl);
  }
  net->finish();
  return out;
}

TEST(FaultAttribution, DelayedLinkLandsOutsideCompute) {
  const int queries = 6;
  net::FaultProfile clean;
  clean.seed = determinism_seed();
  const FaultRun control = run_with_faulty_last_worker(clean, 0.0, 0, queries);

  net::FaultProfile delayed = clean;
  delayed.delay_prob = 1.0;  // every send to the last worker held 50 ms
  delayed.delay_min_s = 0.05;
  delayed.delay_max_s = 0.0500001;
  const FaultRun faulted =
      run_with_faulty_last_worker(delayed, 0.0, 0, queries);

  ASSERT_EQ(control.attributions.size(), static_cast<std::size_t>(queries));
  ASSERT_EQ(faulted.attributions.size(), static_cast<std::size_t>(queries));
  for (int q = 0; q < queries; ++q) {
    const auto& base = control.attributions[static_cast<std::size_t>(q)];
    const auto& a = faulted.attributions[static_cast<std::size_t>(q)];
    // Exactness survives the fault.
    EXPECT_EQ(a.e2e_sum(), a.total_ns) << "qid " << a.qid;
    EXPECT_EQ(a.crit_sum(), a.total_ns) << "qid " << a.qid;
    // The held-back request made the last worker (index k-2 = 1) the
    // gather's releaser, and the hold shows up as master serialization on
    // its chain — the delay happened between dispatch and that worker's
    // send completing.
    EXPECT_EQ(a.critical_worker, 1) << "qid " << a.qid;
    EXPECT_GE(ns(a, obs::AttrPhase::broadcast_serial), 50 * kMs)
        << "qid " << a.qid;
    EXPECT_NE(a.dominant_kind(), obs::CritKind::compute) << "qid " << a.qid;
    // The whole added latency lands outside compute: compute-kind
    // nanoseconds match the fault-free run (same experts, same device
    // model) up to clock-rounding, while the total grew by >= the hold.
    EXPECT_GE(a.total_ns, base.total_ns + 50 * kMs) << "qid " << a.qid;
    const std::int64_t compute_delta =
        crit_kind_ns(a, obs::CritKind::compute) -
        crit_kind_ns(base, obs::CritKind::compute);
    EXPECT_LE(std::abs(compute_delta), 1000) << "qid " << a.qid;
    // The undelayed worker is the one non-critical counted lane. Its
    // recorded slack stays small: reply_recv is the master's READ time,
    // and the master only polls after the delayed broadcast completes —
    // so the hold is charged to broadcast_serial above, not double-counted
    // as straggler slack.
    const auto slack = faulted.attributions.straggler_slack_ns(a);
    ASSERT_EQ(slack.size(), 1u) << "qid " << a.qid;
    EXPECT_GE(slack[0], 0) << "qid " << a.qid;
    EXPECT_LT(slack[0], 50 * kMs) << "qid " << a.qid;
  }
}

TEST(FaultAttribution, PartitionedWorkerDegradesGatherWithoutBreakingSums) {
  const int queries = 4;
  net::FaultProfile dead;
  dead.seed = determinism_seed();
  dead.partition_send = true;  // requests to the last worker blackholed
  // Quorum 2 of 3 experts (local always counted) with a 20 ms deadline:
  // the partitioned worker never answers, so every gather completes
  // degraded instead of waiting forever.
  const FaultRun r = run_with_faulty_last_worker(dead, 0.02, 2, queries);

  ASSERT_EQ(r.degradation.size(), static_cast<std::size_t>(queries));
  EXPECT_NE(r.degradation[0], 0) << "first gather must not report full";
  ASSERT_EQ(r.attributions.size(), static_cast<std::size_t>(queries));
  for (const auto& a : r.attributions) {
    EXPECT_EQ(a.e2e_sum(), a.total_ns) << "qid " << a.qid;
    EXPECT_EQ(a.crit_sum(), a.total_ns) << "qid " << a.qid;
    // The dead worker cannot be the releaser.
    EXPECT_NE(a.critical_worker, 1) << "qid " << a.qid;
  }

  // The per-level split sees the degraded queries.
  const auto s = load::summarize_attributions(r.attributions, 0);
  EXPECT_EQ(s.queries, queries);
  EXPECT_EQ(s.reconciled, s.queries);
  EXPECT_EQ(s.levels[0].queries + s.levels[1].queries + s.levels[2].queries,
            queries);
  EXPECT_GT(s.levels[1].queries + s.levels[2].queries, 0);
}

// ---- tracer: flow events ----------------------------------------------------

/// Restores a quiet tracer no matter how the test exits.
struct TracerReset {
  ~TracerReset() { obs::Tracer::instance().reset_for_testing(); }
};

TEST(Tracer, FlowEventsSerializeWithCatIdAndBindingPoint) {
  TracerReset guard;
  auto& tracer = obs::Tracer::instance();
  tracer.reset_for_testing();
  tracer.start();
  double now = 1.0;
  obs::TraceTrack track(0, [&now] { return now; }, "master");
  const std::int64_t id = obs::flow_id(1, 1, 0);
  obs::trace_flow_start("infer", id);
  now = 2.0;
  obs::trace_flow_finish("infer", id);
  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos) << json;
  // Both ends carry the same binding id under the flow category.
  const std::string binding =
      "\"cat\": \"flow\", \"id\": " + std::to_string(id);
  const std::size_t first = json.find(binding);
  ASSERT_NE(first, std::string::npos) << json;
  EXPECT_NE(json.find(binding, first + 1), std::string::npos) << json;
}

TEST(Tracer, FlowIdsFoldEpochSoSequentialRunsNeverCollide) {
  TracerReset guard;
  auto& tracer = obs::Tracer::instance();
  tracer.reset_for_testing();
  tracer.start();
  const std::int64_t before = obs::flow_id(7, 2, 1);
  tracer.begin_epoch("second-run");
  const std::int64_t after = obs::flow_id(7, 2, 1);
  EXPECT_NE(before, after);
  // Same (qid, node, dir) payload in the low bits; only the epoch moved.
  const std::int64_t low_mask = (std::int64_t{1} << 40) - 1;
  EXPECT_EQ(before & low_mask, after & low_mask);
  EXPECT_EQ(after >> 40, (before >> 40) + 1);
}

}  // namespace
}  // namespace teamnet
