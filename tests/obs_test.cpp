// Observability layer tests (DESIGN.md §10): metrics registry semantics,
// tracer span nesting/ordering in the serialized Chrome trace JSON, the
// fail-fast output-path validation, and — under the `determinism` ctest
// label carried by this binary — byte-identical traces from two same-seed
// discrete-event scenario runs.
//
// The registry tests deliberately avoid MetricsRegistry::reset_for_testing
// around scenario runs: the transport layer caches counter references for
// the process lifetime, so resetting after a scenario has run would dangle
// them. Unique metric names per test give the same isolation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "data/blobs.hpp"
#include "nn/mlp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"

namespace teamnet {
namespace {

// ---- metrics registry -------------------------------------------------------

TEST(Metrics, CounterAddAndIncrement) {
  obs::Counter counter;
  EXPECT_EQ(counter.total(), 0);
  counter.increment();
  counter.add(41);
  EXPECT_EQ(counter.total(), 42);
}

TEST(Metrics, ShardedCounterIsExactUnderConcurrentAdds) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.total(), kThreads * kAddsPerThread);
}

TEST(Metrics, GaugeIsLastWriteWins) {
  obs::Gauge gauge;
  EXPECT_EQ(gauge.get(), 0.0);
  gauge.set(3.5);
  gauge.set(-1.25);
  EXPECT_EQ(gauge.get(), -1.25);
}

TEST(Metrics, HistogramBucketsByUpperEdgeWithOverflow) {
  obs::Histogram hist({1.0, 2.0, 4.0});
  hist.observe(0.5);  // <= 1.0
  hist.observe(1.0);  // <= 1.0 (edges are inclusive upper bounds)
  hist.observe(3.0);  // <= 4.0
  hist.observe(9.0);  // overflow
  const auto counts = hist.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 edges + overflow
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 0);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(hist.count(), 4);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5 + 1.0 + 3.0 + 9.0);
}

TEST(Metrics, HistogramRejectsNonIncreasingEdges) {
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), Error);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), Error);
  EXPECT_THROW(obs::Histogram({}), Error);
}

TEST(Metrics, RegistryFindOrCreateReturnsStableInstances) {
  auto& registry = obs::MetricsRegistry::instance();
  obs::Counter& a = registry.counter("obs_test.stable");
  obs::Counter& b = registry.counter("obs_test.stable");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.total(), 7);
}

TEST(Metrics, RegistryRejectsHistogramEdgeMismatch) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.histogram("obs_test.hist_edges", {1.0, 2.0});
  EXPECT_NO_THROW(registry.histogram("obs_test.hist_edges", {1.0, 2.0}));
  EXPECT_THROW(registry.histogram("obs_test.hist_edges", {1.0, 3.0}), Error);
}

TEST(Metrics, SnapshotCarriesEveryKind) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("obs_test.snap_counter").add(3);
  registry.gauge("obs_test.snap_gauge").set(2.5);
  registry.histogram("obs_test.snap_hist", {10.0}).observe(4.0);
  registry.series("obs_test.snap_series").append(1.0);
  registry.series("obs_test.snap_series").append(2.0);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("obs_test.snap_counter"), 3);
  EXPECT_EQ(snap.gauges.at("obs_test.snap_gauge"), 2.5);
  const auto& hist = snap.histograms.at("obs_test.snap_hist");
  EXPECT_EQ(hist.count, 1);
  ASSERT_EQ(hist.bucket_counts.size(), 2u);
  EXPECT_EQ(hist.bucket_counts[0], 1);
  EXPECT_EQ(snap.series.at("obs_test.snap_series"),
            (std::vector<double>{1.0, 2.0}));
}

TEST(Metrics, WriteMetricsJsonProducesParseableDocument) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("obs_test.json_counter").add(11);
  const std::string path =
      (std::filesystem::temp_directory_path() / "obs_test_metrics.json")
          .string();
  obs::write_metrics_json(path);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string body((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(body.find("\"obs_test.json_counter\": 11"), std::string::npos);
  EXPECT_NE(body.find("\"counters\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Metrics, RequireWritableParentNamesFlagAndPath) {
  EXPECT_NO_THROW(obs::require_writable_parent(
      (std::filesystem::temp_directory_path() / "out.json").string(),
      "--json"));
  EXPECT_NO_THROW(obs::require_writable_parent("relative.json", "--json"));
  try {
    obs::require_writable_parent("/no/such/dir/out.json", "--trace");
    FAIL() << "expected Error for missing parent directory";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--trace"), std::string::npos) << what;
    EXPECT_NE(what.find("/no/such/dir/out.json"), std::string::npos) << what;
  }
}

// ---- tracer -----------------------------------------------------------------

/// Restores a quiet tracer no matter how the test exits.
struct TracerReset {
  ~TracerReset() { obs::Tracer::instance().reset_for_testing(); }
};

TEST(Tracer, InactiveTracerRecordsNothing) {
  TracerReset guard;
  obs::Tracer::instance().reset_for_testing();
  double now = 0.0;
  obs::TraceTrack track(3, [&now] { return now; }, "idle");
  {
    obs::TraceSpan span("ignored");
    obs::trace_instant("also_ignored");
  }
  const std::string json = obs::Tracer::instance().to_json();
  EXPECT_EQ(json.find("ignored"), std::string::npos);
}

TEST(Tracer, SpanNestingAndOrdering) {
  TracerReset guard;
  auto& tracer = obs::Tracer::instance();
  tracer.reset_for_testing();
  tracer.start();

  double now = 1.0;
  obs::TraceTrack track(5, [&now] { return now; }, "proto");
  {
    obs::TraceSpan outer("query");
    now = 2.0;
    {
      obs::TraceSpan inner("broadcast", [] {
        return obs::TraceArgs().arg("qid", 7).arg("bytes", std::size_t{128});
      });
      now = 3.0;
    }
    obs::trace_instant("fault", [] {
      return obs::TraceArgs().arg("what", std::string("drop"));
    });
    now = 4.0;
  }
  obs::trace_counter("tx_bytes", 128.0);

  const std::string json = tracer.to_json();
  // Balanced, properly nested B/E pairs in emission order: B(query),
  // B(broadcast), E, i(fault), E, C(tx_bytes).
  const std::size_t b_query = json.find("\"ts\": 1000000, \"name\": \"query\"");
  const std::size_t b_bcast =
      json.find("\"ts\": 2000000, \"name\": \"broadcast\"");
  const std::size_t e_first = json.find("\"ph\": \"E\"");
  const std::size_t i_fault = json.find("\"name\": \"fault\"");
  const std::size_t e_last = json.rfind("\"ph\": \"E\"");
  const std::size_t c_tx = json.find("\"name\": \"tx_bytes\"");
  ASSERT_NE(b_query, std::string::npos) << json;
  ASSERT_NE(b_bcast, std::string::npos) << json;
  ASSERT_NE(i_fault, std::string::npos) << json;
  ASSERT_NE(c_tx, std::string::npos) << json;
  EXPECT_LT(b_query, b_bcast);
  EXPECT_LT(b_bcast, e_first);
  EXPECT_LT(e_first, i_fault);
  EXPECT_LT(i_fault, e_last);
  EXPECT_LT(e_last, c_tx);
  // Instants are thread-scoped; args and metadata made it through.
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
  EXPECT_NE(json.find("\"qid\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"what\": \"drop\""), std::string::npos);
  EXPECT_NE(json.find("\"proto\""), std::string::npos);
  // Timestamps are µs on the bound clock.
  EXPECT_NE(json.find("\"ts\": 1000000"), std::string::npos);
}

TEST(Tracer, UnboundThreadEmitsNothing) {
  TracerReset guard;
  auto& tracer = obs::Tracer::instance();
  tracer.reset_for_testing();
  tracer.start();
  {
    obs::TraceSpan span("orphan");
    obs::trace_instant("orphan_instant");
  }
  const std::string json = tracer.to_json();
  EXPECT_EQ(json.find("orphan"), std::string::npos);
}

TEST(Tracer, TracksSerializeInIdOrder) {
  TracerReset guard;
  auto& tracer = obs::Tracer::instance();
  tracer.reset_for_testing();
  tracer.start();
  double now = 0.0;
  {
    obs::TraceTrack track(9, [&now] { return now; }, "high");
    obs::trace_instant("on_high");
  }
  {
    obs::TraceTrack track(2, [&now] { return now; }, "low");
    obs::trace_instant("on_low");
  }
  const std::string json = tracer.to_json();
  const std::size_t low = json.find("on_low");
  const std::size_t high = json.find("on_high");
  ASSERT_NE(low, std::string::npos);
  ASSERT_NE(high, std::string::npos);
  EXPECT_LT(low, high);  // track 2 before track 9 despite emission order
}

TEST(Tracer, WriteFailsFastNamingPath) {
  TracerReset guard;
  auto& tracer = obs::Tracer::instance();
  tracer.reset_for_testing();
  tracer.start();
  try {
    tracer.write("/no/such/dir/trace.json");
    FAIL() << "expected Error for unwritable path";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/no/such/dir/trace.json"),
              std::string::npos);
  }
}

// ---- trace determinism (ctest label: determinism) ---------------------------

std::uint64_t determinism_seed() {
  const char* env = std::getenv("TEAMNET_DETERMINISM_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 123u;
}

/// One full traced discrete-event TeamNet run; returns the serialized trace.
std::string traced_teamnet_json() {
  auto& tracer = obs::Tracer::instance();
  tracer.reset_for_testing();
  tracer.start();

  std::vector<std::unique_ptr<nn::MlpNet>> experts;
  std::vector<nn::Module*> ptrs;
  for (int i = 0; i < 3; ++i) {
    nn::MlpConfig cfg;
    cfg.in_features = 8;
    cfg.num_classes = 4;
    cfg.depth = 2;
    cfg.hidden = 12;
    Rng rng(100 + i);
    experts.push_back(std::make_unique<nn::MlpNet>(cfg, rng));
    ptrs.push_back(experts.back().get());
  }
  data::BlobsConfig bc;
  bc.num_samples = 60;
  bc.num_classes = 4;
  bc.dims = 8;
  bc.seed = 21;
  const data::Dataset test = data::make_blobs(bc);

  sim::ScenarioConfig cfg;
  cfg.num_queries = 8;
  cfg.link = net::LinkProfile{0.0005, 0.0, 0.0};
  cfg.seed = determinism_seed();
  sim::run_teamnet(ptrs, test, cfg);

  std::string json = tracer.to_json();
  tracer.reset_for_testing();
  return json;
}

TEST(ObsDeterminism, TraceBytesIdenticalAcrossSameSeedRuns) {
  const std::string a = traced_teamnet_json();
  const std::string b = traced_teamnet_json();
  // Byte-identical, not merely equivalent: DESIGN.md §10's determinism
  // contract is on the serialized file.
  ASSERT_EQ(a, b);
  // And non-trivial: the protocol spans and per-channel byte counters are
  // actually present.
  EXPECT_NE(a.find("\"query\""), std::string::npos);
  EXPECT_NE(a.find("\"broadcast\""), std::string::npos);
  EXPECT_NE(a.find("\"gather\""), std::string::npos);
  EXPECT_NE(a.find("\"argmin\""), std::string::npos);
  EXPECT_NE(a.find("expert_forward"), std::string::npos);
  EXPECT_NE(a.find("tx_bytes"), std::string::npos);
}

}  // namespace
}  // namespace teamnet
