// TSan-targeted stress tests: hammer the concurrent substrate — thread
// pool, in-proc channels, MPI-style collectives, the DES engine, telemetry —
// from many threads at once so `-DTEAMNET_SANITIZE=thread` has something to
// bite on. The assertions also hold under the plain build; the point of the
// test is the interleavings, not the arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/telemetry.hpp"
#include "mpi/communicator.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/des/des_channel.hpp"
#include "sim/des/engine.hpp"

namespace teamnet {
namespace {

TEST(ThreadPoolRace, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<int> visits(kN, 0);
  // Distinct per-index writes: any duplicated or skipped index is a real
  // bug, and overlapping block bounds would race on the same slot.
  pool.parallel_for(kN, [&](std::size_t i) { visits[i] += 1; });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0),
            static_cast<int>(kN));
  EXPECT_TRUE(std::all_of(visits.begin(), visits.end(),
                          [](int v) { return v == 1; }));
}

TEST(ThreadPoolRace, ParallelForSmallerThanPoolStillCoversAll) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.parallel_for(3, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i) + 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1 + 2 + 3);
}

TEST(ThreadPoolRace, ParallelForPropagatesFirstWorkerException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(1000, [&](std::size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 137) throw InvalidArgument("boom at 137");
    });
    FAIL() << "parallel_for should rethrow the worker exception";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "boom at 137");
  }
  // The pool must stay serviceable after a failed parallel_for.
  std::atomic<int> after{0};
  pool.parallel_for(100, [&](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 100);
}

TEST(ThreadPoolRace, ConcurrentSubmittersShareOnePool) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      std::vector<std::future<void>> futures;
      for (int i = 0; i < 200; ++i) {
        futures.push_back(pool.submit(
            [&] { total.fetch_add(1, std::memory_order_relaxed); }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), 4 * 200);
}

TEST(TelemetryRace, SimultaneousWritersAndReaders) {
  core::ConvergenceTelemetry tel;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 500;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&tel] {
      for (int i = 0; i < kPerWriter; ++i) {
        tel.record({0.5f, 0.5f}, 1.0f, 3);
      }
    });
  }
  // Readers poll live while writers append.
  threads.emplace_back([&tel] {
    for (int i = 0; i < 200; ++i) {
      const std::size_t n = tel.iterations();
      if (n > 0) {
        (void)tel.max_deviation(n - 1);
        (void)tel.smoothed_gamma(n - 1, std::min<std::size_t>(n, 8));
        (void)tel.iterations_to_converge(0.1f, 4);
      }
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(tel.iterations(), static_cast<std::size_t>(kWriters * kPerWriter));
  EXPECT_NEAR(tel.max_deviation(0), 0.0f, 1e-6f);

  // Snapshot semantics: copies taken under load must be self-consistent.
  core::ConvergenceTelemetry copy = tel;
  EXPECT_EQ(copy.iterations(), tel.iterations());
  EXPECT_EQ(copy.gamma_bar(0).size(), 2u);
}

/// Builds a fully connected in-proc mesh (no virtual clock) for `n` ranks.
std::vector<std::vector<net::ChannelPtr>> make_inproc_mesh(int n) {
  std::vector<std::vector<net::ChannelPtr>> mesh(static_cast<std::size_t>(n));
  for (auto& row : mesh) row.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      auto [a, b] = net::make_inproc_pair();
      mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          std::move(a);
      mesh[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] =
          std::move(b);
    }
  }
  return mesh;
}

TEST(CommunicatorRace, ConcurrentCollectivesAcrossRanks) {
  constexpr int kRanks = 4;
  constexpr int kRounds = 25;
  auto mesh = make_inproc_mesh(kRanks);

  auto rank_main = [&mesh](int rank) {
    std::vector<net::Channel*> peers(kRanks, nullptr);
    for (int r = 0; r < kRanks; ++r) {
      if (r != rank) {
        peers[static_cast<std::size_t>(r)] =
            mesh[static_cast<std::size_t>(rank)][static_cast<std::size_t>(r)]
                .get();
      }
    }
    mpi::Communicator comm(rank, peers);
    for (int round = 0; round < kRounds; ++round) {
      Tensor t = Tensor::ones({4});
      for (std::int64_t i = 0; i < 4; ++i) t[i] = static_cast<float>(rank);

      const Tensor b = comm.bcast(t, round % kRanks);
      EXPECT_FLOAT_EQ(b[0], static_cast<float>(round % kRanks));

      const auto gathered = comm.gather(t, 0);
      if (rank == 0) {
        ASSERT_EQ(gathered.size(), static_cast<std::size_t>(kRanks));
        for (int r = 0; r < kRanks; ++r) {
          EXPECT_FLOAT_EQ(gathered[static_cast<std::size_t>(r)][0],
                          static_cast<float>(r));
        }
      }

      const auto all = comm.allgather(t);
      ASSERT_EQ(all.size(), static_cast<std::size_t>(kRanks));

      const Tensor sum = comm.allreduce_sum(t);
      EXPECT_FLOAT_EQ(sum[0], 0.0f + 1.0f + 2.0f + 3.0f);

      comm.barrier(0);
    }
  };

  std::vector<std::thread> threads;
  for (int r = 1; r < kRanks; ++r) threads.emplace_back(rank_main, r);
  rank_main(0);
  for (auto& t : threads) t.join();
}

TEST(ChannelRace, CloseWakesBlockedReceiver) {
  auto [a, b] = net::make_inproc_pair();
  net::Channel* reader = b.get();
  std::atomic<bool> threw{false};
  std::thread blocked([reader, &threw] {
    try {
      (void)reader->recv();
    } catch (const NetworkError&) {
      threw.store(true);
    }
  });
  // Give the reader a moment to block, then close from another thread.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  b->close();
  blocked.join();
  EXPECT_TRUE(threw.load());
  EXPECT_THROW(a->send("late"), NetworkError);
}

/// One full ring run over a DES mesh: every node advances, sends to its
/// successor, and receives from its predecessor, `rounds` times. Returns
/// the final per-node virtual clocks so callers can compare runs bit-wise.
std::vector<double> run_des_ring(int k, int rounds) {
  sim::des::Engine engine(k);
  auto mesh = sim::des::make_des_mesh(engine, k, net::wifi_link());
  std::vector<std::thread> threads;
  for (int node = 0; node < k; ++node) {
    threads.emplace_back([&engine, &mesh, node, k, rounds] {
      const int next = (node + 1) % k;
      const int prev = (node + k - 1) % k;
      net::Channel& to_next =
          *mesh[static_cast<std::size_t>(node)][static_cast<std::size_t>(next)];
      net::Channel& from_prev =
          *mesh[static_cast<std::size_t>(node)][static_cast<std::size_t>(prev)];
      for (int round = 0; round < rounds; ++round) {
        engine.advance(node, 1e-4 * (node + 1));
        to_next.send(std::string(64, static_cast<char>('a' + node)));
        const std::string got = from_prev.recv();
        EXPECT_EQ(got, std::string(64, static_cast<char>('a' + prev)));
      }
      // A node that leaves the simulation must retire, or the grant floor
      // would wait on its frozen clock forever.
      engine.retire(node);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(engine.messages_delivered(),
            static_cast<std::int64_t>(k) * rounds);
  std::vector<double> times;
  for (int node = 0; node < k; ++node) times.push_back(engine.node_time(node));
  return times;
}

TEST(DesEngineRace, RingStressIsBitStableAcrossRuns) {
  constexpr int kNodes = 4;
  constexpr int kRounds = 50;
  const std::vector<double> first = run_des_ring(kNodes, kRounds);
  const std::vector<double> second = run_des_ring(kNodes, kRounds);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    // Bit-exact, not approximately equal: the engine's whole contract is
    // that thread scheduling cannot leak into virtual time.
    EXPECT_EQ(first[i], second[i]) << "node " << i;
  }
}

TEST(ChannelRace, CloseDrainsQueuedMessagesFirst) {
  auto [a, b] = net::make_inproc_pair();
  a->send("one");
  a->send("two");
  a->close();
  EXPECT_EQ(b->recv(), "one");
  EXPECT_EQ(b->recv(), "two");
  EXPECT_THROW((void)b->recv(), NetworkError);
}

TEST(MetricsRace, ConcurrentUpdatesAndSnapshotsStayCoherent) {
  // Hammer one counter/gauge/histogram/series from writer threads while a
  // reader thread snapshots the whole registry: TSan sees the sharded
  // counter cells, the histogram's atomics, and the registry map all at
  // once. Metric names are unique to this test so the exact totals are
  // checkable at the end.
  auto& registry = obs::MetricsRegistry::instance();
  obs::Counter& counter = registry.counter("race_test.counter");
  obs::Gauge& gauge = registry.gauge("race_test.gauge");
  obs::Histogram& hist =
      registry.histogram("race_test.hist", {1.0, 10.0, 100.0});
  obs::Series& series = registry.series("race_test.series");

  constexpr int kWriters = 6;
  constexpr int kOpsPerWriter = 5'000;
  std::atomic<bool> stop{false};
  std::thread reader([&registry, &stop] {
    std::int64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot snap = registry.snapshot();
      const std::int64_t seen = snap.counters.at("race_test.counter");
      // Monotone counter: snapshots may lag but can never go backwards.
      EXPECT_GE(seen, last);
      last = seen;
      const auto& h = snap.histograms.at("race_test.hist");
      std::int64_t bucket_total = 0;
      for (std::int64_t b : h.bucket_counts) bucket_total += b;
      // Bucket increments and the count increment are separate relaxed
      // atomics, so they may be observed slightly out of step — but both
      // are bounded by the true number of observe() calls.
      EXPECT_LE(bucket_total, kWriters * kOpsPerWriter);
      EXPECT_LE(h.count, kWriters * kOpsPerWriter);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        counter.increment();
        gauge.set(static_cast<double>(i));
        hist.observe(static_cast<double>((w * kOpsPerWriter + i) % 200));
        if (i % 100 == 0) series.append(static_cast<double>(i));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(counter.total(), kWriters * kOpsPerWriter);
  EXPECT_EQ(hist.count(), kWriters * kOpsPerWriter);
  EXPECT_EQ(series.size(),
            static_cast<std::size_t>(kWriters * (kOpsPerWriter / 100)));
}

TEST(TracerRace, ConcurrentSpansOnDistinctTracksAllRecorded) {
  // Each thread binds its own track and emits spans while another thread
  // serializes mid-flight: exercises the registry mutex + leaf track
  // mutexes under contention.
  auto& tracer = obs::Tracer::instance();
  tracer.reset_for_testing();
  tracer.start();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  std::atomic<bool> stop{false};
  std::thread serializer([&tracer, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)tracer.to_json();
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      double now = 0.0;
      obs::TraceTrack track(t, [&now] { return now; },
                            "race" + std::to_string(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        now = static_cast<double>(i);
        obs::TraceSpan span("work");
        obs::trace_instant("tick");
      }
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  serializer.join();

  const std::string json = tracer.to_json();
  std::size_t begins = 0;
  for (std::size_t pos = json.find("\"ph\": \"B\""); pos != std::string::npos;
       pos = json.find("\"ph\": \"B\"", pos + 1)) {
    ++begins;
  }
  EXPECT_EQ(begins, static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(tracer.dropped_events(), 0);
  tracer.reset_for_testing();
}

}  // namespace
}  // namespace teamnet
