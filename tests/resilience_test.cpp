// Degradation-plane suite (ctest label: chaos): deadline propagation with
// expired-request drops, quorum gather, hedged dispatch and its
// reply-latency EWMA, from protocol units over in-proc channels up to full
// run_teamnet_resilience scenarios under the discrete-event scheduler.
//
// CI runs this binary under ASan+UBSan and TSan across several values of
// TEAMNET_CHAOS_SEED.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "data/blobs.hpp"
#include "net/collab.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "nn/mlp.hpp"
#include "sim/des/runtime.hpp"
#include "sim/scenario.hpp"

namespace teamnet {
namespace {

std::uint64_t chaos_seed() {
  const char* env = std::getenv("TEAMNET_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42ULL;
}

nn::MlpConfig tiny_mlp() {
  nn::MlpConfig cfg;
  cfg.in_features = 6;
  cfg.num_classes = 3;
  cfg.depth = 2;
  cfg.hidden = 8;
  return cfg;
}

/// An in-process endpoint whose clock is frozen at 100 s.
class FrozenClockChannel final : public net::Channel {
 public:
  explicit FrozenClockChannel(net::ChannelPtr inner)
      : inner_(std::move(inner)) {}
  void send(std::string bytes) override { inner_->send(std::move(bytes)); }
  std::string recv() override { return inner_->recv(); }
  std::optional<std::string> recv_timeout(double seconds) override {
    return inner_->recv_timeout(seconds);
  }
  void close() override { inner_->close(); }
  double now() const override { return 100.0; }

 private:
  net::ChannelPtr inner_;
};

// ---- deadline-budget propagation -------------------------------------------

/// A worker with drop-expired enabled must silently skip an Infer whose
/// propagated deadline already passed on its own clock, and serve one whose
/// deadline is still live — the load-shedding half of the budget plane.
TEST(DeadlinePropagation, WorkerDropsExpiredRequests) {
  Rng rng(17);
  nn::MlpNet expert(tiny_mlp(), rng);
  auto [master_ch, worker_ch] = net::make_inproc_pair();
  FrozenClockChannel worker_end(std::move(worker_ch));

  net::CollaborativeWorker worker(expert, worker_end);
  worker.set_drop_expired(true);
  std::thread t([&worker] {
    try {
      worker.serve();
    } catch (const Error&) {
    }
  });

  Tensor x = Tensor::randn({1, 6}, rng);
  auto send_infer = [&](std::int64_t qid, std::int64_t deadline_us) {
    net::Message msg;
    msg.type = net::MsgType::Infer;
    net::InferInfo info;
    info.qid = qid;
    info.deadline_us = deadline_us;
    net::set_infer_info(msg, info);
    msg.tensors = {x};
    master_ch->send(msg.encode());
  };

  send_infer(1, 50'000'000);   // deadline 50s < worker clock 100s: expired
  send_infer(2, 200'000'000);  // deadline 200s: live
  // An unbounded request (legacy frames decode to kNoDeadlineUs) must never
  // be dropped, frozen clock or not.
  send_infer(3, net::kNoDeadlineUs);

  // Only the live requests get replies, in order.
  net::Message first = net::Message::decode(master_ch->recv());
  ASSERT_EQ(first.type, net::MsgType::Result);
  EXPECT_EQ(first.ints[0], 2);
  net::Message second = net::Message::decode(master_ch->recv());
  ASSERT_EQ(second.type, net::MsgType::Result);
  EXPECT_EQ(second.ints[0], 3);

  net::Message shutdown;
  shutdown.type = net::MsgType::Shutdown;
  master_ch->send(shutdown.encode());
  t.join();
  EXPECT_EQ(worker.expired_dropped(), 1);
  EXPECT_EQ(worker.requests_served(), 2);
  EXPECT_EQ(master_ch->recv_timeout(0.0), std::nullopt);  // no reply leaked
}

/// Drop-expired is opt-in: the default worker serves even a stale-stamped
/// frame (its real clock is a different time base than the stamp's).
TEST(DeadlinePropagation, DropExpiredIsOptIn) {
  Rng rng(18);
  nn::MlpNet expert(tiny_mlp(), rng);
  auto [master_ch, worker_ch] = net::make_inproc_pair();
  FrozenClockChannel worker_end(std::move(worker_ch));
  net::CollaborativeWorker worker(expert, worker_end);
  std::thread t([&worker] {
    try {
      worker.serve();
    } catch (const Error&) {
    }
  });

  net::Message msg;
  msg.type = net::MsgType::Infer;
  net::InferInfo info;
  info.qid = 7;
  info.deadline_us = 1;  // long past on the worker's clock
  net::set_infer_info(msg, info);
  msg.tensors = {Tensor::randn({1, 6}, rng)};
  master_ch->send(msg.encode());
  net::Message reply = net::Message::decode(master_ch->recv());
  EXPECT_EQ(reply.type, net::MsgType::Result);
  EXPECT_EQ(reply.ints[0], 7);

  net::Message shutdown;
  shutdown.type = net::MsgType::Shutdown;
  master_ch->send(shutdown.encode());
  t.join();
  EXPECT_EQ(worker.expired_dropped(), 0);
}

// ---- duplicate reconciliation ----------------------------------------------

/// Regression: when BOTH replicas of a hedged worker answer the same query
/// while the gather is still pending on another worker, exactly one reply
/// is consumed and the other is reconciled as a duplicate — not accepted a
/// second time, not counted stale. Fleet: B answers fast, C answers only
/// after its backup C' (forced by the hedge firing first), D stays silent
/// to keep the gather pending past both replies.
TEST(DuplicateReconciliation, BothReplicasAnsweringIsReconciledOnce) {
  Rng rng(19);
  nn::MlpNet master_expert(tiny_mlp(), rng);
  auto [b_master, b_worker] = net::make_inproc_pair();
  auto [c_master, c_worker] = net::make_inproc_pair();
  auto [d_master, d_worker] = net::make_inproc_pair();
  auto [cb_master, cb_worker] = net::make_inproc_pair();  // C's backup C'

  auto make_reply = [](const net::Message& request) {
    net::Message reply;
    reply.type = net::MsgType::Result;
    reply.ints = request.ints;  // echo qid/deadline/flags
    Tensor probs({1, 3});
    probs.fill(1.0f / 3.0f);
    Tensor entropy({1});
    entropy.fill(2.0f);
    reply.tensors = {probs, entropy};
    return reply;
  };

  std::atomic<bool> backup_replied{false};
  std::thread b_thread([&] {
    try {
      net::Message request = net::Message::decode(b_worker->recv());
      b_worker->send(make_reply(request).encode());
      (void)b_worker->recv();  // Shutdown
    } catch (const Error&) {
    }
  });
  // C' replies to the hedged dispatch first...
  std::thread cb_thread([&] {
    try {
      net::Message request = net::Message::decode(cb_worker->recv());
      cb_worker->send(make_reply(request).encode());
      backup_replied.store(true);
      (void)cb_worker->recv();  // Shutdown
    } catch (const Error&) {
    }
  });
  // ...and only then does the slow primary C send its own answer, so both
  // replicas' Results for the same query are in flight while D blocks the
  // gather.
  std::thread c_thread([&] {
    try {
      net::Message request = net::Message::decode(c_worker->recv());
      while (!backup_replied.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      c_worker->send(make_reply(request).encode());
      (void)c_worker->recv();  // Shutdown
    } catch (const Error&) {
    }
  });
  std::thread d_thread([&] {
    try {
      (void)d_worker->recv();  // Infer — never answered
      (void)d_worker->recv();  // unreached: D is failed, so close wakes us
    } catch (const Error&) {
    }
  });

  net::CollaborativeMaster master(
      master_expert, {b_master.get(), c_master.get(), d_master.get()});
  master.set_worker_timeout(0.5);
  // Only C has a backup, so the hedge (after ~15ms of C pending) must pick
  // C — D pending without a backup never hedges.
  master.set_hedging({nullptr, cb_master.get(), nullptr});

  auto result = master.infer(Tensor::randn({1, 6}, rng));
  EXPECT_EQ(result.answered, 3);  // local + B + one C replica, never 4
  EXPECT_EQ(master.hedges_sent(), 1);
  EXPECT_EQ(master.hedge_duplicates(), 1);
  EXPECT_EQ(master.stale_replies_discarded(), 0);
  EXPECT_EQ(result.degradation, net::DegradationLevel::quorum);
  EXPECT_EQ(master.failed_workers(), 1);  // D missed the deadline

  master.shutdown();
  b_thread.join();
  c_thread.join();
  d_thread.join();
  cb_thread.join();
}

// ---- hedged dispatch --------------------------------------------------------

/// Partition-then-heal: with the primary partitioned, the hedge to the
/// static backup replica must still complete the query at full strength;
/// after the heal the primary serves again. The backup shares the primary's
/// expert module, so answers are identical either way.
TEST(HedgedDispatch, HedgeWinsUnderPartitionThenHeal) {
  Rng rng(20);
  nn::MlpNet master_expert(tiny_mlp(), rng);
  nn::MlpNet worker_expert(tiny_mlp(), rng);

  auto [primary_raw, primary_worker_ch] = net::make_inproc_pair();
  auto faulty = std::make_unique<net::FaultyChannel>(std::move(primary_raw),
                                                     net::FaultProfile{});
  net::FaultyChannel& link = *faulty;
  auto [backup_master_ch, backup_worker_ch] = net::make_inproc_pair();

  net::CollaborativeWorker primary(worker_expert, *primary_worker_ch);
  net::CollaborativeWorker backup(worker_expert, *backup_worker_ch);
  std::thread primary_thread([&primary] {
    try {
      primary.serve();
    } catch (const Error&) {
    }
  });
  std::thread backup_thread([&backup] {
    try {
      backup.serve();
    } catch (const Error&) {
    }
  });

  net::CollaborativeMaster master(master_expert, {faulty.get()});
  master.set_worker_timeout(2.0);
  master.set_hedging({backup_master_ch.get()});

  Tensor x = Tensor::randn({1, 6}, rng);

  link.set_partition(true, true);  // primary dark: only the hedge can answer
  auto hedged = master.infer(x);
  EXPECT_EQ(master.hedges_sent(), 1);
  EXPECT_EQ(master.hedge_wins(), 1);
  EXPECT_EQ(hedged.answered, 2);
  EXPECT_EQ(hedged.degradation, net::DegradationLevel::full)
      << "the backup kept the fleet at full strength";

  link.set_partition(false, false);
  auto healed = master.infer(x);
  EXPECT_EQ(healed.predictions, hedged.predictions)
      << "primary and backup serve the same expert";

  master.shutdown();
  primary_thread.join();
  backup_thread.join();
}

/// One scripted query for hedge_offsets: how long the primary computes
/// before it answers (< 0 = never) and whether the backup answers a hedge.
struct HedgeStep {
  double primary_delay_s = -1.0;
  bool backup_answers = true;
};

/// Runs `steps` as consecutive queries of a master with one worker and its
/// backup replica over DES channels with 0.5 ms links, and returns for
/// each query when its first hedge left the master, in virtual seconds
/// after its dispatch ended — NaN when no hedge went out. A primary reply
/// after `primary_delay_s` of compute lands primary_delay_s + 1 ms after
/// dispatch: that is the latency the master times.
std::vector<double> hedge_offsets(const std::vector<HedgeStep>& steps) {
  constexpr double kLinkS = 0.0005;
  sim::SimNet net(3, net::LinkProfile{kLinkS, 0.0, 0.0});
  auto reply_to = [](const net::Message& request) {
    net::Message reply;
    reply.type = net::MsgType::Result;
    reply.ints = request.ints;  // echo qid/deadline/flags
    Tensor probs({1, 3});
    probs.fill(1.0f / 3.0f);
    Tensor entropy({1});
    entropy.fill(1.0f);
    reply.tensors = {probs, entropy};
    return reply.encode();
  };
  // Serves node `node`'s Infer frames until Shutdown; `act` sees each
  // frame with its query index (qid - 1).
  auto serve = [&](int node, auto act) {
    net::Channel& channel = net.channel(node, 0);
    try {
      for (;;) {
        const net::Message msg = net::Message::decode(channel.recv());
        if (msg.type == net::MsgType::Shutdown) break;
        if (msg.type != net::MsgType::Infer) continue;
        const auto i = static_cast<std::size_t>(net::infer_info(msg).qid - 1);
        act(channel, msg, i);
      }
    } catch (const Error&) {
    }
    net.retire(node);
  };
  std::thread primary([&] {
    serve(1, [&](net::Channel& channel, const net::Message& msg,
                 std::size_t i) {
      if (steps[i].primary_delay_s < 0.0) return;
      net.advance(1, steps[i].primary_delay_s);
      channel.send(reply_to(msg));
    });
  });
  std::vector<double> hedge_landed(steps.size(), std::nan(""));
  std::thread backup([&] {
    serve(2, [&](net::Channel& channel, const net::Message& msg,
                 std::size_t i) {
      if (std::isnan(hedge_landed[i])) hedge_landed[i] = channel.now();
      if (steps[i].backup_answers) channel.send(reply_to(msg));
    });
  });

  Rng rng(23);
  nn::MlpNet expert(tiny_mlp(), rng);
  net::CollaborativeMaster master(expert, {&net.channel(0, 1)});
  master.set_worker_timeout(0.2);
  master.set_hedging({&net.channel(0, 2)});
  const Tensor x = Tensor::randn({1, 6}, rng);
  std::vector<double> dispatched;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    dispatched.push_back(net.node_time(0));  // dispatch takes no time here
    master.infer(x);
  }
  master.shutdown();
  net.retire(0);
  primary.join();
  backup.join();
  std::vector<double> offsets;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    offsets.push_back(hedge_landed[i] - kLinkS - dispatched[i]);
  }
  return offsets;
}

/// The hedge delay is max(2 ms, 1.5 x the worker's reply-latency EWMA),
/// seeded at 10 ms before the first primary reply, with alpha = 0.3; a
/// reply won by the backup does not feed it. A hedge is timed only on
/// queries whose primary stays silent, so no primary reply is in flight
/// when it is due. The expected offsets are literals on purpose: a changed
/// alpha or seed must fail here.
TEST(HedgedDispatch, HedgeDelayFollowsPrimaryReplyLatencyEwma) {
  constexpr double kTol = 1e-5;  // the gather's 1 us minimum wait, with room
  const auto seeded = hedge_offsets({
      {-1.0, true},    // no reply timed yet: 1.5 x 10 ms, backup wins
      {-1.0, true},    // the backup's win was not timed: 15 ms again
      {0.003, true},   // primary answers in 4 ms: EWMA = 4 ms
      {-1.0, true},    // 1.5 x 4 = 6 ms
      {0.007, false},  // primary answers in 8 ms: EWMA = 4 + 0.3 x 4
      {-1.0, true},    // 1.5 x 5.2 = 7.8 ms
  });
  ASSERT_EQ(seeded.size(), 6u);
  EXPECT_NEAR(seeded[0], 0.015, kTol);
  EXPECT_NEAR(seeded[1], 0.015, kTol);
  EXPECT_TRUE(std::isnan(seeded[2])) << seeded[2];
  EXPECT_NEAR(seeded[3], 0.006, kTol);
  EXPECT_NEAR(seeded[5], 0.0078, kTol);

  // A 1 ms worker would hedge at 1.5 ms; the floor holds it at 2 ms.
  const auto floored = hedge_offsets({{0.0, true}, {-1.0, true}});
  EXPECT_TRUE(std::isnan(floored[0])) << floored[0];
  EXPECT_NEAR(floored[1], 0.002, kTol);
}

// ---- per-worker health record ----------------------------------------------

/// Runs one query per entry of `primary_delays_s` on a master with one
/// worker over DES channels with 0.5 ms links, the worker computing that
/// long before it answers, and returns the master's expected latency for
/// the worker after each query. A reply after `d` of compute is timed at
/// d + 1 ms.
std::vector<double> latency_estimates(
    const std::vector<double>& primary_delays_s) {
  sim::SimNet net(2, net::LinkProfile{0.0005, 0.0, 0.0});
  std::thread worker([&] {
    net::Channel& channel = net.channel(1, 0);
    std::size_t i = 0;
    try {
      for (;;) {
        const net::Message msg = net::Message::decode(channel.recv());
        if (msg.type == net::MsgType::Shutdown) break;
        if (msg.type != net::MsgType::Infer) continue;
        net.advance(1, primary_delays_s.at(i++));
        net::Message reply;
        reply.type = net::MsgType::Result;
        reply.ints = msg.ints;  // echo qid/deadline/flags
        Tensor probs({1, 3});
        probs.fill(1.0f / 3.0f);
        Tensor entropy({1});
        entropy.fill(1.0f);
        reply.tensors = {probs, entropy};
        channel.send(reply.encode());
      }
    } catch (const Error&) {
    }
    net.retire(1);
  });

  Rng rng(29);
  nn::MlpNet expert(tiny_mlp(), rng);
  net::CollaborativeMaster master(expert, {&net.channel(0, 1)});
  master.set_worker_timeout(1.0);
  const Tensor x = Tensor::randn({1, 6}, rng);
  std::vector<double> estimates;
  for (std::size_t i = 0; i < primary_delays_s.size(); ++i) {
    master.infer(x);
    estimates.push_back(master.expected_latency_s(0));
  }
  master.shutdown();
  net.retire(0);
  worker.join();
  return estimates;
}

/// Before any reply every worker is live and expected at the 10 ms seed.
TEST(HealthTracker, StartsClosedWithSeedLatency) {
  auto a = net::make_inproc_pair();
  auto b = net::make_inproc_pair();
  auto c = net::make_inproc_pair();
  Rng rng(31);
  nn::MlpNet expert(tiny_mlp(), rng);
  net::CollaborativeMaster master(
      expert, {a.first.get(), b.first.get(), c.first.get()});
  EXPECT_EQ(master.failed_workers(), 0);
  for (int w = 0; w < 3; ++w) {
    EXPECT_TRUE(master.worker_alive(w));
    EXPECT_DOUBLE_EQ(master.expected_latency_s(w),
                     net::MasterCore::kInitialLatencyS);
  }
  EXPECT_THROW(master.expected_latency_s(-1), InvariantError);
  EXPECT_THROW(master.expected_latency_s(3), InvariantError);
}

/// The first timed reply seeds the EWMA outright (no pull toward the
/// prior); later ones move it by alpha = 0.3 toward the new sample.
TEST(HealthTracker, LatencyEwmaSeedsThenSmooths) {
  const auto est = latency_estimates({0.099, 0.199});
  ASSERT_EQ(est.size(), 2u);
  EXPECT_DOUBLE_EQ(est[0], 0.100);
  EXPECT_DOUBLE_EQ(est[1], 0.100 + 0.3 * (0.200 - 0.100));
}

// ---- whole-scenario ---------------------------------------------------------

std::vector<std::unique_ptr<nn::MlpNet>> make_experts(int k) {
  std::vector<std::unique_ptr<nn::MlpNet>> experts;
  for (int i = 0; i < k; ++i) {
    nn::MlpConfig cfg;
    cfg.in_features = 8;
    cfg.num_classes = 4;
    cfg.depth = 2;
    cfg.hidden = 12;
    Rng rng(100 + static_cast<std::uint64_t>(i));
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

data::Dataset blobs() {
  data::BlobsConfig cfg;
  cfg.num_samples = 200;
  cfg.num_classes = 4;
  cfg.dims = 8;
  cfg.seed = 21;
  return data::make_blobs(cfg);
}

sim::ScenarioConfig des_config(int num_queries) {
  sim::ScenarioConfig cfg;
  cfg.num_queries = num_queries;
  cfg.link = net::LinkProfile{0.0005, 0.0, 0.0};
  cfg.seed = chaos_seed();
  return cfg;
}

/// Every query must land in exactly one degradation bucket, every per-query
/// vector must be complete, and the hedge counters must stay consistent —
/// under drops, duplicates, quorum and hedging all at once.
TEST(ResilienceScenario, DegradationAccountingIsExhaustive) {
  auto experts = make_experts(3);
  auto test = blobs();
  auto cfg = des_config(20);

  sim::ResilienceConfig res;
  res.faults.seed = chaos_seed();
  res.faults.drop_prob = 0.25;
  res.faults.duplicate_prob = 0.15;
  res.worker_timeout_s = 0.05;
  res.quorum = 2;
  res.hedging = true;

  const auto r = sim::run_teamnet_resilience(expert_ptrs(experts), test, cfg,
                                             res);
  const auto n = static_cast<std::int64_t>(cfg.num_queries);
  EXPECT_EQ(r.full_gathers + r.quorum_gathers + r.local_only_gathers, n);
  ASSERT_EQ(r.latency_ms.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(r.degradation.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(r.correct.size(), static_cast<std::size_t>(n));
  // The per-query vector and the counters must tell the same story.
  std::int64_t full = 0, quorum = 0, local = 0;
  for (int level : r.degradation) {
    if (level == 0) ++full;
    if (level == 1) ++quorum;
    if (level == 2) ++local;
  }
  EXPECT_EQ(full, r.full_gathers);
  EXPECT_EQ(quorum, r.quorum_gathers);
  EXPECT_EQ(local, r.local_only_gathers);
  EXPECT_LE(r.hedge_wins, r.hedges_sent);
  EXPECT_LE(r.hedge_duplicates, r.hedges_sent);
  EXPECT_LE(r.p50_ms, r.p99_ms);
  for (double ms : r.latency_ms) EXPECT_GE(ms, 0.0);
  EXPECT_GT(r.faults_injected, 0);
  EXPECT_EQ(r.scenario.num_nodes, 5);  // master + 2 workers + 2 backups
}

/// With no faults and the quorum set to the full fleet, the polling gather
/// must agree with the legacy sequential gather query for query — same
/// answers, everything at full strength. This pins the refactor: the new
/// code path changes HOW replies are collected, never WHAT is computed.
TEST(ResilienceScenario, FullQuorumMatchesLegacyGatherWithoutFaults) {
  auto experts = make_experts(3);
  auto test = blobs();

  sim::ResilienceConfig quorum_cfg;
  quorum_cfg.worker_timeout_s = 5.0;  // never spent: no faults
  quorum_cfg.quorum = 3;              // == master + both workers
  quorum_cfg.hedging = false;

  sim::ResilienceConfig legacy_cfg = quorum_cfg;
  legacy_cfg.quorum = 0;  // legacy sequential gather

  const auto a = sim::run_teamnet_resilience(expert_ptrs(experts), test,
                                             des_config(12), quorum_cfg);
  const auto b = sim::run_teamnet_resilience(expert_ptrs(experts), test,
                                             des_config(12), legacy_cfg);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_DOUBLE_EQ(a.scenario.accuracy_pct, b.scenario.accuracy_pct);
  EXPECT_EQ(a.full_gathers, 12);
  EXPECT_EQ(b.full_gathers, 12);
  EXPECT_EQ(a.local_only_gathers + a.quorum_gathers, 0);
  EXPECT_EQ(a.expired_drops, 0);
}

/// The acceptance property: under heavy drop rates the degradation plane
/// (quorum + hedging) must bound the latency distribution below
/// the full-gather configuration, which burns its whole deadline whenever
/// any reply goes missing.
TEST(ResilienceScenario, QuorumAndHedgingBoundLatencyUnderDrops) {
  auto experts = make_experts(3);
  auto test = blobs();

  sim::ResilienceConfig full;
  full.faults.seed = chaos_seed();
  full.faults.drop_prob = 0.25;
  full.worker_timeout_s = 0.05;
  full.quorum = 0;  // full gather: any missing reply costs the deadline
  full.hedging = false;

  sim::ResilienceConfig degraded = full;
  degraded.quorum = 2;
  degraded.hedging = true;

  const auto slow = sim::run_teamnet_resilience(expert_ptrs(experts), test,
                                                des_config(24), full);
  const auto fast = sim::run_teamnet_resilience(expert_ptrs(experts), test,
                                                des_config(24), degraded);
  ASSERT_GT(slow.faults_injected, 0);
  EXPECT_LT(fast.scenario.latency_ms, slow.scenario.latency_ms);
  // At 25% drops the full gather is all but certain to burn at least one
  // whole deadline (p99 = the SLO), while the escalating hedge rounds
  // retry lost requests well inside it — the acceptance criterion.
  EXPECT_LT(fast.p99_ms, slow.p99_ms);
  EXPECT_LT(fast.p99_ms, full.worker_timeout_s * 1000.0);
  // No p50 comparison: probation can park the full gather in near-zero
  // local-only answers (tiny median, terrible accuracy), so the median is
  // not a meaningful axis between the two modes — the mean and the tail
  // are.
}

/// Two same-config runs must agree on every discrete outcome and every
/// latency bit — the chaos-label twin of the determinism-gate test, kept
/// here so the seed-swept chaos legs cover it too.
TEST(ResilienceScenario, SameSeedSameEverything) {
  auto experts = make_experts(3);
  auto test = blobs();
  auto cfg = des_config(12);

  sim::ResilienceConfig res;
  res.faults.seed = chaos_seed();
  res.faults.drop_prob = 0.2;
  res.faults.duplicate_prob = 0.15;
  res.worker_timeout_s = 0.05;
  res.quorum = 2;
  res.hedging = true;

  const auto a = sim::run_teamnet_resilience(expert_ptrs(experts), test, cfg,
                                             res);
  const auto b = sim::run_teamnet_resilience(expert_ptrs(experts), test, cfg,
                                             res);
  EXPECT_EQ(a.latency_ms, b.latency_ms);  // exact: virtual time, no tolerance
  EXPECT_EQ(a.degradation, b.degradation);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.full_gathers, b.full_gathers);
  EXPECT_EQ(a.quorum_gathers, b.quorum_gathers);
  EXPECT_EQ(a.local_only_gathers, b.local_only_gathers);
  EXPECT_EQ(a.hedges_sent, b.hedges_sent);
  EXPECT_EQ(a.hedge_wins, b.hedge_wins);
  EXPECT_EQ(a.hedge_duplicates, b.hedge_duplicates);
  EXPECT_EQ(a.rejoins, b.rejoins);
  EXPECT_EQ(a.stale_replies, b.stale_replies);
  EXPECT_EQ(a.expired_drops, b.expired_drops);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.scenario.schedule_digest, b.scenario.schedule_digest);
}

}  // namespace
}  // namespace teamnet
