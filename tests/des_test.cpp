// Discrete-event engine tests (ISSUE 4): event-queue tie-breaking,
// quiescence / deadlock detection, virtual timeouts, FaultyChannel
// composition over DesChannel, and the cross-mode contract — free_running
// and discrete_event agree on every discrete outcome (selection, accuracy,
// traffic counts, fault schedules) for the same seed, while discrete_event
// is additionally bit-stable in latency.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/blobs.hpp"
#include "moe/sg_moe.hpp"
#include "net/fault.hpp"
#include "nn/mlp.hpp"
#include "sim/des/des_channel.hpp"
#include "sim/des/engine.hpp"
#include "sim/des/runtime.hpp"
#include "sim/scenario.hpp"

namespace teamnet {
namespace {

using sim::des::DeadlockError;
using sim::des::Engine;
using sim::des::Event;
using sim::des::EventKey;
using sim::des::EventQueue;

// ---- Event queue ordering ---------------------------------------------------

Event make_event(double time, int node, std::uint64_t seq) {
  return Event{EventKey{time, node, seq}, nullptr, std::string()};
}

TEST(DesEventQueue, OrdersByTimeFirst) {
  EventQueue q;
  q.push(make_event(2.0, 0, 0));
  q.push(make_event(1.0, 5, 7));
  q.push(make_event(3.0, 1, 1));
  EXPECT_EQ(q.pop().key.time, 1.0);
  EXPECT_EQ(q.pop().key.time, 2.0);
  EXPECT_EQ(q.pop().key.time, 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(DesEventQueue, BreaksTimeTiesByDestinationNode) {
  EventQueue q;
  q.push(make_event(1.0, 3, 0));
  q.push(make_event(1.0, 1, 1));
  q.push(make_event(1.0, 2, 2));
  EXPECT_EQ(q.pop().key.node, 1);
  EXPECT_EQ(q.pop().key.node, 2);
  EXPECT_EQ(q.pop().key.node, 3);
}

TEST(DesEventQueue, BreaksFullTiesByScheduleOrder) {
  EventQueue q;
  q.push(make_event(1.0, 2, 9));
  q.push(make_event(1.0, 2, 4));
  q.push(make_event(1.0, 2, 6));
  EXPECT_EQ(q.pop().key.seq, 4u);
  EXPECT_EQ(q.pop().key.seq, 6u);
  EXPECT_EQ(q.pop().key.seq, 9u);
}

// ---- Engine semantics -------------------------------------------------------

net::LinkProfile test_link() {
  net::LinkProfile link;
  link.latency_s = 0.001;
  link.bandwidth_bps = 8000.0;  // 1 byte per millisecond of airtime
  link.per_message_overhead_s = 0.002;
  return link;
}

TEST(DesEngine, DeliveryReplaysVirtualClockMath) {
  // The same send sequence, issued to the engine and to a VirtualClock,
  // must produce identical receiver clocks and medium arbitration.
  const net::LinkProfile link = test_link();
  Engine engine(2);
  auto mb = engine.make_mailbox(1);
  engine.advance(0, 0.5);
  engine.advance(1, 0.5);  // grant order: node 1 must catch up before node 0
                           // may transmit at t=0.5
  engine.send(0, mb, std::string(10, 'x'), link);  // back-to-back: the
  engine.send(0, mb, std::string(20, 'y'), link);  // second waits for the medium
  engine.retire(0);
  EXPECT_EQ(engine.recv(1, *mb).size(), 10u);
  const double t_first = engine.node_time(1);
  EXPECT_EQ(engine.recv(1, *mb).size(), 20u);
  const double t_second = engine.node_time(1);

  net::VirtualClock clock(2);
  clock.advance(0, 0.5);
  const double a_first = clock.deliver(1, 0.5, 10, link);
  const double a_second = clock.deliver(1, 0.5, 20, link);
  EXPECT_EQ(t_first, a_first);
  EXPECT_EQ(t_second, a_second);
  EXPECT_EQ(engine.bytes_delivered(), 30);
  EXPECT_EQ(engine.messages_delivered(), 2);
}

TEST(DesEngine, ReceiverClockIsLamportMax) {
  // Node 0 receives, node 1 sends (node 0 wins the t=0 grant tie, so its
  // advance can run first single-threaded).
  Engine engine(2);
  auto mb = engine.make_mailbox(0);
  engine.advance(0, 10.0);  // receiver far ahead of the message's arrival
  engine.send(1, mb, "m", test_link());
  engine.retire(1);
  engine.recv(0, *mb);
  EXPECT_EQ(engine.node_time(0), 10.0);  // max(receiver, arrival) = receiver
}

TEST(DesEngine, ClosedMailboxDrainsInFlightThenThrows) {
  Engine engine(2);
  auto mb = engine.make_mailbox(1);
  engine.send(0, mb, "last", test_link());
  engine.close(*mb);
  engine.retire(0);
  EXPECT_EQ(engine.recv(1, *mb), "last");  // in-flight message drains first
  EXPECT_THROW(engine.recv(1, *mb), NetworkError);
  EXPECT_THROW(engine.send(0, mb, "late", test_link()), NetworkError);
}

TEST(DesEngine, TimeoutFiresAtQuiescenceAndChargesBudget) {
  Engine engine(2);
  auto mb = engine.make_mailbox(1);
  engine.retire(0);  // nothing will ever arrive
  engine.advance(1, 1.0);
  EXPECT_EQ(engine.recv_timeout(1, *mb, 0.25), std::nullopt);
  EXPECT_EQ(engine.node_time(1), 1.25);
  // A non-positive budget polls without charging.
  EXPECT_EQ(engine.recv_timeout(1, *mb, 0.0), std::nullopt);
  EXPECT_EQ(engine.node_time(1), 1.25);
}

TEST(DesEngine, InFlightMessageAlwaysBeatsTimeout) {
  // The delivery arrives later than the timeout budget would expire, but a
  // timeout may only fire at quiescence — with a message in flight the wait
  // must receive it (free-running has the same contract: real waits always
  // lose to a message that is actually coming).
  Engine engine(2);
  auto mb = engine.make_mailbox(1);
  engine.send(0, mb, "slow", test_link());
  engine.retire(0);
  const auto got = engine.recv_timeout(1, *mb, 1e-9);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "slow");
}

TEST(DesEngine, EarliestVirtualDeadlineFiresFirst) {
  Engine engine(3);
  auto mb1 = engine.make_mailbox(1);
  auto mb2 = engine.make_mailbox(2);
  engine.retire(0);
  double done1 = -1.0;
  double done2 = -1.0;
  std::thread t1([&] {
    EXPECT_EQ(engine.recv_timeout(1, *mb1, 0.3), std::nullopt);
    done1 = engine.node_time(1);
    engine.retire(1);
  });
  std::thread t2([&] {
    EXPECT_EQ(engine.recv_timeout(2, *mb2, 0.2), std::nullopt);
    done2 = engine.node_time(2);
    engine.retire(2);
  });
  t1.join();
  t2.join();
  EXPECT_EQ(done1, 0.3);
  EXPECT_EQ(done2, 0.2);
}

TEST(DesEngine, DeadlockIsDiagnosedNotHung) {
  // Two nodes, each blocked on a mailbox nobody will ever write to: the
  // engine must fail the recv with a DeadlockError naming the stuck nodes
  // instead of hanging the process.
  Engine engine(2);
  auto mb0 = engine.make_mailbox(0);
  auto mb1 = engine.make_mailbox(1);
  std::string what0;
  std::string what1;
  std::thread t0([&] {
    try {
      engine.recv(0, *mb0);
    } catch (const DeadlockError& e) {
      what0 = e.what();
    }
  });
  std::thread t1([&] {
    try {
      engine.recv(1, *mb1);
    } catch (const DeadlockError& e) {
      what1 = e.what();
    }
  });
  t0.join();
  t1.join();
  EXPECT_NE(what0.find("deadlock"), std::string::npos);
  EXPECT_NE(what0.find("node 0"), std::string::npos);
  EXPECT_NE(what0.find("node 1"), std::string::npos);
  EXPECT_EQ(what0, what1);
}

TEST(DesEngine, GrantAdmitsMinimumTimeNodeOnly) {
  // Node 1 sits at an earlier virtual time; node 0's advance must not be
  // admitted until node 1 catches up past it, so sends/advances interleave
  // in virtual-time order no matter the thread schedule.
  Engine engine(2);
  engine.advance(0, 1.0);  // node 0 at t=1 while node 1 is at t=0
  std::vector<int> order;
  Mutex order_mutex;
  std::thread t1([&] {
    for (int i = 0; i < 3; ++i) {
      engine.advance(1, 0.25);
      MutexLock lock(order_mutex);
      order.push_back(1);
    }
    engine.retire(1);
  });
  engine.advance(0, 0.001);  // must wait for node 1 to pass t=1
  {
    MutexLock lock(order_mutex);
    order.push_back(0);
    // All three of node 1's sub-t=1 advances completed before node 0 moved.
    EXPECT_EQ(order.size(), 4u);
    EXPECT_EQ(order.back(), 0);
  }
  engine.retire(0);
  t1.join();
}

// ---- DesChannel + FaultyChannel composition ---------------------------------

TEST(DesChannel, ComposesUnderFaultyChannelWithDeterministicSchedule) {
  // A FaultyChannel wrapped around the DES endpoint sees pure payload bytes
  // (no timestamp header) and injects the exact same schedule as over any
  // other channel: seed-driven duplication doubles the delivery.
  Engine engine(2);
  auto [c0, c1] = sim::des::make_des_pair(engine, 0, 1, test_link());
  net::FaultProfile profile;
  profile.seed = 7;
  profile.duplicate_prob = 1.0;
  auto faulty = net::make_faulty_channel(std::move(c0), profile);
  faulty->send("payload");
  engine.retire(0);
  EXPECT_EQ(c1->recv(), "payload");
  EXPECT_EQ(c1->recv(), "payload");  // the duplicate
  EXPECT_EQ(engine.messages_delivered(), 2);
  EXPECT_EQ(engine.bytes_delivered(), 14);
}

TEST(DesChannel, CloseWakesPeerRecv) {
  Engine engine(2);
  auto [c0, c1] = sim::des::make_des_pair(engine, 0, 1, test_link());
  std::thread t1([&] {
    EXPECT_THROW(c1->recv(), NetworkError);
    engine.retire(1);
  });
  c0->close();
  engine.retire(0);
  t1.join();
}

// ---- Cross-mode agreement ---------------------------------------------------

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

sim::ScenarioConfig fast_config(sim::Scheduler scheduler) {
  sim::ScenarioConfig cfg;
  cfg.num_queries = 12;
  cfg.link = net::LinkProfile{0.0005, 0.0, 0.0};
  cfg.scheduler = scheduler;
  return cfg;
}

TEST(DesCrossMode, TeamNetDiscreteOutcomesMatchFreeRunning) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  const auto des =
      sim::run_teamnet(ptrs, test, fast_config(sim::Scheduler::discrete_event));
  const auto des2 =
      sim::run_teamnet(ptrs, test, fast_config(sim::Scheduler::discrete_event));
  const auto free_run =
      sim::run_teamnet(ptrs, test, fast_config(sim::Scheduler::free_running));
  // DES is bit-stable, latency included.
  EXPECT_EQ(des.latency_ms, des2.latency_ms);
  // Both modes agree on every discrete outcome.
  EXPECT_EQ(des.num_nodes, free_run.num_nodes);
  EXPECT_EQ(des.accuracy_pct, free_run.accuracy_pct);
  EXPECT_EQ(des.bytes_per_query, free_run.bytes_per_query);
  EXPECT_EQ(des.messages_per_query, free_run.messages_per_query);
}

TEST(DesCrossMode, MpiMatrixDiscreteOutcomesMatchFreeRunning) {
  nn::MlpConfig cfg;
  cfg.in_features = 8;
  cfg.num_classes = 4;
  cfg.depth = 3;
  cfg.hidden = 12;
  Rng rng(7);
  nn::MlpNet model(cfg, rng);
  const auto test = blob_test_set();
  const auto des = sim::run_mpi_matrix(
      model, test, fast_config(sim::Scheduler::discrete_event), 3);
  const auto des2 = sim::run_mpi_matrix(
      model, test, fast_config(sim::Scheduler::discrete_event), 3);
  const auto free_run = sim::run_mpi_matrix(
      model, test, fast_config(sim::Scheduler::free_running), 3);
  EXPECT_EQ(des.latency_ms, des2.latency_ms);
  EXPECT_EQ(des.accuracy_pct, free_run.accuracy_pct);
  EXPECT_EQ(des.bytes_per_query, free_run.bytes_per_query);
  EXPECT_EQ(des.messages_per_query, free_run.messages_per_query);
}

TEST(DesCrossMode, SgMoeDiscreteOutcomesMatchFreeRunning) {
  moe::SgMoeConfig cfg;
  cfg.num_experts = 3;
  cfg.epochs = 1;
  moe::SgMoe model(cfg, 8, [](int /*index*/, Rng& rng) {
    nn::MlpConfig mc;
    mc.in_features = 8;
    mc.num_classes = 4;
    mc.depth = 2;
    mc.hidden = 10;
    return std::make_unique<nn::MlpNet>(mc, rng);
  });
  const auto test = blob_test_set();
  model.train(test);
  const auto des =
      sim::run_sg_moe(model, test, fast_config(sim::Scheduler::discrete_event));
  const auto des2 =
      sim::run_sg_moe(model, test, fast_config(sim::Scheduler::discrete_event));
  const auto free_run =
      sim::run_sg_moe(model, test, fast_config(sim::Scheduler::free_running));
  EXPECT_EQ(des.latency_ms, des2.latency_ms);
  EXPECT_EQ(des.accuracy_pct, free_run.accuracy_pct);
  EXPECT_EQ(des.bytes_per_query, free_run.bytes_per_query);
  EXPECT_EQ(des.messages_per_query, free_run.messages_per_query);
}

/// A chaos run: resilience with health scoring and expired-request drops
/// off.
sim::ResilienceConfig chaos_config() {
  sim::ResilienceConfig chaos;
  chaos.health = false;
  chaos.drop_expired = false;
  return chaos;
}

std::string chaos_signature(const sim::ResilienceResult& r) {
  std::string s = r.fault_schedule;
  s += "|stale=" + std::to_string(r.stale_replies);
  s += "|rejoins=" + std::to_string(r.rejoins);
  s += "|faults=" + std::to_string(r.faults_injected);
  s += "|acc=" + std::to_string(r.scenario.accuracy_pct);
  s += "|bytes=" + std::to_string(r.scenario.bytes_per_query);
  s += "|msgs=" + std::to_string(r.scenario.messages_per_query);
  s += "|live=";
  for (int v : r.live_nodes) s += std::to_string(v) + ",";
  s += "|ok=";
  for (char c : r.correct) s += c ? '1' : '0';
  return s;
}

TEST(DesCrossMode, ChaosScheduleMatchesFreeRunningUnderDropsAndPartition) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  sim::ResilienceConfig chaos = chaos_config();
  chaos.faults.seed = 42;
  chaos.faults.drop_prob = 0.25;
  chaos.faults.corrupt_prob = 0.1;
  chaos.worker_timeout_s = 0.25;
  chaos.probe_interval = 0;  // probes race real time; keep them out of the
                             // cross-mode comparison
  chaos.partition_worker = 0;
  chaos.partition_from_query = 4;
  chaos.heal_at_query = 8;
  const auto des = sim::run_teamnet_resilience(
      ptrs, test, fast_config(sim::Scheduler::discrete_event), chaos);
  const auto des2 = sim::run_teamnet_resilience(
      ptrs, test, fast_config(sim::Scheduler::discrete_event), chaos);
  const auto free_run = sim::run_teamnet_resilience(
      ptrs, test, fast_config(sim::Scheduler::free_running), chaos);
  EXPECT_EQ(des.scenario.latency_ms, des2.scenario.latency_ms);
  EXPECT_EQ(chaos_signature(des), chaos_signature(des2));
  EXPECT_EQ(chaos_signature(des), chaos_signature(free_run));
}

TEST(DesCrossMode, ChaosScheduleMatchesFreeRunningUnderDuplication) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  sim::ResilienceConfig chaos = chaos_config();
  chaos.faults.seed = 42;
  chaos.faults.duplicate_prob = 0.3;
  chaos.worker_timeout_s = 5.0;  // generous: no worker ever actually fails,
  chaos.probe_interval = 2;      // so the probe path stays idle in both modes
  const auto des = sim::run_teamnet_resilience(
      ptrs, test, fast_config(sim::Scheduler::discrete_event), chaos);
  const auto free_run = sim::run_teamnet_resilience(
      ptrs, test, fast_config(sim::Scheduler::free_running), chaos);
  EXPECT_EQ(chaos_signature(des), chaos_signature(free_run));
}

}  // namespace
}  // namespace teamnet
