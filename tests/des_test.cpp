// Discrete-event engine tests: event-queue tie-breaking, the link math
// (compute advances, link delay, shared-medium arbitration, transfer
// time), quiescence / deadlock detection, virtual timeouts, FaultyChannel
// composition over DesChannel, and the reference contract — every
// simulated fleet is bit-stable for a seed and answers exactly what an
// in-process arg-min-entropy selection over the same rows answers.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/teamnet.hpp"
#include "data/blobs.hpp"
#include "moe/sg_moe.hpp"
#include "net/collab.hpp"
#include "net/fault.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "sim/des/des_channel.hpp"
#include "sim/des/engine.hpp"
#include "sim/driver_util.hpp"
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

// ---- Link math -------------------------------------------------------------

TEST(DesLinkMath, ComputeAdvancesOneNode) {
  Engine engine(2);
  engine.advance(0, 1.5);
  EXPECT_DOUBLE_EQ(engine.node_time(0), 1.5);
  EXPECT_DOUBLE_EQ(engine.node_time(1), 0.0);
  EXPECT_THROW(engine.advance(0, -1.0), InvariantError);
}

TEST(DesLinkMath, DeliveryImposesLinkDelay) {
  net::LinkProfile link{0.001, 8e6, 0.0};  // 1 ms prop + 1 us/byte airtime
  Engine engine(2);
  auto mb = engine.make_mailbox(1);
  engine.advance(0, 2.0);
  engine.advance(1, 2.0);  // receiver catches up so the sender holds the grant
  engine.send(0, mb, std::string(1000, 'x'), link);
  engine.retire(0);
  engine.recv(1, *mb);
  EXPECT_NEAR(engine.node_time(1), 2.0 + 0.001 + 0.001, 1e-9);
  EXPECT_EQ(engine.bytes_delivered(), 1000);
  EXPECT_EQ(engine.messages_delivered(), 1);
}

TEST(DesLinkMath, SharedMediumSerializesConcurrentTransmissions) {
  // Two messages sent at the same instant on different channels contend
  // for the half-duplex medium: the second transmission starts only after
  // the first's airtime. The receiver runs on its own thread so the sender
  // can move on to t=10 while it waits.
  net::LinkProfile link{0.001, 8e6, 0.0};
  Engine engine(2);
  auto mb_a = engine.make_mailbox(1);
  auto mb_b = engine.make_mailbox(1);
  std::vector<double> arrivals;
  std::thread receiver([&] {
    for (auto* mb : {mb_a.get(), mb_b.get(), mb_a.get()}) {
      engine.recv(1, *mb);
      arrivals.push_back(engine.node_time(1));
    }
    engine.retire(1);
  });
  engine.send(0, mb_a, std::string(1000, 'a'), link);  // airtime 1 ms
  engine.send(0, mb_b, std::string(1000, 'b'), link);
  engine.advance(0, 10.0);
  // A later send on an idle medium pays no contention.
  engine.send(0, mb_a, std::string(1000, 'c'), link);
  engine.retire(0);
  receiver.join();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(arrivals[0], 0.002, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.003, 1e-9)
      << "second message waits for the medium";
  EXPECT_NEAR(arrivals[2], 10.002, 1e-9);
}

TEST(DesLinkMath, LinkTransferTime) {
  net::LinkProfile link{0.0005, 40e6, 0.0002};
  EXPECT_NEAR(link.transfer_time(0), 0.0007, 1e-9);
  EXPECT_NEAR(link.transfer_time(40000000 / 8), 0.0007 + 1.0, 1e-6);
  // Airtime is everything but propagation: overhead + serialization.
  EXPECT_NEAR(link.airtime(0), 0.0002, 1e-9);
  EXPECT_NEAR(link.airtime(40000000 / 8), 0.0002 + 1.0, 1e-6);
}

TEST(DesEngine, DeliveryMatchesClosedFormLinkMath) {
  // Two back-to-back sends at t=0.5: the first starts on an idle medium,
  // the second waits for the first's airtime. Each arrives one propagation
  // latency after leaving the medium — bit for bit the closed form below.
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

  const double first_leaves = 0.5 + link.airtime(10);
  const double second_leaves = first_leaves + link.airtime(20);
  EXPECT_EQ(t_first, first_leaves + link.latency_s);
  EXPECT_EQ(t_second, second_leaves + link.latency_s);
  // 2 ms overhead + 1 ms per byte of airtime, 1 ms propagation.
  EXPECT_NEAR(t_first, 0.5 + 0.012 + 0.001, 1e-12);
  EXPECT_NEAR(t_second, 0.5 + 0.012 + 0.022 + 0.001, 1e-12);
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
  // must receive it.
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

TEST(DesEngine, RecvAnyReadsTheEarliestDeliveryAcrossMailboxes) {
  // Node 0 waits on two inboxes; node 1 sends first in real time but at a
  // later virtual time, so node 2's frame lands first.
  Engine engine(3);
  auto from1 = engine.make_mailbox(0);
  auto from2 = engine.make_mailbox(0);
  const std::vector<sim::des::Mailbox*> inboxes{from1.get(), from2.get()};
  const double never = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::size_t, std::string>> got;
  std::thread receiver([&] {
    for (int i = 0; i < 2; ++i) {
      auto frame = engine.recv_any(0, inboxes, never);
      if (frame) got.push_back(*frame);
    }
    engine.retire(0);
  });
  std::thread early([&] {
    engine.send(2, from2, "early", test_link());
    engine.retire(2);
  });
  engine.advance(1, 0.5);
  engine.send(1, from1, "late", test_link());
  engine.retire(1);
  early.join();
  receiver.join();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair(std::size_t{1}, std::string("early")));
  EXPECT_EQ(got[1], std::make_pair(std::size_t{0}, std::string("late")));
}

TEST(DesEngine, RecvAnyWakesAtItsInstantWithoutTraffic) {
  Engine engine(2);
  auto inbox = engine.make_mailbox(1);
  const std::vector<sim::des::Mailbox*> inboxes{inbox.get()};
  std::thread sender([&] {
    engine.send(0, inbox, "on time", test_link());
    engine.advance(0, 1.0);
    engine.retire(0);
  });
  // A frame landing exactly at the wake-up instant wins the tie.
  const double landed = test_link().airtime(7) + test_link().latency_s;
  auto got = engine.recv_any(1, inboxes, landed);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, "on time");
  EXPECT_EQ(engine.node_time(1), landed);
  // Nothing else lands by 2 s: the node wakes at 2 s once node 0 is past
  // it, and the wake-up is not traffic.
  EXPECT_EQ(engine.recv_any(1, inboxes, 2.0), std::nullopt);
  EXPECT_EQ(engine.node_time(1), 2.0);
  EXPECT_EQ(engine.messages_delivered(), 1);
  EXPECT_EQ(engine.bytes_delivered(), 7);
  sender.join();
  engine.retire(1);
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

TEST(DesChannel, AccountsBytesAndTime) {
  net::LinkProfile link{0.01, 0.0, 0.0};
  Engine engine(2);
  auto [a, b] = sim::des::make_des_pair(engine, 0, 1, link);
  engine.advance(0, 5.0);
  engine.advance(1, 5.0);
  a->send("data");
  engine.retire(0);
  EXPECT_EQ(b->recv(), "data");
  EXPECT_NEAR(engine.node_time(1), 5.01, 1e-9);
  EXPECT_EQ(engine.bytes_delivered(), 4);
  EXPECT_EQ(engine.messages_delivered(), 1);
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

// ---- Reference agreement ---------------------------------------------------

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

sim::ScenarioConfig fast_config() {
  sim::ScenarioConfig cfg;
  cfg.num_queries = 12;
  cfg.link = net::LinkProfile{0.0005, 0.0, 0.0};
  return cfg;
}

/// TeamNet's selection rule, in process: every expert in `members` scores
/// the one-row input, the lowest predictive entropy wins (ties go to the
/// lowest node index), and the winner's argmax is the answer.
int reference_prediction(const std::vector<nn::Module*>& experts,
                         const std::vector<int>& members, const Tensor& x) {
  std::vector<nn::Module*> team;
  for (int node : members) {
    nn::Module* expert = experts[static_cast<std::size_t>(node)];
    expert->set_training(false);
    team.push_back(expert);
  }
  return core::infer_experts(team, x).predictions[0];
}

bool reference_correct(const std::vector<nn::Module*>& experts,
                       const std::vector<int>& members,
                       const data::Dataset& test, int row) {
  return reference_prediction(experts, members,
                              sim::query_row_tensor(test, row)) ==
         test.labels[static_cast<std::size_t>(row)];
}

std::vector<int> all_nodes(int k) {
  std::vector<int> nodes(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) nodes[static_cast<std::size_t>(i)] = i;
  return nodes;
}

/// Accuracy of the full-team reference over `rows`, in percent.
double reference_accuracy_pct(const std::vector<nn::Module*>& experts,
                              const data::Dataset& test,
                              const std::vector<int>& rows) {
  const std::vector<int> team = all_nodes(static_cast<int>(experts.size()));
  std::size_t ok = 0;
  for (int row : rows) {
    if (reference_correct(experts, team, test, row)) ++ok;
  }
  return 100.0 * static_cast<double>(ok) / static_cast<double>(rows.size());
}

/// Every field two same-seed runs must reproduce bit for bit.
void expect_same_result(const sim::ScenarioResult& a,
                        const sim::ScenarioResult& b) {
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.accuracy_pct, b.accuracy_pct);
  EXPECT_EQ(a.bytes_per_query, b.bytes_per_query);
  EXPECT_EQ(a.messages_per_query, b.messages_per_query);
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
}

TEST(DesReference, TeamNetMatchesInProcessSelection) {
  const int k = 3;
  const auto experts = make_experts(k);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  const auto des = sim::run_teamnet(ptrs, test, fast_config());
  const auto des2 = sim::run_teamnet(ptrs, test, fast_config());
  expect_same_result(des, des2);
  EXPECT_EQ(des.num_nodes, k);
  // run_teamnet scores the team over the whole test set.
  std::vector<int> rows(static_cast<std::size_t>(test.size()));
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<int>(r);
  EXPECT_EQ(des.accuracy_pct, reference_accuracy_pct(ptrs, test, rows));
  // One broadcast + one gather: an Infer and a Result per worker per query.
  EXPECT_EQ(des.messages_per_query, 2.0 * (k - 1));
  EXPECT_GT(des.bytes_per_query, 0.0);
}

TEST(DesReference, MpiMatrixMatchesInProcessModel) {
  nn::MlpConfig cfg;
  cfg.in_features = 8;
  cfg.num_classes = 4;
  cfg.depth = 3;
  cfg.hidden = 12;
  Rng rng(7);
  nn::MlpNet model(cfg, rng);
  const auto test = blob_test_set();
  const auto des = sim::run_mpi_matrix(model, test, fast_config(), 3);
  const auto des2 = sim::run_mpi_matrix(model, test, fast_config(), 3);
  expect_same_result(des, des2);
  EXPECT_EQ(des.num_nodes, 3);
  model.set_training(false);
  EXPECT_EQ(des.accuracy_pct,
            100.0 * nn::accuracy(model.predict(test.images), test.labels));
  EXPECT_GT(des.messages_per_query, 0.0);
  EXPECT_GT(des.bytes_per_query, 0.0);
}

TEST(DesReference, SgMoeMatchesInProcessModel) {
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
  const auto des = sim::run_sg_moe(model, test, fast_config());
  const auto des2 = sim::run_sg_moe(model, test, fast_config());
  expect_same_result(des, des2);
  EXPECT_EQ(des.accuracy_pct, 100.0 * model.evaluate_accuracy(test));
  EXPECT_GT(des.messages_per_query, 0.0);
  EXPECT_GT(des.bytes_per_query, 0.0);
}

/// A chaos run: resilience with expired-request drops off.
sim::ResilienceConfig chaos_config() {
  sim::ResilienceConfig chaos;
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

/// Checks every query's answer against the in-process reference over the
/// experts that could have answered it: the whole team for a full gather,
/// the master alone for a local-only one, and the master plus one worker
/// for a k=3 quorum gather (whichever worker answered).
void expect_answers_match_reference(const std::vector<nn::Module*>& experts,
                                    const data::Dataset& test,
                                    const sim::ScenarioConfig& cfg,
                                    const sim::ResilienceResult& r) {
  const int k = static_cast<int>(experts.size());
  ASSERT_EQ(k, 3);
  const auto rows = sim::sample_query_rows(test, cfg.num_queries, cfg.seed);
  ASSERT_EQ(r.correct.size(), rows.size());
  ASSERT_EQ(r.degradation.size(), rows.size());
  for (std::size_t q = 0; q < rows.size(); ++q) {
    const bool ok = r.correct[q] != 0;
    const int row = rows[q];
    switch (static_cast<net::DegradationLevel>(r.degradation[q])) {
      case net::DegradationLevel::full:
        EXPECT_EQ(ok, reference_correct(experts, all_nodes(k), test, row))
            << "query " << q;
        break;
      case net::DegradationLevel::local_only:
        EXPECT_EQ(ok, reference_correct(experts, {0}, test, row))
            << "query " << q;
        break;
      case net::DegradationLevel::quorum:
        EXPECT_TRUE(ok == reference_correct(experts, {0, 1}, test, row) ||
                    ok == reference_correct(experts, {0, 2}, test, row))
            << "query " << q;
        break;
    }
  }
}

TEST(DesReference, ChaosUnderDropsAndPartitionMatchesReference) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  sim::ResilienceConfig chaos = chaos_config();
  chaos.faults.seed = 42;
  chaos.faults.drop_prob = 0.25;
  chaos.faults.corrupt_prob = 0.1;
  chaos.worker_timeout_s = 0.25;
  chaos.probe_interval = 0;
  chaos.partition_worker = 0;
  chaos.partition_from_query = 4;
  chaos.heal_at_query = 8;
  const sim::ScenarioConfig cfg = fast_config();
  const auto des = sim::run_teamnet_resilience(ptrs, test, cfg, chaos);
  const auto des2 = sim::run_teamnet_resilience(ptrs, test, cfg, chaos);
  EXPECT_EQ(des.scenario.latency_ms, des2.scenario.latency_ms);
  EXPECT_EQ(chaos_signature(des), chaos_signature(des2));
  EXPECT_GT(des.faults_injected, 0);
  expect_answers_match_reference(ptrs, test, cfg, des);
}

TEST(DesReference, ChaosUnderDuplicationMatchesReference) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  sim::ResilienceConfig chaos = chaos_config();
  chaos.faults.seed = 42;
  chaos.faults.duplicate_prob = 0.3;
  chaos.worker_timeout_s = 5.0;
  chaos.probe_interval = 2;
  const sim::ScenarioConfig cfg = fast_config();
  const auto des = sim::run_teamnet_resilience(ptrs, test, cfg, chaos);
  const auto des2 = sim::run_teamnet_resilience(ptrs, test, cfg, chaos);
  EXPECT_EQ(des.scenario.latency_ms, des2.scenario.latency_ms);
  EXPECT_EQ(chaos_signature(des), chaos_signature(des2));
  // Duplicates never cost an answer: every query is a full gather and the
  // accuracy is the reference's over the same sampled rows.
  EXPECT_EQ(des.full_gathers, cfg.num_queries);
  EXPECT_EQ(des.scenario.accuracy_pct,
            reference_accuracy_pct(
                ptrs, test,
                sim::sample_query_rows(test, cfg.num_queries, cfg.seed)));
  expect_answers_match_reference(ptrs, test, cfg, des);
}

}  // namespace
}  // namespace teamnet
