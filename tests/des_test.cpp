// Discrete-event engine tests: event-queue tie-breaking, the link math
// (compute advances, link delay, shared-medium arbitration, transfer
// time), quiescence / deadlock detection, virtual timeouts, group frames,
// FaultyChannel composition over DesChannel (recv timing, and group frames
// whose receivers roll their own faults), and the reference contract — every
// simulated fleet is bit-stable for a seed and answers exactly what an
// in-process arg-min-entropy selection over the same rows answers.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
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

TEST(DesChannel, FaultyChannelForwardsRecvTiming) {
  // The fault layer reports the DES leg's timing of every frame it hands
  // over, and a replayed duplicate reports its original's.
  const net::LinkProfile link = test_link();
  Engine engine(2);
  auto [c0, c1] = sim::des::make_des_pair(engine, 0, 1, link);
  net::FaultProfile profile;
  profile.seed = 7;
  profile.duplicate_prob = 1.0;
  net::FaultyChannel faulty(std::move(c1), profile);
  EXPECT_FALSE(faulty.last_recv_timing().has_value());
  std::vector<std::string> frames;
  std::vector<std::optional<net::WireTiming>> timing;
  std::thread reader([&] {
    for (int i = 0; i < 4; ++i) {
      frames.push_back(faulty.recv());
      timing.push_back(faulty.last_recv_timing());
    }
    engine.retire(1);
  });
  c0->send("first");
  engine.advance(0, 0.5);
  c0->send("second");
  engine.retire(0);
  reader.join();
  const double first_landed = link.airtime(5) + link.latency_s;
  const double second_landed = 0.5 + link.airtime(6) + link.latency_s;
  EXPECT_EQ(frames, (std::vector<std::string>{"first", "first", "second",
                                              "second"}));
  ASSERT_EQ(timing.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {  // each original, then its duplicate
    ASSERT_TRUE(timing[i].has_value()) << i;
    EXPECT_EQ(timing[i]->on_air, i < 2 ? 0.0 : 0.5) << i;
    EXPECT_EQ(timing[i]->landed, i < 2 ? first_landed : second_landed) << i;
  }
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

// ---- Group frames ------------------------------------------------------------

/// What each of nodes 1..3 read from one group frame node 0 sent them.
struct GroupRead {
  std::vector<net::WireTiming> timing;  ///< per receiver, node order
  std::vector<std::string> bytes;
};

/// Node 0 sends `payload` as one group frame to nodes 1..3, skipping the
/// mailboxes listed in `closed_nodes` (closed before the send), then one
/// unicast `follow_up` to node 1. Receivers read on their own threads.
/// Returns what the send reported and what every open receiver read.
GroupRead run_group_of_three(Engine& engine, const std::string& payload,
                             const net::LinkProfile& link,
                             const std::string& follow_up,
                             const std::vector<int>& closed_nodes,
                             std::vector<std::size_t>* refused) {
  std::vector<std::shared_ptr<sim::des::Mailbox>> group;
  for (int node = 1; node <= 3; ++node) {
    group.push_back(engine.make_mailbox(node));
  }
  auto extra = engine.make_mailbox(1);
  for (int node : closed_nodes) {
    engine.close(*group[static_cast<std::size_t>(node - 1)]);
  }
  GroupRead out;
  out.timing.resize(3);
  out.bytes.resize(3);
  std::vector<std::thread> receivers;
  for (int node = 1; node <= 3; ++node) {
    receivers.emplace_back([&, node] {
      const auto i = static_cast<std::size_t>(node - 1);
      try {
        out.bytes[i] = engine.recv(node, *group[i], &out.timing[i]);
        if (node == 1 && !follow_up.empty()) engine.recv(node, *extra);
      } catch (const NetworkError&) {
        // A closed member reads nothing.
      }
      engine.retire(node);
    });
  }
  *refused = engine.send(0, group, payload, link);
  if (!follow_up.empty()) engine.send(0, extra, follow_up, link);
  engine.retire(0);
  for (auto& t : receivers) t.join();
  return out;
}

TEST(DesGroupFrame, OccupiesTheMediumForOneAirtime) {
  // A group of three pays one airtime: a unicast sent right behind it
  // waits for one frame's worth of medium, not three.
  const net::LinkProfile link{0.001, 8e6, 0.0};  // 1 us of airtime per byte
  Engine engine(4);
  std::vector<std::size_t> refused;
  run_group_of_three(engine, std::string(1000, 'g'), link,
                     std::string(1000, 'u'), {}, &refused);
  EXPECT_TRUE(refused.empty());
  // The follow-up left the medium after two airtimes and landed one
  // propagation latency later.
  EXPECT_NEAR(engine.node_time(1), 0.001 + 0.001 + 0.001, 1e-12);
  // On the air: two frames, 2000 bytes. Read: four frames, 4000 bytes.
  EXPECT_EQ(engine.air_frames(), 2);
  EXPECT_EQ(engine.air_bytes(), 2000);
  EXPECT_EQ(engine.messages_delivered(), 4);
  EXPECT_EQ(engine.bytes_delivered(), 4000);
}

TEST(DesGroupFrame, EveryReceiverSeesTheSameOnAirAndArrival) {
  const net::LinkProfile link = test_link();
  Engine engine(4);
  engine.advance(0, 0.25);
  std::vector<std::size_t> refused;
  const GroupRead read =
      run_group_of_three(engine, "frame", link, "", {}, &refused);
  EXPECT_TRUE(refused.empty());
  const double landed = 0.25 + link.airtime(5) + link.latency_s;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(read.bytes[i], "frame") << "node " << i + 1;
    EXPECT_EQ(read.timing[i].on_air, 0.25) << "node " << i + 1;
    EXPECT_EQ(read.timing[i].landed, landed) << "node " << i + 1;
    EXPECT_EQ(engine.node_time(static_cast<int>(i) + 1), landed);
  }
}

TEST(DesGroupFrame, ClosedMemberFailsOnlyItself) {
  const net::LinkProfile link = test_link();
  Engine engine(4);
  std::vector<std::size_t> refused;
  const GroupRead read =
      run_group_of_three(engine, "frame", link, "", {2}, &refused);
  EXPECT_EQ(refused, std::vector<std::size_t>{1});
  EXPECT_EQ(read.bytes[0], "frame");
  EXPECT_EQ(read.bytes[1], "");
  EXPECT_EQ(read.bytes[2], "frame");
  EXPECT_EQ(read.timing[0].landed, read.timing[2].landed);
  EXPECT_EQ(engine.air_frames(), 1);
  EXPECT_EQ(engine.messages_delivered(), 2);

  // A group every member refuses sends nothing and charges no airtime.
  Engine idle(4);
  run_group_of_three(idle, "frame", link, "", {1, 2, 3}, &refused);
  EXPECT_EQ(refused, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(idle.air_frames(), 0);
  EXPECT_EQ(idle.air_bytes(), 0);
  EXPECT_EQ(idle.messages_delivered(), 0);
}

TEST(DesGroupFrame, GroupOfOneIsAUnicast) {
  // The same exchange — request, reply, a second request queued behind
  // the first on the medium — once over Channel::send and once over
  // a DesGroup's group send with a group of one: same digest, same clocks,
  // same traffic, and on a unicast run air bytes are delivered bytes.
  struct Run {
    std::uint64_t digest = 0;
    double t0 = 0.0;
    double t1 = 0.0;
    std::int64_t delivered = 0;
    std::int64_t air = 0;
  };
  auto run = [](bool group) {
    Engine engine(2);
    auto [master, worker] = sim::des::make_des_pair(engine, 0, 1, test_link());
    std::thread serve([&, w = worker.get()] {
      for (int i = 0; i < 2; ++i) w->send("re:" + w->recv());
      engine.retire(1);
    });
    net::Channel* legs[] = {master.get()};
    sim::des::DesGroup send(legs);
    for (const char* request : {"first", "second"}) {
      if (group) {
        EXPECT_TRUE(send(legs, request).empty());
      } else {
        master->send(request);
      }
    }
    EXPECT_EQ(master->recv(), "re:first");
    EXPECT_EQ(master->recv(), "re:second");
    engine.retire(0);
    serve.join();
    return Run{engine.schedule_digest(), engine.node_time(0),
               engine.node_time(1), engine.bytes_delivered(),
               engine.air_bytes()};
  };
  const Run unicast = run(false);
  const Run group = run(true);
  EXPECT_EQ(group.digest, unicast.digest);
  EXPECT_EQ(group.t0, unicast.t0);
  EXPECT_EQ(group.t1, unicast.t1);
  EXPECT_EQ(group.delivered, unicast.delivered);
  EXPECT_EQ(unicast.air, unicast.delivered);
  EXPECT_EQ(group.air, group.delivered);
}

// ---- Group frames over fault-wrapped links ----------------------------------

/// What a master (node 0) dispatching `frames` to workers 1..n through
/// FaultyChannels saw, and what each worker read.
struct FaultyDispatch {
  std::vector<std::string> schedules;                ///< per link
  std::vector<std::vector<std::size_t>> closed;      ///< per frame
  std::vector<std::vector<std::string>> received;    ///< per worker, in order
  std::vector<std::vector<net::WireTiming>> timing;  ///< per worker, in order
  std::int64_t air_frames = 0;
  std::int64_t air_bytes = 0;
  std::int64_t delivered = 0;
};

/// Dispatches every frame to every link — one FaultyChannel::send per
/// link in order (unicast), or one net::with_faults group send (group) —
/// with worker i's link faulted by `profiles[i]`. Workers read until their
/// link closes.
FaultyDispatch run_faulty_dispatch(
    const std::vector<net::FaultProfile>& profiles,
    const std::vector<std::string>& frames, bool group) {
  const auto n = profiles.size();
  Engine engine(static_cast<int>(n) + 1);
  FaultyDispatch out;
  out.received.resize(n);
  out.timing.resize(n);
  std::vector<std::unique_ptr<net::FaultyChannel>> links;
  std::vector<net::Channel*> members;
  std::vector<net::Channel*> legs;  ///< the DES channels under the faults
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < n; ++w) {
    const int node = static_cast<int>(w) + 1;
    auto [master_end, worker_end] =
        sim::des::make_des_pair(engine, 0, node, test_link());
    links.push_back(std::make_unique<net::FaultyChannel>(
        std::move(master_end), profiles[w]));
    members.push_back(links.back().get());
    legs.push_back(&links.back()->inner());
    workers.emplace_back([&, w, node, end = std::move(worker_end)] {
      try {
        for (;;) {
          out.received[w].push_back(end->recv());
          out.timing[w].push_back(*end->last_recv_timing());
        }
      } catch (const NetworkError&) {
        // The master closed the link.
      }
      engine.retire(node);
    });
  }
  const net::GroupSend send = net::with_faults(sim::des::DesGroup(legs));
  for (const std::string& frame : frames) {
    std::vector<std::size_t> closed;
    if (group) {
      closed = send(members, frame);
    } else {
      for (std::size_t w = 0; w < n; ++w) {
        try {
          members[w]->send(frame);
        } catch (const NetworkError&) {
          closed.push_back(w);
        }
      }
    }
    out.closed.push_back(closed);
  }
  for (auto& link : links) {
    out.schedules.push_back(link->fault_schedule());
    link->close();
  }
  engine.retire(0);
  for (auto& t : workers) t.join();
  out.air_frames = engine.air_frames();
  out.air_bytes = engine.air_bytes();
  out.delivered = engine.messages_delivered();
  return out;
}

/// Distinct, equally sized Infer-like frames.
std::vector<std::string> scripted_frames(int count) {
  std::vector<std::string> frames;
  for (int i = 0; i < count; ++i) {
    frames.push_back("infer#" + std::to_string(100 + i) + std::string(40, 'x'));
  }
  return frames;
}

net::FaultProfile clean_profile(std::uint64_t seed) {
  net::FaultProfile p;
  p.seed = seed;
  return p;
}

TEST(FaultyGroupSend, EveryLinkDrawsItsUnicastSchedule) {
  // Drops, delays, corruption and duplicates all on: each link's fault
  // schedule — and what its worker reads, byte for byte and in order — is
  // the same whether the master sends unicasts or group frames.
  std::vector<net::FaultProfile> profiles;
  for (std::uint64_t seed : {11, 12, 13}) {
    net::FaultProfile p = clean_profile(seed);
    p.drop_prob = 0.25;
    p.delay_prob = 0.25;
    p.delay_min_s = 0.001;
    p.delay_max_s = 0.003;
    p.corrupt_prob = 0.25;
    p.duplicate_prob = 0.25;
    profiles.push_back(p);
  }
  const auto frames = scripted_frames(24);
  const FaultyDispatch unicast = run_faulty_dispatch(profiles, frames, false);
  const FaultyDispatch group = run_faulty_dispatch(profiles, frames, true);
  for (std::size_t w = 0; w < profiles.size(); ++w) {
    EXPECT_FALSE(unicast.schedules[w].empty()) << "link " << w;
    EXPECT_EQ(group.schedules[w], unicast.schedules[w]) << "link " << w;
    EXPECT_EQ(group.received[w], unicast.received[w]) << "worker " << w;
  }
  EXPECT_EQ(group.closed, unicast.closed);
  EXPECT_EQ(group.delivered, unicast.delivered);
  // Whatever survived clean on two or more links went out once.
  EXPECT_LT(group.air_frames, unicast.air_frames);
  EXPECT_LT(group.air_bytes, unicast.air_bytes);
}

TEST(FaultyGroupSend, CleanMembersShareOneFrameOthersGetTheirOwn) {
  // Five links: two clean, one duplicating, one corrupting, one delaying.
  // The clean and duplicated members share one group frame; the duplicate
  // adds one unicast copy, and the corrupted and delayed members each get
  // their own unicast.
  std::vector<net::FaultProfile> profiles(5);
  for (std::size_t w = 0; w < profiles.size(); ++w) {
    profiles[w] = clean_profile(20 + w);
  }
  profiles[2].duplicate_prob = 1.0;
  profiles[3].corrupt_prob = 1.0;
  profiles[4].delay_prob = 1.0;
  profiles[4].delay_min_s = 0.5;
  profiles[4].delay_max_s = 0.5;
  const std::string frame = scripted_frames(1)[0];
  const FaultyDispatch group = run_faulty_dispatch(profiles, {frame}, true);
  const auto size = static_cast<std::int64_t>(frame.size());
  EXPECT_EQ(group.closed, std::vector<std::vector<std::size_t>>{{}});
  EXPECT_EQ(group.air_frames, 4);  // shared, duplicate, corrupt, delay
  EXPECT_EQ(group.air_bytes, 4 * size);
  EXPECT_EQ(group.delivered, 6);
  // The sharers read the same frame at the same instant.
  for (std::size_t w : {0, 1, 2}) {
    EXPECT_EQ(group.received[w][0], frame) << "worker " << w;
    EXPECT_EQ(group.timing[w][0].on_air, 0.0) << "worker " << w;
    EXPECT_EQ(group.timing[w][0].landed, group.timing[0][0].landed);
  }
  EXPECT_EQ(group.received[0].size(), 1u);
  EXPECT_EQ(group.received[2], (std::vector<std::string>{frame, frame}));
  // The corrupted member reads its own bytes: one flipped bit.
  ASSERT_EQ(group.received[3].size(), 1u);
  EXPECT_NE(group.received[3][0], frame);
  EXPECT_EQ(group.received[3][0].size(), frame.size());
  // The delayed member's frame went on the air after its hold.
  ASSERT_EQ(group.received[4].size(), 1u);
  EXPECT_EQ(group.received[4][0], frame);
  EXPECT_GE(group.timing[4][0].on_air, 0.5);

  // Unicast puts every copy on the air: 2 + 2 + 1 + 1.
  const FaultyDispatch unicast = run_faulty_dispatch(profiles, {frame}, false);
  EXPECT_EQ(unicast.air_frames, 6);
  EXPECT_EQ(unicast.delivered, group.delivered);
}

TEST(FaultyGroupSend, EveryMemberLostPutsNothingOnTheAir) {
  std::vector<net::FaultProfile> profiles;
  for (std::uint64_t seed : {31, 32, 33}) {
    net::FaultProfile p = clean_profile(seed);
    p.drop_prob = 1.0;
    profiles.push_back(p);
  }
  const FaultyDispatch group =
      run_faulty_dispatch(profiles, scripted_frames(3), true);
  // Every member was asked (the sender cannot know its frame was lost)...
  for (const auto& closed : group.closed) EXPECT_TRUE(closed.empty());
  // ...and nothing was sent.
  EXPECT_EQ(group.air_frames, 0);
  EXPECT_EQ(group.air_bytes, 0);
  EXPECT_EQ(group.delivered, 0);
  for (const auto& schedule : group.schedules) {
    EXPECT_EQ(schedule, "tx#1 drop\ntx#2 drop\ntx#3 drop\n");
  }
}

TEST(FaultyGroupSend, CrashedMemberFailsAlone) {
  // Worker 1's link dies after one message: from the second frame on it
  // comes back closed, while workers 0 and 2 still share every frame.
  std::vector<net::FaultProfile> profiles = {
      clean_profile(41), clean_profile(42), clean_profile(43)};
  profiles[1].crash_after_messages = 1;
  const auto frames = scripted_frames(3);
  const FaultyDispatch group = run_faulty_dispatch(profiles, frames, true);
  EXPECT_EQ(group.closed, (std::vector<std::vector<std::size_t>>{
                              {}, {1}, {1}}));
  EXPECT_EQ(group.received[0], frames);
  EXPECT_EQ(group.received[1], std::vector<std::string>{frames[0]});
  EXPECT_EQ(group.received[2], frames);
  EXPECT_EQ(group.air_frames, 3);
  EXPECT_EQ(group.schedules[1], "tx#2 crash\n");
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

TEST(DesGroupFrame, MasterGroupDispatchFailsOnlyTheClosedWorker) {
  // A multicast fleet's master sends each Infer as one group frame. With
  // worker 2's link closed, the frame still reaches workers 1 and 3:
  // worker 2 alone is failed, and the query degrades to a quorum whose
  // answer is the arg-min over the experts that answered.
  const auto experts = make_experts(4);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  sim::Fleet fleet("group-dispatch", fast_config(),
                   {.experts = ptrs, .num_queries = 1, .multicast = true});
  net::CollaborativeMaster master(*ptrs[0], fleet.worker_channels());
  fleet.attach(master);
  fleet.worker_channels()[1]->close();
  const Tensor x = sim::query_row_tensor(test, 5);
  const auto res = master.infer(x);
  EXPECT_EQ(master.failed_workers(), 1);
  EXPECT_FALSE(master.worker_alive(1));
  EXPECT_EQ(res.answered, 3);
  EXPECT_EQ(res.degradation, net::DegradationLevel::quorum);
  EXPECT_EQ(res.predictions[0], reference_prediction(ptrs, {0, 1, 3}, x));
  // Two Infers and two Results were read; one Infer went on the air.
  EXPECT_EQ(fleet.net().messages_delivered(), 4);
  EXPECT_LT(fleet.net().air_bytes(), fleet.net().bytes_delivered());
  fleet.finish(master);
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

TEST(DesReference, MulticastResilienceUnderDropsMatchesReference) {
  // The resilience driver's default dispatch — one group frame per query,
  // each receiver rolling its own faults — under 20% drops with quorum and
  // hedging: every query is accounted for, every full gather answers what
  // the in-process reference answers, and on a medium with airtime the
  // mean latency beats the unicast dispatch's.
  const auto experts = make_experts(4);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  sim::ScenarioConfig cfg;
  cfg.num_queries = 40;
  cfg.link = net::LinkProfile{0.0005, 2e6, 0.001};
  sim::ResilienceConfig res;
  res.faults.seed = 42;
  res.faults.drop_prob = 0.2;
  res.faults.duplicate_prob = 0.05;
  res.worker_timeout_s = 0.05;
  res.quorum = 3;
  res.hedging = true;
  ASSERT_TRUE(res.multicast);  // the default
  const auto multicast = sim::run_teamnet_resilience(ptrs, test, cfg, res);
  res.multicast = false;
  const auto unicast = sim::run_teamnet_resilience(ptrs, test, cfg, res);

  EXPECT_EQ(multicast.full_gathers + multicast.quorum_gathers +
                multicast.local_only_gathers,
            cfg.num_queries);
  EXPECT_GT(multicast.faults_injected, 0);
  const auto rows = sim::sample_query_rows(test, cfg.num_queries, cfg.seed);
  ASSERT_EQ(multicast.degradation.size(), rows.size());
  int full = 0;
  for (std::size_t q = 0; q < rows.size(); ++q) {
    if (multicast.degradation[q] != 0) continue;
    ++full;
    EXPECT_EQ(multicast.correct[q] != 0,
              reference_correct(ptrs, all_nodes(4), test, rows[q]))
        << "query " << q;
  }
  EXPECT_GT(full, 0);
  EXPECT_LT(multicast.scenario.latency_ms, unicast.scenario.latency_ms);
  EXPECT_LT(multicast.air_bytes_per_query, unicast.air_bytes_per_query);
}

}  // namespace
}  // namespace teamnet
