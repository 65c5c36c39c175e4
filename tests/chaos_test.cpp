// Chaos suite (ctest label: chaos): seeded fault injection end to end.
//
// Covers the FaultyChannel decorator in isolation (schedule determinism,
// crash-after-N, duplication, corruption, partition control), the
// protocol-level regressions the query-id/deadline/probation machinery
// exists for (stale replies, shared gather deadline, rejoin), and full
// chaos-run determinism (run_teamnet_resilience with the SLO machinery
// off): the same seed must reproduce the same fault schedule AND the same
// ScenarioResult.
//
// CI runs this binary under ASan+UBSan and TSan across several values of
// TEAMNET_CHAOS_SEED; tests read the env var so each leg exercises a
// different (still deterministic) fault schedule.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
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

/// Base seed for every chaos schedule in this binary. CI sweeps it.
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

nn::MlpConfig blob_mlp() {
  nn::MlpConfig cfg;
  cfg.in_features = 8;
  cfg.num_classes = 4;
  cfg.depth = 2;
  cfg.hidden = 12;
  return cfg;
}

data::Dataset blobs() {
  data::BlobsConfig cfg;
  cfg.num_samples = 200;
  cfg.num_classes = 4;
  cfg.dims = 8;
  cfg.seed = 21;
  return data::make_blobs(cfg);
}

/// Latency-only link: zero airtime, so every message costs exactly one
/// propagation latency and the medium never queues.
net::LinkProfile latency_only_link() { return net::LinkProfile{0.0005, 0.0, 0.0}; }

// ---- FaultyChannel in isolation --------------------------------------------

/// An in-process endpoint whose sleep() returns at once, so a delay fault
/// costs no wall time.
class NoSleepChannel final : public net::Channel {
 public:
  explicit NoSleepChannel(net::ChannelPtr inner) : inner_(std::move(inner)) {}
  void send(std::string bytes) override { inner_->send(std::move(bytes)); }
  std::string recv() override { return inner_->recv(); }
  std::optional<std::string> recv_timeout(double seconds) override {
    return inner_->recv_timeout(seconds);
  }
  void sleep(double /*seconds*/) override {}

 private:
  net::ChannelPtr inner_;
};

TEST(FaultyChannel, SameSeedSameScheduleAndDeliveries) {
  net::FaultProfile profile;
  profile.seed = chaos_seed();
  profile.drop_prob = 0.4;
  profile.corrupt_prob = 0.2;
  profile.duplicate_prob = 0.2;
  profile.delay_prob = 0.2;
  profile.delay_min_s = 0.001;
  profile.delay_max_s = 0.002;

  auto run_once = [&] {
    auto [a, b] = net::make_inproc_pair();
    net::FaultyChannel faulty(std::make_unique<NoSleepChannel>(std::move(a)),
                              profile);
    for (int i = 0; i < 32; ++i) faulty.send("message " + std::to_string(i));
    std::vector<std::string> delivered;
    while (auto bytes = b->recv_timeout(0.0)) delivered.push_back(*bytes);
    return std::make_pair(faulty.fault_schedule(), delivered);
  };

  auto [schedule1, delivered1] = run_once();
  auto [schedule2, delivered2] = run_once();
  EXPECT_FALSE(schedule1.empty());
  EXPECT_EQ(schedule1, schedule2);
  EXPECT_EQ(delivered1, delivered2);
  EXPECT_LT(delivered1.size(), 32u + 7u);  // sanity: some messages dropped
}

/// One fixed seed's whole tx+rx schedule, pinned to its bytes: every draw
/// of the fault step (partition, drop, delay, corruption, duplication)
/// must stay in its place, in both directions.
TEST(FaultyChannel, ScheduleIsPinnedForOneSeed) {
  net::FaultProfile profile;
  profile.seed = 2;
  profile.drop_prob = 0.2;
  profile.corrupt_prob = 0.2;
  profile.duplicate_prob = 0.2;
  profile.delay_prob = 0.3;
  profile.delay_min_s = 0.0001;
  profile.delay_max_s = 0.0002;
  auto [a, b] = net::make_inproc_pair();
  net::FaultyChannel faulty(std::move(a), profile);
  std::vector<std::string> delivered;
  for (int i = 0; i < 12; ++i) {
    if (i == 9) faulty.set_partition(true, true);
    if (i == 10) faulty.set_partition(false, false);
    faulty.send("request " + std::to_string(i));
    b->send("reply " + std::to_string(i));
    while (auto bytes = faulty.recv_timeout(0.0)) delivered.push_back(*bytes);
  }
  EXPECT_EQ(faulty.fault_schedule(),
            "rx#1 corrupt @1 ^0x01\n"
            "rx#1 dup\n"
            "rx#2 drop\n"
            "tx#3 delay 0.000200\n"
            "rx#3 corrupt @0 ^0x08\n"
            "tx#4 dup\n"
            "rx#4 corrupt @2 ^0x04\n"
            "tx#6 drop\n"
            "tx#7 dup\n"
            "rx#7 corrupt @1 ^0x20\n"
            "rx#7 dup\n"
            "tx#8 corrupt @4 ^0x02\n"
            "tx#9 delay 0.000135\n"
            "rx#9 drop\n"
            "ctl partition send=1 recv=1\n"
            "tx#10 partition-drop\n"
            "rx#10 partition-drop\n"
            "ctl partition send=0 recv=0\n"
            "tx#11 drop\n"
            "tx#12 delay 0.000172\n"
            "tx#12 corrupt @3 ^0x80\n");
  EXPECT_EQ(delivered.size(), 11u);
}

/// A delay fault on a fault-wrapped DES leg holds the sending node on its
/// virtual clock: node 0's clock moves by exactly the logged delay, with
/// no clock or delay hook wired in.
TEST(FaultyChannel, DelayAdvancesTheSendersVirtualClock) {
  sim::SimNet net(2, latency_only_link());
  std::thread peer([&net] {
    try {
      net.channel(1, 0).recv();
    } catch (const Error&) {
    }
    net.retire(1);
  });
  net::FaultProfile profile;
  profile.seed = chaos_seed();
  profile.delay_prob = 1.0;
  profile.delay_min_s = 0.001;
  profile.delay_max_s = 0.002;
  net::FaultyChannel link(net.take_channel(0, 1), profile);

  const double t0 = net.node_time(0);
  link.send("held");
  const double held = net.node_time(0) - t0;
  net.retire(0);
  peer.join();

  char logged[64];
  std::snprintf(logged, sizeof(logged), "tx#1 delay %.6f\n", held);
  EXPECT_EQ(link.fault_schedule(), logged);
  EXPECT_GE(held, profile.delay_min_s);
}

TEST(FaultyChannel, CrashAfterNMessagesThenDead) {
  net::FaultProfile profile;
  profile.crash_after_messages = 2;
  auto [a, b] = net::make_inproc_pair();
  net::FaultyChannel faulty(std::move(a), profile);

  faulty.send("one");
  faulty.send("two");
  EXPECT_THROW(faulty.send("three"), NetworkError);
  EXPECT_THROW(faulty.recv(), NetworkError);  // dead for good, all calls
  EXPECT_THROW(faulty.recv_timeout(0.01), NetworkError);
  EXPECT_EQ(b->recv(), "one");
  EXPECT_EQ(b->recv(), "two");
}

TEST(FaultyChannel, DuplicationDeliversTwice) {
  net::FaultProfile profile;
  profile.duplicate_prob = 1.0;
  auto [a, b] = net::make_inproc_pair();
  net::FaultyChannel faulty(std::move(a), profile);

  faulty.send("payload");
  EXPECT_EQ(b->recv(), "payload");
  EXPECT_EQ(b->recv(), "payload");
  EXPECT_EQ(b->recv_timeout(0.0), std::nullopt);
  EXPECT_EQ(faulty.faults_injected(), 1);
}

TEST(FaultyChannel, CorruptionFlipsExactlyOneBit) {
  net::FaultProfile profile;
  profile.seed = chaos_seed();
  profile.corrupt_prob = 1.0;
  auto [a, b] = net::make_inproc_pair();
  net::FaultyChannel faulty(std::move(a), profile);

  const std::string original(64, '\0');
  faulty.send(original);
  const std::string corrupted = b->recv();
  ASSERT_EQ(corrupted.size(), original.size());
  int bits_flipped = 0;
  for (std::size_t i = 0; i < corrupted.size(); ++i) {
    unsigned diff = static_cast<unsigned char>(corrupted[i]) ^
                    static_cast<unsigned char>(original[i]);
    while (diff != 0) {
      bits_flipped += static_cast<int>(diff & 1u);
      diff >>= 1;
    }
  }
  EXPECT_EQ(bits_flipped, 1);
}

TEST(FaultyChannel, PartitionTogglesAtRuntime) {
  auto [a, b] = net::make_inproc_pair();
  net::FaultyChannel faulty(std::move(a), net::FaultProfile{});

  faulty.send("before");
  EXPECT_EQ(b->recv(), "before");

  faulty.set_partition(/*send_lost=*/true, /*recv_lost=*/false);
  faulty.send("lost");
  EXPECT_EQ(b->recv_timeout(0.01), std::nullopt);

  faulty.set_partition(false, false);
  faulty.send("after heal");
  EXPECT_EQ(b->recv(), "after heal");
  EXPECT_NE(faulty.fault_schedule().find("partition-drop"), std::string::npos);
}

// ---- protocol-level regressions --------------------------------------------

/// A duplicated Result for query N must never be consumed as the answer to
/// query N+1. The scripted worker plants a maximally confident duplicate
/// (entropy 0 — it would win the selection if the master trusted it).
TEST(ChaosProtocol, StaleReplyIsDiscardedNotConsumed) {
  Rng rng(11);
  nn::MlpNet master_expert(tiny_mlp(), rng);
  auto [master_ch, worker_ch] = net::make_inproc_pair();

  std::thread worker([&worker_ch = worker_ch] {
    auto reply_uncertain = [&](const net::Message& request) {
      net::Message reply;
      reply.type = net::MsgType::Result;
      reply.ints = request.ints;
      Tensor probs({1, 3});
      probs.fill(1.0f / 3.0f);
      Tensor entropy({1});
      entropy.fill(5.0f);  // very uncertain: the master's expert wins
      reply.tensors = {probs, entropy};
      return reply;
    };

    net::Message q1 = net::Message::decode(worker_ch->recv());
    worker_ch->send(reply_uncertain(q1).encode());
    // The poisoned duplicate: same (now stale) query id, but absolutely
    // certain — consuming it for query 2 would flip the selection.
    net::Message stale;
    stale.type = net::MsgType::Result;
    stale.ints = q1.ints;
    Tensor confident({1, 3});
    confident.fill(0.0f);
    confident[2] = 1.0f;
    Tensor zero_entropy({1});
    zero_entropy.fill(0.0f);
    stale.tensors = {confident, zero_entropy};
    worker_ch->send(stale.encode());

    net::Message q2 = net::Message::decode(worker_ch->recv());
    worker_ch->send(reply_uncertain(q2).encode());
    (void)worker_ch->recv();  // Shutdown
  });

  net::CollaborativeMaster master(master_expert, {master_ch.get()});
  master.set_worker_timeout(2.0);
  Tensor x = Tensor::randn({1, 6}, rng);

  auto first = master.infer(x);
  EXPECT_EQ(first.chosen[0], 0);
  auto second = master.infer(x);
  EXPECT_EQ(second.chosen[0], 0) << "stale confident reply was consumed";
  EXPECT_EQ(master.stale_replies_discarded(), 1);
  master.shutdown();
  worker.join();
}

/// The gather budget is shared: with every worker dead, the master waits
/// ONE deadline of virtual time, not one per worker. Uses a DES mesh (the
/// master reads its channels' virtual clock) and no serving threads.
TEST(ChaosProtocol, GatherDeadlineIsSharedAcrossWorkers) {
  const int k = 4;
  const double timeout_s = 0.05;
  sim::SimNet net(k, latency_only_link());
  // Nodes 1..k-1 serve nothing: each gets a thread that only retires it,
  // at its first turn of the baton, so it never holds the virtual-time
  // floor the master's waits run against.
  std::vector<std::thread> idle;
  for (int i = 1; i < k; ++i) {
    idle.emplace_back([&net, i] { net.retire(i); });
  }

  Rng rng(12);
  nn::MlpNet expert(tiny_mlp(), rng);
  std::vector<net::Channel*> channels;
  for (int i = 1; i < k; ++i) channels.push_back(&net.channel(0, i));
  net::CollaborativeMaster master(expert, channels);
  master.set_worker_timeout(timeout_s);

  Tensor x = Tensor::randn({1, 6}, rng);
  const double t0 = net.node_time(0);
  auto result = master.infer(x);
  const double waited = net.node_time(0) - t0;
  net.retire(0);
  for (auto& t : idle) t.join();

  EXPECT_EQ(master.failed_workers(), k - 1);
  EXPECT_EQ(result.chosen[0], 0);
  // The first worker's timeout consumes the whole budget; the others are
  // polled with a zero remainder. Budget <= wait < 1.5 budgets — nowhere
  // near the (k-1) * budget a per-worker deadline would burn.
  EXPECT_GE(waited, timeout_s * 0.999);
  EXPECT_LT(waited, timeout_s * 1.5);
}

/// Crash -> probation -> Ping/Pong -> rejoin, end to end, with the
/// post-rejoin answers matching a fault-free baseline exactly.
TEST(ChaosProtocol, PartitionedWorkerRejoinsAndMatchesBaseline) {
  Rng rng(13);
  nn::MlpNet master_expert(tiny_mlp(), rng);
  nn::MlpNet worker_expert(tiny_mlp(), rng);
  Tensor x = Tensor::randn({1, 6}, rng);

  // Fault-free baseline for the same pair of experts.
  net::CollaborativeMaster::Result baseline;
  {
    auto [m, w] = net::make_inproc_pair();
    net::CollaborativeWorker worker(worker_expert, *w);
    std::thread t([&worker] { worker.serve(); });
    net::CollaborativeMaster master(master_expert, {m.get()});
    baseline = master.infer(x);
    master.shutdown();
    t.join();
  }

  auto [m_raw, w] = net::make_inproc_pair();
  auto faulty = std::make_unique<net::FaultyChannel>(std::move(m_raw),
                                                     net::FaultProfile{});
  net::FaultyChannel& link = *faulty;
  net::CollaborativeWorker worker(worker_expert, *w);
  std::thread t([&worker] { worker.serve(); });

  net::CollaborativeMaster master(master_expert, {faulty.get()});
  // Spent (once) only while partitioned; generous so a loaded CI box can
  // never time out the HEALTHY worker and skew the baseline comparison.
  master.set_worker_timeout(1.0);
  master.set_probe_interval(1);

  auto healthy = master.infer(x);
  EXPECT_EQ(healthy.predictions, baseline.predictions);

  link.set_partition(true, true);
  master.infer(x);
  EXPECT_EQ(master.failed_workers(), 1);
  EXPECT_FALSE(master.worker_alive(0));

  link.set_partition(false, false);
  // Probation: the master pings on its backoff cadence and the worker's
  // Pong brings it back. Bounded loop — rejoin must happen well within it.
  for (int q = 0; q < 100 && !master.worker_alive(0); ++q) {
    master.infer(x);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(master.worker_alive(0));
  EXPECT_EQ(master.failed_workers(), 0);
  EXPECT_EQ(master.rejoins(), 1);

  auto after = master.infer(x);
  EXPECT_EQ(after.predictions, baseline.predictions);
  EXPECT_EQ(after.chosen, baseline.chosen);

  master.shutdown();
  t.join();
  EXPECT_GE(worker.pongs_sent(), 1);
}

// ---- whole-scenario determinism --------------------------------------------

std::vector<std::unique_ptr<nn::MlpNet>> make_experts(int k) {
  std::vector<std::unique_ptr<nn::MlpNet>> experts;
  for (int i = 0; i < k; ++i) {
    Rng rng(100 + static_cast<std::uint64_t>(i));
    experts.push_back(std::make_unique<nn::MlpNet>(blob_mlp(), rng));
  }
  return experts;
}

std::vector<nn::Module*> expert_ptrs(
    const std::vector<std::unique_ptr<nn::MlpNet>>& experts) {
  std::vector<nn::Module*> ptrs;
  for (const auto& e : experts) ptrs.push_back(e.get());
  return ptrs;
}

/// A chaos run: the resilience scenario with expired-request drops off
/// (quorum 0 and no hedging are already the defaults).
sim::ResilienceConfig chaos_config() {
  sim::ResilienceConfig chaos;
  chaos.drop_expired = false;
  return chaos;
}

/// Duplication-only faults: no drops means no timeouts, and the whole
/// result — schedule, outcomes, accuracy, traffic, latency — must be
/// bit-identical.
TEST(ChaosScenario, SameSeedSameResultUnderDuplication) {
  auto experts = make_experts(3);
  auto test = blobs();
  sim::ScenarioConfig cfg;
  cfg.num_queries = 12;
  cfg.link = latency_only_link();

  sim::ResilienceConfig chaos = chaos_config();
  chaos.faults.seed = chaos_seed();
  chaos.faults.duplicate_prob = 0.3;
  chaos.worker_timeout_s = 5.0;  // no drops: never spent
  chaos.probe_interval = 2;

  auto a = sim::run_teamnet_resilience(expert_ptrs(experts), test, cfg, chaos);
  auto b = sim::run_teamnet_resilience(expert_ptrs(experts), test, cfg, chaos);

  EXPECT_FALSE(a.fault_schedule.empty());
  EXPECT_EQ(a.fault_schedule, b.fault_schedule);
  EXPECT_EQ(a.live_nodes, b.live_nodes);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.stale_replies, b.stale_replies);
  EXPECT_EQ(a.rejoins, b.rejoins);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_DOUBLE_EQ(a.scenario.accuracy_pct, b.scenario.accuracy_pct);
  EXPECT_DOUBLE_EQ(a.scenario.bytes_per_query, b.scenario.bytes_per_query);
  EXPECT_DOUBLE_EQ(a.scenario.messages_per_query,
                   b.scenario.messages_per_query);
  EXPECT_EQ(a.scenario.latency_ms, b.scenario.latency_ms);
}

/// Determinism under drops + corruption + a scripted partition: the fault
/// schedule, every discrete outcome and the latency must reproduce
/// exactly — a timed-out wait charges its full virtual budget.
TEST(ChaosScenario, SameSeedSameScheduleUnderDropsAndPartition) {
  auto experts = make_experts(3);
  auto test = blobs();
  sim::ScenarioConfig cfg;
  cfg.num_queries = 12;
  cfg.link = latency_only_link();

  sim::ResilienceConfig chaos = chaos_config();
  chaos.faults.seed = chaos_seed();
  chaos.faults.drop_prob = 0.25;
  chaos.faults.corrupt_prob = 0.1;
  // A failed worker stays failed here (probation off), so the budget is
  // spent at most once per worker per run.
  chaos.worker_timeout_s = 0.25;
  chaos.probe_interval = 0;
  chaos.partition_worker = 1;
  chaos.partition_from_query = 4;
  chaos.heal_at_query = 8;

  auto a = sim::run_teamnet_resilience(expert_ptrs(experts), test, cfg, chaos);
  auto b = sim::run_teamnet_resilience(expert_ptrs(experts), test, cfg, chaos);

  EXPECT_FALSE(a.fault_schedule.empty());
  EXPECT_EQ(a.fault_schedule, b.fault_schedule);
  EXPECT_EQ(a.live_nodes, b.live_nodes);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.stale_replies, b.stale_replies);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_DOUBLE_EQ(a.scenario.accuracy_pct, b.scenario.accuracy_pct);
  EXPECT_EQ(a.scenario.latency_ms, b.scenario.latency_ms);
}

/// Rejoin inside the simulated scenario: a worker partitioned for a window
/// of queries must be back in the live set by the end of the run.
TEST(ChaosScenario, ScriptedPartitionHealsAndRejoins) {
  auto experts = make_experts(3);
  auto test = blobs();
  sim::ScenarioConfig cfg;
  cfg.num_queries = 20;
  cfg.link = latency_only_link();

  sim::ResilienceConfig chaos = chaos_config();
  chaos.faults.seed = chaos_seed();
  chaos.worker_timeout_s = 0.25;
  chaos.probe_interval = 1;
  chaos.partition_worker = 0;
  chaos.partition_from_query = 4;
  chaos.heal_at_query = 8;

  auto r = sim::run_teamnet_resilience(expert_ptrs(experts), test, cfg, chaos);
  ASSERT_EQ(r.live_nodes.size(), 20u);
  EXPECT_EQ(r.live_nodes[0], 3);          // everyone up initially
  EXPECT_EQ(r.live_nodes[5], 2);          // partitioned worker failed
  EXPECT_GE(r.rejoins, 1);                // ...and came back after the heal
  EXPECT_EQ(r.live_nodes.back(), 3);      // full strength by the end
}

}  // namespace
}  // namespace teamnet
