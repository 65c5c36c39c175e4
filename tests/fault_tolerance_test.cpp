// Failure injection for the collaborative protocol: dead workers, wedged
// workers (timeouts), closed TCP peers — the master must degrade to the
// surviving experts, never hang or crash.
#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "net/collab.hpp"
#include "net/fault.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "nn/mlp.hpp"

namespace teamnet {
namespace {

nn::MlpConfig tiny_mlp() {
  nn::MlpConfig cfg;
  cfg.in_features = 6;
  cfg.num_classes = 3;
  cfg.depth = 2;
  cfg.hidden = 8;
  return cfg;
}

TEST(ChannelTimeout, InprocTimesOutThenDelivers) {
  auto [a, b] = net::make_inproc_pair();
  EXPECT_EQ(a->recv_timeout(0.02), std::nullopt);
  b->send("late");
  auto got = a->recv_timeout(0.5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "late");
}

TEST(ChannelTimeout, TcpTimesOutThenDelivers) {
  net::TcpListener listener(0);
  auto client_fut = std::async(std::launch::async, [&] {
    return net::tcp_connect("127.0.0.1", listener.port());
  });
  auto server = listener.accept();
  auto client = client_fut.get();

  EXPECT_EQ(server->recv_timeout(0.05), std::nullopt);
  client->send("hello");
  auto got = server->recv_timeout(1.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "hello");
}

TEST(FaultTolerance, WedgedWorkerIsTimedOutAndExcluded) {
  Rng rng(1);
  nn::MlpNet master_expert(tiny_mlp(), rng);
  nn::MlpNet live_expert(tiny_mlp(), rng);

  // Worker 1 serves normally; worker 2 never answers (wedged).
  auto [m1, w1] = net::make_inproc_pair();
  auto [m2, w2] = net::make_inproc_pair();
  net::CollaborativeWorker live(live_expert, *w1);
  std::thread live_thread([&live] { live.serve(); });

  net::CollaborativeMaster master(master_expert, {m1.get(), m2.get()});
  master.set_worker_timeout(0.05);

  Tensor x = Tensor::randn({2, 6}, rng);
  auto result = master.infer(x);
  EXPECT_EQ(result.predictions.size(), 2u);
  EXPECT_EQ(master.failed_workers(), 1);
  EXPECT_TRUE(master.worker_alive(0));
  EXPECT_FALSE(master.worker_alive(1));
  // Only nodes 0 (master) and 1 (live worker) can win.
  for (int chosen : result.chosen) EXPECT_NE(chosen, 2);

  // A second query must not wait on the dead worker at all.
  auto again = master.infer(x);
  EXPECT_EQ(again.predictions.size(), 2u);
  EXPECT_EQ(master.failed_workers(), 1);

  master.shutdown();
  live_thread.join();
  // The wedged worker's queue got the first Infer but no Shutdown after
  // being marked failed.
}

TEST(FaultTolerance, ClosedTcpPeerIsMarkedFailedNotFatal) {
  Rng rng(2);
  nn::MlpNet master_expert(tiny_mlp(), rng);
  nn::MlpNet worker_expert(tiny_mlp(), rng);

  net::TcpListener listener(0);
  std::thread worker_thread([&] {
    auto channel = net::tcp_connect("127.0.0.1", listener.port());
    // Serve exactly one request, then drop the connection abruptly.
    net::Message request = net::Message::decode(channel->recv());
    net::Message reply;
    reply.type = net::MsgType::Result;
    reply.ints = request.ints;  // echo the query id or the reply is stale
    Tensor probs({request.tensors[0].dim(0), 3});
    probs.fill(1.0f / 3.0f);
    Tensor entropy({request.tensors[0].dim(0)});
    entropy.fill(5.0f);  // very uncertain — master should win selection
    reply.tensors = {probs, entropy};
    channel->send(reply.encode());
    // channel destructor closes the socket here
  });
  auto channel = listener.accept();

  net::CollaborativeMaster master(master_expert, {channel.get()});
  master.set_worker_timeout(1.0);
  Tensor x = Tensor::randn({1, 6}, rng);

  auto first = master.infer(x);
  EXPECT_EQ(master.failed_workers(), 0);
  worker_thread.join();

  // Peer is gone now: the next query must degrade to master-only.
  auto second = master.infer(x);
  EXPECT_EQ(second.predictions.size(), 1u);
  EXPECT_EQ(second.chosen[0], 0);
  EXPECT_EQ(master.failed_workers(), 1);
  master.shutdown();  // must not throw with a dead worker
}

TEST(FaultTolerance, AllWorkersDeadStillAnswers) {
  Rng rng(3);
  nn::MlpNet master_expert(tiny_mlp(), rng);
  auto [m1, w1] = net::make_inproc_pair();
  auto [m2, w2] = net::make_inproc_pair();

  net::CollaborativeMaster master(master_expert, {m1.get(), m2.get()});
  master.set_worker_timeout(0.02);
  Tensor x = Tensor::randn({3, 6}, rng);
  auto result = master.infer(x);
  EXPECT_EQ(master.failed_workers(), 2);
  for (int chosen : result.chosen) EXPECT_EQ(chosen, 0);
  EXPECT_EQ(result.predictions.size(), 3u);
}

TEST(FaultTolerance, ChosenIndexStillNamesGlobalNode) {
  // With worker 1 (index 0) dead, a win by the second worker must still be
  // reported as node 2, not renumbered.
  Rng rng(4);
  nn::MlpNet master_expert(tiny_mlp(), rng);
  nn::MlpNet confident(tiny_mlp(), rng);
  // Make the surviving worker extremely confident so it always wins.
  for (auto& p : confident.parameters()) {
    for (auto& v : p.mutable_value().values()) v *= 20.0f;
  }

  auto [m1, w1] = net::make_inproc_pair();
  auto [m2, w2] = net::make_inproc_pair();
  net::CollaborativeWorker worker(confident, *w2);
  std::thread worker_thread([&worker] { worker.serve(); });

  net::CollaborativeMaster master(master_expert, {m1.get(), m2.get()});
  master.set_worker_timeout(0.05);
  Tensor x = Tensor::full({1, 6}, 1.0f);
  auto result = master.infer(x);
  EXPECT_FALSE(master.worker_alive(0));
  EXPECT_TRUE(master.worker_alive(1));
  EXPECT_EQ(result.chosen[0], 2) << "global node index must be preserved";
  master.shutdown();
  worker_thread.join();
}

TEST(FaultTolerance, WorkerAliveBoundsChecked) {
  Rng rng(5);
  nn::MlpNet master_expert(tiny_mlp(), rng);
  auto [m1, w1] = net::make_inproc_pair();
  net::CollaborativeMaster master(master_expert, {m1.get()});

  EXPECT_TRUE(master.worker_alive(0));
  EXPECT_THROW(master.worker_alive(-1), InvariantError);
  EXPECT_THROW(master.worker_alive(1), InvariantError);
}

TEST(FaultTolerance, ShutdownClosesChannelsSoWorkerThreadsJoin) {
  Rng rng(6);
  nn::MlpNet master_expert(tiny_mlp(), rng);
  nn::MlpNet live_expert(tiny_mlp(), rng);
  nn::MlpNet mute_expert(tiny_mlp(), rng);

  auto [m1, w1] = net::make_inproc_pair();
  auto [m2_raw, w2] = net::make_inproc_pair();
  // The master is deaf to worker 2: its replies vanish, so it gets marked
  // failed while its serving thread keeps blocking on the next request.
  net::FaultProfile deaf;
  deaf.partition_recv = true;
  auto m2 = net::make_faulty_channel(std::move(m2_raw), deaf);

  net::CollaborativeWorker live(live_expert, *w1);
  net::CollaborativeWorker mute(mute_expert, *w2);
  std::thread live_thread([&live] { live.serve(); });
  std::thread mute_thread([&mute] {
    try {
      mute.serve();
    } catch (const NetworkError&) {
      // expected: the master closes the channel on shutdown
    }
  });

  net::CollaborativeMaster master(master_expert, {m1.get(), m2.get()});
  // Only the mute worker spends this; roomy enough that a loaded CI box
  // cannot time out the live one too.
  master.set_worker_timeout(0.5);
  Tensor x = Tensor::randn({2, 6}, rng);
  auto result = master.infer(x);
  EXPECT_EQ(result.predictions.size(), 2u);
  EXPECT_EQ(master.failed_workers(), 1);
  EXPECT_FALSE(master.worker_alive(1));

  // Shutdown must close EVERY worker channel — the failed one included —
  // or the mute worker's thread would block in recv forever (this join
  // hangs the test on regression).
  master.shutdown();
  live_thread.join();
  mute_thread.join();
  EXPECT_EQ(mute.requests_served(), 1);
}

/// A well-framed Result for the current query that does not cover the rows
/// and classes asked is malformed: the worker is failed and the query
/// answers from the remaining experts instead of reading out of bounds.
TEST(FaultTolerance, WrongShapedResultIsRejected) {
  struct Bad {
    Shape probs;
    Shape entropy;
  };
  // The query asks 2 rows of 3 classes.
  const std::vector<Bad> cases = {{{1, 3}, {1}},      // too few rows
                                  {{2, 2}, {2}},      // too few classes
                                  {{2, 3}, {1}},      // short entropy
                                  {{6}, {2}},         // flat probs
                                  {{2, 3}, {2, 1}}};  // 2-D entropy
  for (const Bad& bad : cases) {
    Rng rng(7);
    nn::MlpNet master_expert(tiny_mlp(), rng);
    nn::MlpNet live_expert(tiny_mlp(), rng);
    auto [m1, w1] = net::make_inproc_pair();
    auto [m2, w2] = net::make_inproc_pair();
    net::CollaborativeWorker live(live_expert, *w1);
    std::thread live_thread([&live] { live.serve(); });
    std::thread fake_thread([&w2 = w2, &bad] {
      net::Message request = net::Message::decode(w2->recv());
      net::Message reply;
      reply.type = net::MsgType::Result;
      reply.ints = request.ints;  // the current query id
      Tensor probs(bad.probs);
      probs.fill(1.0f / 3.0f);
      // Entropy 0: accepted, this reply would win every row.
      reply.tensors = {probs, Tensor(bad.entropy)};
      w2->send(reply.encode());
      try {
        (void)w2->recv();
      } catch (const NetworkError&) {
        // expected: the failed worker's channel is closed on shutdown
      }
    });

    net::CollaborativeMaster master(master_expert, {m1.get(), m2.get()});
    master.set_worker_timeout(2.0);
    auto result = master.infer(Tensor::randn({2, 6}, rng));
    EXPECT_EQ(result.answered, 2);
    EXPECT_EQ(result.degradation, net::DegradationLevel::quorum);
    for (int chosen : result.chosen) EXPECT_NE(chosen, 2);
    EXPECT_FALSE(master.worker_alive(1));
    EXPECT_TRUE(master.worker_alive(0));
    master.shutdown();
    live_thread.join();
    fake_thread.join();
  }
}

TEST(FaultTolerance, EmptyBatchIsRejected) {
  Rng rng(8);
  nn::MlpNet master_expert(tiny_mlp(), rng);
  auto [m1, w1] = net::make_inproc_pair();
  net::CollaborativeMaster master(master_expert, {m1.get()});
  master.set_compute_hook([](std::int64_t) {});
  EXPECT_THROW(master.infer(Tensor({0, 6})), InvariantError);
  EXPECT_THROW(master.infer(Tensor({6})), InvariantError);
}

}  // namespace
}  // namespace teamnet
