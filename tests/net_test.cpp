// Transport / protocol tests: framing, in-proc channels, real TCP over
// loopback, and the Figure-1 collaborative protocol (including equivalence
// with the in-process TeamNetEnsemble). The simulated link math lives with
// the engine that owns it, in des_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/teamnet.hpp"
#include "data/blobs.hpp"
#include "net/collab.hpp"
#include "net/message.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "nn/mlp.hpp"

namespace teamnet {
namespace {

TEST(Message, EncodeDecodeRoundTrip) {
  Rng rng(1);
  net::Message msg;
  msg.type = net::MsgType::Infer;
  msg.ints = {42, -7};
  msg.tensors = {Tensor::randn({2, 3}, rng), Tensor::randn({4}, rng)};
  const std::string bytes = msg.encode();
  EXPECT_EQ(static_cast<std::int64_t>(bytes.size()), msg.encoded_size());

  net::Message back = net::Message::decode(bytes);
  EXPECT_EQ(back.type, net::MsgType::Infer);
  EXPECT_EQ(back.ints, msg.ints);
  ASSERT_EQ(back.tensors.size(), 2u);
  EXPECT_TRUE(back.tensors[0].allclose(msg.tensors[0]));
  EXPECT_TRUE(back.tensors[1].allclose(msg.tensors[1]));
}

TEST(Message, DecodeRejectsTruncated) {
  net::Message msg;
  msg.tensors = {Tensor::ones({8})};
  std::string bytes = msg.encode();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(net::Message::decode(bytes), SerializationError);
}

TEST(InProc, PairDeliversBothDirections) {
  auto [a, b] = net::make_inproc_pair();
  a->send("hello");
  b->send("world");
  EXPECT_EQ(b->recv(), "hello");
  EXPECT_EQ(a->recv(), "world");
}

TEST(InProc, PreservesOrderAcrossThreads) {
  auto [a, b] = net::make_inproc_pair();
  std::thread producer([&a] {
    for (int i = 0; i < 100; ++i) a->send(std::to_string(i));
  });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(b->recv(), std::to_string(i));
  producer.join();
}

TEST(Tcp, LoopbackRoundTrip) {
  net::TcpListener listener(0);
  std::thread client([&] {
    auto ch = net::tcp_connect("127.0.0.1", listener.port());
    ch->send("ping");
    EXPECT_EQ(ch->recv(), "pong");
  });
  auto server = listener.accept();
  EXPECT_EQ(server->recv(), "ping");
  server->send("pong");
  client.join();
}

TEST(Tcp, LargeMessageSurvivesFraming) {
  net::TcpListener listener(0);
  const std::string big(1 << 20, 'x');
  std::thread client([&] {
    auto ch = net::tcp_connect("127.0.0.1", listener.port());
    ch->send(big);
  });
  auto server = listener.accept();
  EXPECT_EQ(server->recv(), big);
  client.join();
}

/// recv_timeout(0) on an empty channel is a poll: the gather's zero-budget
/// drain must not sleep a scheduler tick per silent worker. A positive
/// budget still waits for all of it.
TEST(Tcp, ZeroBudgetRecvDoesNotBlock) {
  net::TcpListener listener(0);
  auto client = net::tcp_connect("127.0.0.1", listener.port());
  auto server = listener.accept();
  using Clock = std::chrono::steady_clock;
  auto fastest = Clock::duration::max();
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    EXPECT_FALSE(server->recv_timeout(0.0).has_value());
    fastest = std::min(fastest, Clock::now() - t0);
  }
  EXPECT_LT(fastest, std::chrono::milliseconds(1));

  const auto t0 = Clock::now();
  EXPECT_FALSE(server->recv_timeout(0.020).has_value());
  EXPECT_GE(Clock::now() - t0, std::chrono::milliseconds(20));

  // A frame that is already there comes back at once, whole.
  client->send("ping");
  EXPECT_EQ(server->recv_timeout(1.0).value_or(""), "ping");
  client->send("");
  EXPECT_EQ(server->recv_timeout(1.0).value_or("missing"), "");
}

TEST(Tcp, ConnectToDeadPortFails) {
  EXPECT_THROW(net::tcp_connect("127.0.0.1", 1), NetworkError);
}

/// Two blobs experts trained via TeamNet, then served over the collaborative
/// protocol — results must match in-process ensemble inference bit-for-bit.
TEST(Collab, ProtocolMatchesEnsemble) {
  data::BlobsConfig bc;
  bc.num_samples = 400;
  auto ds = data::make_blobs(bc);

  core::TeamNetConfig cfg;
  cfg.num_experts = 2;
  cfg.epochs = 4;
  cfg.batch_size = 32;
  core::TeamNetTrainer trainer(cfg, [&](int, Rng& rng) -> nn::ModulePtr {
    nn::MlpConfig mc;
    mc.in_features = bc.dims;
    mc.num_classes = static_cast<int>(bc.num_classes);
    mc.depth = 2;
    mc.hidden = 16;
    return std::make_unique<nn::MlpNet>(mc, rng);
  });
  auto ensemble = trainer.train(ds);
  auto expected = ensemble.infer(ds.images);

  auto [master_ch, worker_ch] = net::make_inproc_pair();
  net::CollaborativeWorker worker(ensemble.expert(1), *worker_ch);
  std::thread worker_thread([&worker] { worker.serve(); });

  net::CollaborativeMaster master(ensemble.expert(0), {master_ch.get()});
  auto actual = master.infer(ds.images);
  master.shutdown();
  worker_thread.join();

  EXPECT_EQ(actual.predictions, expected.predictions);
  EXPECT_EQ(actual.chosen, expected.chosen);
  EXPECT_TRUE(actual.probs.allclose(expected.probs, 1e-6f));
  EXPECT_EQ(worker.requests_served(), 1);
}

TEST(Collab, WorksOverRealTcp) {
  Rng rng(31);
  nn::MlpConfig mc;
  mc.in_features = 8;
  mc.num_classes = 4;
  mc.depth = 2;
  mc.hidden = 8;
  nn::MlpNet master_expert(mc, rng), worker_expert(mc, rng);

  net::TcpListener listener(0);
  std::thread worker_thread([&] {
    auto channel = net::tcp_connect("127.0.0.1", listener.port());
    net::CollaborativeWorker worker(worker_expert, *channel);
    worker.serve();
  });
  auto worker_channel = listener.accept();

  net::CollaborativeMaster master(master_expert, {worker_channel.get()});
  Tensor x = Tensor::randn({5, 8}, rng);
  auto result = master.infer(x);
  EXPECT_EQ(result.predictions.size(), 5u);
  for (int chosen : result.chosen) {
    EXPECT_GE(chosen, 0);
    EXPECT_LE(chosen, 1);
  }
  master.shutdown();
  worker_thread.join();
}

TEST(Collab, ComputeHooksFire) {
  Rng rng(33);
  nn::MlpConfig mc;
  mc.in_features = 8;
  mc.num_classes = 4;
  mc.depth = 2;
  mc.hidden = 8;
  nn::MlpNet m(mc, rng), w(mc, rng);
  auto [a, b] = net::make_inproc_pair();

  std::int64_t worker_flops = 0;
  net::CollaborativeWorker worker(w, *b);
  worker.set_compute_hook([&](std::int64_t f) { worker_flops += f; });
  std::thread t([&worker] { worker.serve(); });

  std::int64_t master_flops = 0;
  net::CollaborativeMaster master(m, {a.get()});
  master.set_compute_hook([&](std::int64_t f) { master_flops += f; });
  master.infer(Tensor::randn({3, 8}, rng));
  master.shutdown();
  t.join();

  const std::int64_t expected = m.analyze({8}).flops * 3;
  EXPECT_EQ(master_flops, expected);
  EXPECT_EQ(worker_flops, expected);
}


// ---- per-qid routing (pipelined serving) ------------------------------------

/// A worker's Result for query `qid`: one row whose entropy is `entropy`
/// and whose probabilities put all mass on class `label`.
std::string result_frame(std::int64_t qid, int label, float entropy) {
  net::Message reply;
  reply.type = net::MsgType::Result;
  reply.ints = {qid};
  Tensor probs({1, 4});
  probs[label] = 1.0f;
  Tensor h({1});
  h[0] = entropy;
  reply.tensors = {probs, h};
  return reply.encode();
}

TEST(MasterCore, RoutesEachReplyToTheQueryItNames) {
  nn::MlpConfig mc;
  mc.in_features = 8;
  mc.num_classes = 4;
  mc.depth = 2;
  mc.hidden = 8;
  Rng rng(3);
  nn::MlpNet local(mc, rng);
  auto [m0, w0] = net::make_inproc_pair();
  auto [m1, w1] = net::make_inproc_pair();
  net::CollaborativeMaster master(local, {m0.get(), m1.get()});

  const std::int64_t q1 = master.submit(Tensor::randn({1, 8}, rng));
  const std::int64_t q2 = master.submit(Tensor::randn({1, 8}, rng));
  ASSERT_NE(q1, q2);
  // Both Infer frames reached both workers, each carrying its own id.
  for (net::Channel* worker : {w0.get(), w1.get()}) {
    EXPECT_EQ(net::infer_info(net::Message::decode(worker->recv())).qid, q1);
    EXPECT_EQ(net::infer_info(net::Message::decode(worker->recv())).qid, q2);
  }

  // Worker 1 answers q2 first, then q1: read after q2 was dispatched, the
  // q1 reply still answers q1.
  EXPECT_EQ(master.deliver(0, result_frame(q2, 2, 0.0f)), 0);
  EXPECT_EQ(master.deliver(0, result_frame(q1, 1, 0.0f)), 0);
  EXPECT_EQ(master.deliver(1, result_frame(q1, 3, -1.0f)), q1);
  const auto r1 = master.complete(q1);
  EXPECT_EQ(r1.answered, 3);
  EXPECT_EQ(r1.degradation, net::DegradationLevel::full);
  EXPECT_EQ(r1.chosen, std::vector<int>{2});  // lowest entropy: worker 2
  EXPECT_EQ(r1.predictions, std::vector<int>{3});
  EXPECT_EQ(master.stale_replies_discarded(), 0);

  // A reply for a completed query and one for an id never issued are stale.
  EXPECT_EQ(master.deliver(1, result_frame(q1, 3, -1.0f)), 0);
  EXPECT_EQ(master.deliver(1, result_frame(q2 + 40, 3, -1.0f)), 0);
  EXPECT_EQ(master.stale_replies_discarded(), 2);

  // q2 completes on its own answers; ties on entropy go to the lowest node.
  EXPECT_EQ(master.deliver(1, result_frame(q2, 0, 0.0f)), q2);
  const auto r2 = master.complete(q2);
  EXPECT_EQ(r2.answered, 3);
  EXPECT_EQ(r2.chosen, std::vector<int>{1});
  EXPECT_EQ(r2.predictions, std::vector<int>{2});
}

}  // namespace
}  // namespace teamnet
