// Cross-module integration tests: the full train -> serialize -> deploy ->
// serve-over-TCP pipeline, weight shipping through the wire format, the
// MoE and MPI paths running over simulated meshes, and end-to-end failure
// injection (malformed frames, protocol violations).
#include <gtest/gtest.h>

#include <thread>

#include "core/teamnet.hpp"
#include "data/blobs.hpp"
#include "moe/moe_serving.hpp"
#include "mpi/partitioned.hpp"
#include "net/collab.hpp"
#include "net/tcp.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "sim/scenario.hpp"

namespace teamnet {
namespace {

nn::MlpConfig blob_mlp() {
  nn::MlpConfig cfg;
  cfg.in_features = 8;
  cfg.num_classes = 4;
  cfg.depth = 3;
  cfg.hidden = 16;
  return cfg;
}

data::Dataset blobs(std::uint64_t seed = 21) {
  data::BlobsConfig cfg;
  cfg.num_samples = 500;
  cfg.num_classes = 4;
  cfg.dims = 8;
  cfg.seed = seed;
  return data::make_blobs(cfg);
}

TEST(Pipeline, TrainShipDeployServeOverTcp) {
  // 1. Train a 2-expert team centrally.
  auto train = blobs();
  core::TeamNetConfig cfg;
  cfg.num_experts = 2;
  cfg.epochs = 5;
  cfg.batch_size = 32;
  core::TeamNetTrainer trainer(cfg, [](int, Rng& rng) -> nn::ModulePtr {
    return std::make_unique<nn::MlpNet>(blob_mlp(), rng);
  });
  core::TeamNetEnsemble ensemble = trainer.train(train);
  auto expected = ensemble.infer(train.images);

  // 2. Ship expert 1's weights over the wire format (MsgType::Weights) to a
  //    fresh "edge device" that builds the architecture locally.
  net::Message deploy;
  deploy.type = net::MsgType::Weights;
  {
    std::string blob = nn::serialize_parameters(ensemble.expert(1));
    // Weights travel as a raw tensor of bytes (float-packed).
    Tensor packed({static_cast<std::int64_t>(blob.size())});
    for (std::size_t i = 0; i < blob.size(); ++i) {
      packed[static_cast<std::int64_t>(i)] =
          static_cast<float>(static_cast<unsigned char>(blob[i]));
    }
    deploy.tensors = {std::move(packed)};
  }
  const std::string wire = deploy.encode();
  net::Message received = net::Message::decode(wire);
  ASSERT_EQ(received.type, net::MsgType::Weights);
  std::string blob(static_cast<std::size_t>(received.tensors[0].numel()), '\0');
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<char>(
        static_cast<unsigned char>(received.tensors[0][static_cast<std::int64_t>(i)]));
  }
  Rng edge_rng(123);
  nn::MlpNet edge_expert(blob_mlp(), edge_rng);
  nn::deserialize_parameters(blob, edge_expert);
  edge_expert.set_training(false);

  // 3. Serve it over real TCP and verify the distributed answers match the
  //    centralized ensemble exactly.
  net::TcpListener listener(0);
  std::thread worker_thread([&] {
    auto channel = net::tcp_connect("127.0.0.1", listener.port());
    net::CollaborativeWorker worker(edge_expert, *channel);
    worker.serve();
  });
  auto channel = listener.accept();
  net::CollaborativeMaster master(ensemble.expert(0), {channel.get()});
  auto actual = master.infer(train.images);
  master.shutdown();
  worker_thread.join();

  EXPECT_EQ(actual.predictions, expected.predictions);
  EXPECT_EQ(actual.chosen, expected.chosen);
}

TEST(Pipeline, ScenarioLatencyIsDeterministic) {
  auto train = blobs();
  core::TeamNetConfig cfg;
  cfg.num_experts = 2;
  cfg.epochs = 3;
  core::TeamNetTrainer trainer(cfg, [](int, Rng& rng) -> nn::ModulePtr {
    return std::make_unique<nn::MlpNet>(blob_mlp(), rng);
  });
  core::TeamNetEnsemble ensemble = trainer.train(train);
  std::vector<nn::Module*> experts = {&ensemble.expert(0),
                                      &ensemble.expert(1)};
  sim::ScenarioConfig scenario;
  scenario.num_queries = 8;
  auto a = sim::run_teamnet(experts, train, scenario);
  auto b = sim::run_teamnet(experts, train, scenario);
  EXPECT_DOUBLE_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.bytes_per_query, b.bytes_per_query);
}

TEST(Pipeline, WorkerSkipsProtocolViolationAndKeepsServing) {
  Rng rng(3);
  nn::MlpNet m(blob_mlp(), rng), w(blob_mlp(), rng);
  auto [master_ch, worker_ch] = net::make_inproc_pair();
  net::CollaborativeWorker worker(w, *worker_ch);

  // A Result message arriving at a worker is a protocol violation; a
  // fault-tolerant worker drops it and keeps serving — one bad frame (a
  // chaos injection, a confused peer) must not take the node down.
  net::Message bogus;
  bogus.type = net::MsgType::Result;
  master_ch->send(bogus.encode());

  std::thread t([&worker] { worker.serve(); });
  net::CollaborativeMaster master(m, {master_ch.get()});
  auto ds = blobs();
  auto result = master.infer(ds.images.reshape({ds.size(), -1}));
  EXPECT_EQ(result.predictions.size(), static_cast<std::size_t>(ds.size()));
  master.shutdown();
  t.join();
  EXPECT_EQ(worker.requests_served(), 1);
}

TEST(Pipeline, MalformedFrameIsSkippedNotFatal) {
  Rng rng(4);
  nn::MlpNet m(blob_mlp(), rng), w(blob_mlp(), rng);
  auto [master_ch, worker_ch] = net::make_inproc_pair();
  net::CollaborativeWorker worker(w, *worker_ch);
  master_ch->send("garbage that is not a message");

  std::thread t([&worker] { worker.serve(); });
  net::CollaborativeMaster master(m, {master_ch.get()});
  auto ds = blobs();
  auto result = master.infer(ds.images.reshape({ds.size(), -1}));
  EXPECT_EQ(result.predictions.size(), static_cast<std::size_t>(ds.size()));
  master.shutdown();
  t.join();
  EXPECT_EQ(worker.requests_served(), 1);
}

TEST(Pipeline, MasterSurvivesManySequentialQueries) {
  Rng rng(5);
  nn::MlpNet m(blob_mlp(), rng), w(blob_mlp(), rng);
  auto [a, b] = net::make_inproc_pair();
  net::CollaborativeWorker worker(w, *b);
  std::thread t([&worker] { worker.serve(); });
  net::CollaborativeMaster master(m, {a.get()});

  auto ds = blobs(99);
  for (int q = 0; q < 64; ++q) {
    Tensor x = ds.images.reshape({ds.size(), -1});
    Tensor query({1, x.dim(1)});
    const std::int64_t row = q % ds.size();
    std::copy(x.data() + row * x.dim(1), x.data() + (row + 1) * x.dim(1),
              query.data());
    auto result = master.infer(query);
    ASSERT_EQ(result.predictions.size(), 1u);
  }
  master.shutdown();
  t.join();
  EXPECT_EQ(worker.requests_served(), 64);
}

TEST(Pipeline, MoeServingOverTcp) {
  auto train = blobs();
  moe::SgMoeConfig cfg;
  cfg.num_experts = 2;
  cfg.epochs = 3;
  moe::SgMoe model(cfg, 8, [](int, Rng& rng) -> nn::ModulePtr {
    return std::make_unique<nn::MlpNet>(blob_mlp(), rng);
  });
  model.train(train);
  auto expected = model.infer(train.images);

  net::TcpListener listener(0);
  std::thread worker_thread([&] {
    auto channel = net::tcp_connect("127.0.0.1", listener.port());
    net::CollaborativeWorker worker(model.expert(1), *channel);
    worker.serve();
  });
  auto channel = listener.accept();
  moe::MoeMaster master(model, {channel.get()});
  auto actual = master.infer(train.images);
  master.shutdown();
  worker_thread.join();

  EXPECT_EQ(actual.predictions, expected.predictions);
  EXPECT_EQ(actual.routed, expected.routed);
}

TEST(Pipeline, CheckpointRoundTripPreservesEnsembleBehaviour) {
  auto train = blobs();
  core::TeamNetConfig cfg;
  cfg.num_experts = 2;
  cfg.epochs = 4;
  core::TeamNetTrainer trainer(cfg, [](int, Rng& rng) -> nn::ModulePtr {
    return std::make_unique<nn::MlpNet>(blob_mlp(), rng);
  });
  core::TeamNetEnsemble ensemble = trainer.train(train);
  auto before = ensemble.infer(train.images);

  const std::string dir = ::testing::TempDir();
  for (int i = 0; i < 2; ++i) {
    nn::save_module(dir + "/expert" + std::to_string(i) + ".tnet",
                    ensemble.expert(i));
  }
  std::vector<nn::ModulePtr> restored;
  for (int i = 0; i < 2; ++i) {
    auto expert = std::make_unique<nn::MlpNet>(blob_mlp());
    nn::load_module(dir + "/expert" + std::to_string(i) + ".tnet", *expert);
    restored.push_back(std::move(expert));
  }
  core::TeamNetEnsemble reloaded(std::move(restored));
  auto after = reloaded.infer(train.images);
  EXPECT_EQ(before.predictions, after.predictions);
  EXPECT_EQ(before.chosen, after.chosen);
}

}  // namespace
}  // namespace teamnet
