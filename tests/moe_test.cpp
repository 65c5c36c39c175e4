// SG-MoE baseline tests: routing ops gradients, noisy top-k behaviour,
// load balancing, joint training, and distributed serving equivalence.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "data/blobs.hpp"
#include "moe/moe_ops.hpp"
#include "moe/moe_serving.hpp"
#include "moe/sg_moe.hpp"
#include "net/collab.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "nn/mlp.hpp"

namespace teamnet {
namespace {

moe::ExpertFactory blob_expert_factory(std::int64_t dims, int classes) {
  return [dims, classes](int /*index*/, Rng& rng) -> nn::ModulePtr {
    nn::MlpConfig cfg;
    cfg.in_features = dims;
    cfg.num_classes = classes;
    cfg.depth = 2;
    cfg.hidden = 16;
    return std::make_unique<nn::MlpNet>(cfg, rng);
  };
}

TEST(MoeOps, GatherRowsForwardAndGrad) {
  ag::Var src(Tensor({3, 2}, {0, 1, 2, 3, 4, 5}), true);
  ag::Var out = moe::gather_rows(src, {2, 0});
  EXPECT_TRUE(out.value().allclose(Tensor({2, 2}, {4, 5, 0, 1})));
  ag::backward(ag::sum_all(out));
  EXPECT_TRUE(src.grad().allclose(Tensor({3, 2}, {1, 1, 0, 0, 1, 1})));
}

TEST(MoeOps, ScatterAddRowsForwardAndGrad) {
  ag::Var src(Tensor({2, 2}, {1, 2, 3, 4}), true);
  ag::Var out = moe::scatter_add_rows(src, {1, 1}, 3);
  EXPECT_TRUE(out.value().allclose(Tensor({3, 2}, {0, 0, 4, 6, 0, 0})));
  ag::backward(ag::sum_all(ag::mul(out, out)));
  // d/dsrc of sum(out^2): both source rows land on row 1 -> grad 2*out[1].
  EXPECT_TRUE(src.grad().allclose(Tensor({2, 2}, {8, 12, 8, 12})));
}

TEST(MoeOps, GatherElementsForwardAndGrad) {
  ag::Var m(Tensor({2, 3}, {0, 1, 2, 3, 4, 5}), true);
  ag::Var out = moe::gather_elements(m, {0, 1, 1}, {2, 0, 0});
  EXPECT_TRUE(out.value().allclose(Tensor({3, 1}, {2, 3, 3})));
  ag::backward(ag::sum_all(out));
  EXPECT_TRUE(m.grad().allclose(Tensor({2, 3}, {0, 0, 1, 2, 0, 0})));
}

TEST(SgMoe, ConfigValidation) {
  moe::SgMoeConfig cfg;
  cfg.num_experts = 1;
  EXPECT_THROW(moe::SgMoe(cfg, 8, blob_expert_factory(8, 4)), InvariantError);
  cfg.num_experts = 2;
  cfg.top_k = 3;
  EXPECT_THROW(moe::SgMoe(cfg, 8, blob_expert_factory(8, 4)), InvariantError);
}

TEST(SgMoe, TrainsToReasonableAccuracyOnBlobs) {
  data::BlobsConfig bc;
  bc.num_samples = 600;
  auto ds = data::make_blobs(bc);
  moe::SgMoeConfig cfg;
  cfg.num_experts = 2;
  cfg.epochs = 8;
  cfg.sgd.lr = 0.05f;
  moe::SgMoe model(cfg, bc.dims, blob_expert_factory(bc.dims, 4));
  model.train(ds);
  EXPECT_GT(model.evaluate_accuracy(ds), 0.8);
  // Loss should broadly decrease.
  const auto& losses = model.loss_history();
  ASSERT_EQ(losses.size(), 8u);
  EXPECT_LT(losses.back(), losses.front());
}

TEST(SgMoe, LoadBalancingSpreadsRouting) {
  data::BlobsConfig bc;
  bc.num_samples = 600;
  auto ds = data::make_blobs(bc);
  moe::SgMoeConfig cfg;
  cfg.num_experts = 4;
  cfg.epochs = 6;
  cfg.load_balance_weight = 0.2f;
  moe::SgMoe model(cfg, bc.dims, blob_expert_factory(bc.dims, 4));
  model.train(ds);
  auto routed = model.route(ds.images);
  std::vector<int> counts(4, 0);
  for (int r : routed) ++counts[static_cast<std::size_t>(r)];
  int active = 0;
  for (int c : counts) active += (c > 0);
  EXPECT_GE(active, 2) << "load balancing should keep several experts in use";
}

TEST(SgMoe, RoutingIsDeterministicAtInference) {
  data::BlobsConfig bc;
  bc.num_samples = 200;
  auto ds = data::make_blobs(bc);
  moe::SgMoeConfig cfg;
  cfg.num_experts = 2;
  cfg.epochs = 2;
  moe::SgMoe model(cfg, bc.dims, blob_expert_factory(bc.dims, 4));
  model.train(ds);
  EXPECT_EQ(model.route(ds.images), model.route(ds.images));
}

TEST(SgMoe, InferenceUsesExactlyOneExpertPerSample) {
  data::BlobsConfig bc;
  bc.num_samples = 100;
  auto ds = data::make_blobs(bc);
  moe::SgMoeConfig cfg;
  cfg.num_experts = 3;
  cfg.epochs = 2;
  moe::SgMoe model(cfg, bc.dims, blob_expert_factory(bc.dims, 4));
  model.train(ds);
  auto inf = model.infer(ds.images);
  ASSERT_EQ(inf.routed.size(), 100u);
  for (int r : inf.routed) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 3);
  }
  // probs rows are valid distributions
  for (std::int64_t i = 0; i < inf.probs.dim(0); ++i) {
    float sum = 0.0f;
    for (std::int64_t c = 0; c < inf.probs.dim(1); ++c) {
      sum += inf.probs[i * inf.probs.dim(1) + c];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST(MoeServing, DistributedMatchesLocalInference) {
  data::BlobsConfig bc;
  bc.num_samples = 300;
  auto ds = data::make_blobs(bc);
  moe::SgMoeConfig cfg;
  cfg.num_experts = 3;
  cfg.epochs = 3;
  moe::SgMoe model(cfg, bc.dims, blob_expert_factory(bc.dims, 4));
  model.train(ds);
  auto expected = model.infer(ds.images);

  // Two workers serve experts 1 and 2; expert 0 stays on the master.
  auto [m1, w1] = net::make_inproc_pair();
  auto [m2, w2] = net::make_inproc_pair();
  net::CollaborativeWorker worker1(model.expert(1), *w1);
  net::CollaborativeWorker worker2(model.expert(2), *w2);
  std::thread t1([&worker1] { worker1.serve(); });
  std::thread t2([&worker2] { worker2.serve(); });

  moe::MoeMaster master(model, {m1.get(), m2.get()});
  auto actual = master.infer(ds.images);
  master.shutdown();
  t1.join();
  t2.join();

  EXPECT_EQ(actual.routed, expected.routed);
  EXPECT_EQ(actual.predictions, expected.predictions);
  EXPECT_TRUE(actual.probs.allclose(expected.probs, 1e-5f));
}

TEST(MoeServing, RejectsWrongWorkerCount) {
  moe::SgMoeConfig cfg;
  cfg.num_experts = 3;
  moe::SgMoe model(cfg, 8, blob_expert_factory(8, 4));
  auto [a, b] = net::make_inproc_pair();
  EXPECT_THROW(moe::MoeMaster(model, {a.get()}), InvariantError);
}

// ---- strict serving contract ------------------------------------------------

/// A two-expert model whose gate sends every row to expert 1 — the remote
/// worker — so each query is exactly one request on the scripted channel.
std::unique_ptr<moe::SgMoe> remote_routed_moe() {
  moe::SgMoeConfig cfg;
  cfg.num_experts = 2;
  auto model =
      std::make_unique<moe::SgMoe>(cfg, 8, blob_expert_factory(8, 4));
  model->gate().weight().mutable_value().fill(0.0f);
  Tensor& bias = model->gate().bias().mutable_value();
  bias[0] = -100.0f;
  bias[1] = 100.0f;
  return model;
}

/// A Result echoing `qid` whose rows are all confident in class `cls`.
std::string result_frame(std::int64_t qid, std::int64_t rows, int cls) {
  net::Message reply;
  reply.type = net::MsgType::Result;
  reply.ints = {qid};
  Tensor probs({rows, 4});
  for (std::int64_t r = 0; r < rows; ++r) probs[r * 4 + cls] = 1.0f;
  reply.tensors = {probs, Tensor({rows})};
  return reply.encode();
}

TEST(MoeServing, SkipsStaleResultAndDuplicatePong) {
  auto model = remote_routed_moe();
  auto [master_ch, worker_ch] = net::make_inproc_pair();
  std::thread worker([&worker_ch = worker_ch] {
    net::Message request = net::Message::decode(worker_ch->recv());
    const std::int64_t qid = net::infer_info(request).qid;
    const std::int64_t rows = request.tensors[0].dim(0);
    // An older query's Result (it would answer class 0) and a duplicate
    // probe answer arrive ahead of the current reply (class 2).
    worker_ch->send(result_frame(qid - 1, rows, 0));
    net::Message pong;
    pong.type = net::MsgType::Pong;
    pong.ints = {1};
    worker_ch->send(pong.encode());
    worker_ch->send(result_frame(qid, rows, 2));
    (void)worker_ch->recv();  // Shutdown
  });

  moe::MoeMaster master(*model, {master_ch.get()});
  master.set_worker_timeout(2.0);
  auto result = master.infer(Tensor::full({3, 8}, 1.0f));
  master.shutdown();
  worker.join();
  EXPECT_EQ(result.routed, std::vector<int>(3, 1));
  EXPECT_EQ(result.predictions, std::vector<int>(3, 2));
}

TEST(MoeServing, ReplyPastTheDeadlineThrows) {
  auto model = remote_routed_moe();
  auto [master_ch, worker_ch] = net::make_inproc_pair();
  std::thread worker([&worker_ch = worker_ch] {
    net::Message request = net::Message::decode(worker_ch->recv());
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    try {
      worker_ch->send(result_frame(net::infer_info(request).qid,
                                   request.tensors[0].dim(0), 2));
      (void)worker_ch->recv();  // Shutdown
    } catch (const NetworkError&) {
      // the master may already have shut the channel
    }
  });

  moe::MoeMaster master(*model, {master_ch.get()});
  master.set_worker_timeout(0.05);
  EXPECT_THROW(master.infer(Tensor::full({1, 8}, 1.0f)), NetworkError);
  master.shutdown();
  worker.join();
}

TEST(MoeServing, WrongShapedResultThrows) {
  auto model = remote_routed_moe();
  auto [master_ch, worker_ch] = net::make_inproc_pair();
  std::thread worker([&worker_ch = worker_ch] {
    net::Message request = net::Message::decode(worker_ch->recv());
    // One row short of the two asked.
    worker_ch->send(result_frame(net::infer_info(request).qid, 1, 2));
    (void)worker_ch->recv();  // Shutdown
  });

  moe::MoeMaster master(*model, {master_ch.get()});
  master.set_worker_timeout(2.0);
  EXPECT_THROW(master.infer(Tensor::full({2, 8}, 1.0f)), NetworkError);
  master.shutdown();
  worker.join();
}

TEST(MoeServing, EmptyBatchIsRejected) {
  auto model = remote_routed_moe();
  auto [master_ch, worker_ch] = net::make_inproc_pair();
  moe::MoeMaster master(*model, {master_ch.get()});
  master.set_compute_hook([](std::int64_t) {});
  EXPECT_THROW(master.infer(Tensor({0, 8})), InvariantError);
}

}  // namespace
}  // namespace teamnet
