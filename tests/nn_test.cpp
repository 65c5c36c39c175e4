// Layer/model/optimizer/serialization tests for the nn module.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "common/fork_join.hpp"
#include "common/rng.hpp"
#include "nn/batchnorm.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optim.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "nn/shake_shake.hpp"
#include "tensor/ops.hpp"

namespace teamnet {
namespace {

TEST(Linear, ForwardShapeAndBias) {
  Rng rng(1);
  nn::Linear layer(3, 2, &rng);
  layer.bias().mutable_value()[0] = 10.0f;
  Tensor x({2, 3}, {1, 0, 0, 0, 1, 0});
  Tensor y = layer.predict(x);
  EXPECT_EQ(y.shape(), (Shape{2, 2}));
  EXPECT_NEAR(y.at(0, 0), layer.weight().value().at(0, 0) + 10.0f, 1e-5f);
}

TEST(Linear, AnalyzeReportsFlops) {
  Rng rng(2);
  nn::Linear layer(784, 64, &rng);
  auto analysis = layer.analyze({784});
  EXPECT_EQ(analysis.output_shape, (Shape{64}));
  EXPECT_EQ(analysis.flops, 2 * 784 * 64);
  EXPECT_THROW(layer.analyze({100}), InvariantError);
}

TEST(Conv2d, MatchesDirectConvolution) {
  Rng rng(3);
  nn::Conv2d conv(1, 1, 3, 1, 1, &rng);
  // Identity-ish check: set kernel to a delta -> output equals input.
  conv.weight().mutable_value().fill(0.0f);
  conv.weight().mutable_value()[4] = 1.0f;  // center tap of the 3x3 kernel
  Tensor x = Tensor::randn({1, 1, 5, 5}, rng);
  Tensor y = conv.predict(x);
  EXPECT_TRUE(y.allclose(x, 1e-5f));
}

TEST(Conv2d, StrideHalvesSpatialDims) {
  Rng rng(4);
  nn::Conv2d conv(3, 8, 3, 2, 1, &rng);
  auto analysis = conv.analyze({3, 16, 16});
  EXPECT_EQ(analysis.output_shape, (Shape{8, 8, 8}));
  Tensor y = conv.predict(Tensor::randn({2, 3, 16, 16}, rng));
  EXPECT_EQ(y.shape(), (Shape{2, 8, 8, 8}));
}

TEST(BatchNorm, NormalizesBatchStatistics) {
  Rng rng(5);
  nn::BatchNorm bn(4);
  bn.set_training(true);
  Tensor x = Tensor::randn({64, 4}, rng, 3.0f, 2.0f);
  Tensor y = bn.predict(x);
  // Per-feature mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (std::int64_t c = 0; c < 4; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::int64_t i = 0; i < 64; ++i) mean += y[i * 4 + c];
    mean /= 64.0;
    for (std::int64_t i = 0; i < 64; ++i) {
      var += (y[i * 4 + c] - mean) * (y[i * 4 + c] - mean);
    }
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  Rng rng(6);
  nn::BatchNorm bn(2);
  bn.set_training(true);
  for (int i = 0; i < 50; ++i) {
    bn.predict(Tensor::randn({32, 2}, rng, 5.0f, 1.0f));
  }
  EXPECT_NEAR(bn.running_mean()[0], 5.0f, 0.5f);
  bn.set_training(false);
  // A shifted eval batch should NOT be re-centred to zero mean.
  Tensor y = bn.predict(Tensor::full({8, 2}, 5.0f));
  for (float v : y.values()) EXPECT_NEAR(v, 0.0f, 0.5f);
  Tensor y2 = bn.predict(Tensor::full({8, 2}, 9.0f));
  for (float v : y2.values()) EXPECT_GT(v, 2.0f);
}

TEST(BatchNorm, GradCheckThroughCustomNode) {
  Rng rng(7);
  nn::BatchNorm bn(3);
  bn.set_training(true);
  Tensor x = Tensor::randn({8, 3}, rng);
  ag::Var input(x.clone(), true);
  ag::Var out = ag::sum_all(ag::square(bn.forward(input)));
  ag::backward(out);
  ASSERT_TRUE(input.has_grad());

  // Finite differences through a fresh forward (same batch stats since the
  // batch is the input itself).
  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < 6; ++i) {
    Tensor plus = x.clone();
    plus[i] += eps;
    Tensor minus = x.clone();
    minus[i] -= eps;
    nn::BatchNorm bn2(3);  // fresh running stats, same gamma/beta defaults
    bn2.set_training(true);
    const float fp = ops::sum_all(ops::square(bn2.predict(plus)));
    const float fm = ops::sum_all(ops::square(bn2.predict(minus)));
    EXPECT_NEAR(input.grad()[i], (fp - fm) / (2 * eps), 0.05f) << "elem " << i;
  }
}

TEST(Mlp, DepthCountsLinearLayers) {
  Rng rng(8);
  nn::MlpConfig cfg;
  cfg.depth = 4;
  nn::MlpNet mlp(cfg, rng);
  EXPECT_EQ(mlp.linear_layers().size(), 4u);
  EXPECT_EQ(mlp.name(), "MLP-4");
  auto analysis = mlp.analyze({cfg.in_features});
  EXPECT_EQ(analysis.output_shape, (Shape{10}));
  EXPECT_GT(analysis.flops, 0);
}

TEST(Mlp, DeeperMlpHasMoreFlops) {
  Rng rng(9);
  nn::MlpConfig c2, c4, c8;
  c2.depth = 2;
  c4.depth = 4;
  c8.depth = 8;
  nn::MlpNet m2(c2, rng), m4(c4, rng), m8(c8, rng);
  const auto f2 = m2.analyze({784}).flops;
  const auto f4 = m4.analyze({784}).flops;
  const auto f8 = m8.analyze({784}).flops;
  EXPECT_LT(f2, f4);
  EXPECT_LT(f4, f8);
}

TEST(ShakeShake, DepthMapsToBlocks) {
  EXPECT_EQ(nn::ShakeShakeNet::blocks_for_depth(8), 3);
  EXPECT_EQ(nn::ShakeShakeNet::blocks_for_depth(14), 6);
  EXPECT_EQ(nn::ShakeShakeNet::blocks_for_depth(26), 12);
  EXPECT_THROW(nn::ShakeShakeNet::blocks_for_depth(7), InvariantError);
}

TEST(ShakeShake, ForwardShapeAndFlopOrdering) {
  Rng rng(10);
  nn::ShakeShakeConfig c8, c26;
  c8.depth = 8;
  c26.depth = 26;
  nn::ShakeShakeNet ss8(c8, rng), ss26(c26, rng);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  ss8.set_training(false);
  Tensor y = ss8.predict(x);
  EXPECT_EQ(y.shape(), (Shape{2, 10}));
  EXPECT_LT(ss8.analyze({3, 16, 16}).flops, ss26.analyze({3, 16, 16}).flops);
}

TEST(ShakeShake, EvalIsDeterministicTrainingIsStochastic) {
  Rng rng(11);
  nn::ShakeShakeConfig cfg;
  cfg.depth = 8;
  nn::ShakeShakeNet net(cfg, rng);
  Tensor x = Tensor::randn({1, 3, 16, 16}, rng);
  net.set_training(false);
  Tensor a = net.predict(x);
  Tensor b = net.predict(x);
  EXPECT_TRUE(a.allclose(b));
  net.set_training(true);
  Tensor c = net.forward(ag::constant(x)).value();
  Tensor d = net.forward(ag::constant(x)).value();
  EXPECT_FALSE(c.allclose(d, 1e-7f)) << "shake mixing should differ per pass";
}

/// Bitwise float equality, so -0 vs +0 and NaN payloads count as different.
void expect_bit_identical(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "element " << i << ": " << got[i] << " vs " << want[i];
  }
}

/// Eval BatchNorm through predict against its per-element formula, bit for
/// bit: a 3 x 3 plane leaves a scalar tail after two vectors, and a
/// [N, F] input makes every plane a single element.
TEST(BatchNorm, EvalPredictMatchesPerElementFormula) {
  Rng rng(8);
  const std::int64_t channels = 5;
  nn::BatchNorm bn(channels);
  for (Tensor* buffer : bn.buffers()) {
    for (float& v : buffer->values()) v = rng.uniform(0.5f, 2.0f);
  }
  for (ag::Var& p : bn.parameters()) {
    for (float& v : p.mutable_value().values()) v = rng.normal(0.0f, 1.0f);
  }
  bn.set_training(false);
  const Tensor& mean = *bn.buffers()[0];
  const Tensor& var = *bn.buffers()[1];
  const Tensor& gamma = bn.parameters()[0].value();
  const Tensor& beta = bn.parameters()[1].value();
  for (const Shape& shape : {Shape{2, channels, 3, 3}, Shape{3, channels, 4, 4},
                             Shape{7, channels}}) {
    SCOPED_TRACE(shape_to_string(shape));
    const Tensor x = Tensor::randn(shape, rng);
    const std::int64_t plane = shape.size() == 4 ? shape[2] * shape[3] : 1;
    Tensor want(shape);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      const std::int64_t c = (i / plane) % channels;
      const float is = 1.0f / std::sqrt(var[c] + 1e-5f);
      want[i] = gamma[c] * ((x[i] - mean[c]) * is) + beta[c];
    }
    expect_bit_identical(bn.predict(x), want);
  }
}

/// The tcp_cnn_k2 expert: SS-14 with 6 base channels on 16x16 RGB.
nn::ShakeShakeConfig ss14_c6() {
  nn::ShakeShakeConfig cfg;
  cfg.depth = 14;
  cfg.base_channels = 6;
  cfg.image_size = 16;
  return cfg;
}

/// Gives a model non-trivial state: a few training-mode passes move every
/// batch-norm running statistic off its 0/1 start, and every parameter is
/// shifted, so gamma = 1 and beta = 0 cannot hide a reordered BatchNorm
/// expression.
void perturb_state(nn::Module& model, const Shape& batch, Rng& rng) {
  model.set_training(true);
  for (int i = 0; i < 3; ++i) model.predict(Tensor::randn(batch, rng));
  for (ag::Var& p : model.parameters()) {
    for (float& v : p.mutable_value().values()) v += rng.uniform(-0.1f, 0.1f);
  }
  model.set_training(false);
}

TEST(Predict, BitIdenticalToForwardOnConstant) {
  Rng rng(31);
  nn::ShakeShakeNet ss14(ss14_c6(), rng);
  perturb_state(ss14, {4, 3, 16, 16}, rng);
  nn::MlpConfig mlp_cfg;
  mlp_cfg.depth = 2;
  mlp_cfg.hidden = 128;
  nn::MlpNet mlp2(mlp_cfg, rng);
  perturb_state(mlp2, {4, 784}, rng);
  for (std::int64_t batch : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "batch=" << batch);
    Tensor image = Tensor::randn({batch, 3, 16, 16}, rng);
    const Tensor logits = ss14.predict(image);
    expect_bit_identical(logits, ss14.forward(ag::constant(image)).value());
    if (batch > 1) {
      // The input reaches the logits (not only the head's bias).
      EXPECT_NE(logits[0], logits[10]);
    }
    Tensor digits = Tensor::randn({batch, 784}, rng);
    expect_bit_identical(mlp2.predict(digits),
                         mlp2.forward(ag::constant(digits)).value());
  }

  // Three experts serving at once, as a master and its in-process workers
  // do: every block forks, the callers contend for the helpers, and each
  // logit still equals the graph-building forward's.
  constexpr int kExperts = 3;
  constexpr int kRounds = 20;
  std::vector<std::unique_ptr<nn::ShakeShakeNet>> experts;
  std::vector<Tensor> images, want;
  for (int e = 0; e < kExperts; ++e) {
    experts.push_back(std::make_unique<nn::ShakeShakeNet>(ss14_c6(), rng));
    perturb_state(*experts.back(), {4, 3, 16, 16}, rng);
    images.push_back(Tensor::randn({1 + e, 3, 16, 16}, rng));
    want.push_back(
        experts.back()->forward(ag::constant(images.back())).value());
  }
  std::vector<std::vector<Tensor>> got(kExperts);
  std::vector<std::thread> callers;
  for (int e = 0; e < kExperts; ++e) {
    callers.emplace_back([&, e] {
      for (int r = 0; r < kRounds; ++r) {
        got[e].push_back(experts[e]->predict(images[e]));
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int e = 0; e < kExperts; ++e) {
    for (int r = 0; r < kRounds; ++r) {
      SCOPED_TRACE(testing::Message() << "expert " << e << " round " << r);
      expect_bit_identical(got[e][r], want[e]);
    }
  }
}

TEST(Predict, WrongShapeThrowsThroughTheFork) {
  Rng rng(37);
  nn::ShakeShakeNet ss14(ss14_c6(), rng);
  ss14.set_training(false);
  ASSERT_TRUE(ag::grad_enabled());
  EXPECT_THROW(ss14.predict(Tensor({1, 4, 16, 16})), InvariantError);
  EXPECT_THROW(ss14.predict(Tensor({3, 16, 16})), InvariantError);
  EXPECT_TRUE(ag::grad_enabled()) << "a throwing predict left grad mode off";

  // A block handed the wrong channel count throws in both branches, the
  // forked one included, and the join rethrows the caller's.
  nn::ShakeBlock& block = ss14.block(3);  // 6 -> 12 channels, stride 2
  const Tensor x = Tensor::randn({1, 6, 16, 16}, rng);
  const Tensor good = block.forward(ag::constant(x)).value();
  {
    ag::NoGradGuard no_grad;
    EXPECT_THROW(block.forward(ag::constant(Tensor({1, 5, 16, 16}))),
                 InvariantError);
    EXPECT_FALSE(ag::grad_enabled());
  }
  EXPECT_TRUE(ag::grad_enabled());
  expect_bit_identical(block.predict(x), good);
}

TEST(Predict, HelperGradModeIsRestoredAfterAThrowingHalf) {
  // Holds f until g is running, so g runs on a helper when there is one.
  const auto on_helper = [](const std::atomic<bool>& g_started) {
    if (fork_helpers() == 0) return;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!g_started.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(g_started.load()) << "no helper claimed the offer";
  };
  for (const bool caller_grad : {true, false}) {
    SCOPED_TRACE(testing::Message() << "caller grad mode " << caller_grad);
    std::optional<ag::NoGradGuard> caller_guard;
    if (!caller_grad) caller_guard.emplace();
    std::atomic<bool> started{false};
    EXPECT_THROW(fork_join([&] { on_helper(started); },
                           [&] {
                             ag::NoGradGuard no_grad;
                             started = true;
                             throw InvariantError("branch failed");
                           }),
                 InvariantError);
    EXPECT_EQ(ag::grad_enabled(), caller_grad);
    // The helper's guard unwound too: its own mode is back to the default.
    std::atomic<bool> probe_started{false};
    bool helper_grad = false;
    fork_join([&] { on_helper(probe_started); },
              [&] {
                helper_grad = ag::grad_enabled();
                probe_started = true;
              });
    EXPECT_EQ(helper_grad, fork_helpers() > 0 ? true : caller_grad);
  }
}

TEST(Predict, BuildsNoGraphAndRestoresGradMode) {
  Rng rng(32);
  nn::MlpConfig cfg;
  cfg.in_features = 12;
  cfg.depth = 2;
  cfg.hidden = 8;
  nn::MlpNet mlp(cfg, rng);
  ASSERT_TRUE(ag::grad_enabled());
  EXPECT_THROW(mlp.predict(Tensor({2, 5})), InvariantError);
  EXPECT_TRUE(ag::grad_enabled()) << "a throwing predict left grad mode off";

  {
    ag::NoGradGuard outer;
    {
      ag::NoGradGuard inner;
    }
    EXPECT_FALSE(ag::grad_enabled()) << "inner guard re-enabled grad mode";
    ag::Var y = mlp.forward(ag::constant(Tensor({2, 12})));
    EXPECT_FALSE(y.requires_grad());
    EXPECT_TRUE(y.node()->parents.empty());
    EXPECT_FALSE(y.node()->backward_fn);
  }
  ag::Var y = mlp.forward(ag::constant(Tensor({2, 12})));
  EXPECT_TRUE(y.requires_grad());
}

TEST(Predict, TrainingStepAfterPredictHasSameGradients) {
  Rng data_rng(33);
  Tensor x = Tensor::randn({4, 3, 16, 16}, data_rng);
  const std::vector<int> labels = {1, 7, 3, 0};
  auto gradients = [&](bool predict_first) {
    Rng rng(34);
    nn::ShakeShakeNet net(ss14_c6(), rng);
    if (predict_first) {
      net.set_training(false);
      net.predict(x);
    }
    net.set_training(true);
    ag::backward(nn::cross_entropy_loss(net.forward(ag::constant(x)), labels));
    std::vector<Tensor> grads;
    for (const ag::Var& p : net.parameters()) grads.push_back(p.grad().clone());
    return grads;
  };
  const std::vector<Tensor> plain = gradients(false);
  const std::vector<Tensor> after_predict = gradients(true);
  ASSERT_EQ(plain.size(), after_predict.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "parameter " << i);
    expect_bit_identical(after_predict[i], plain[i]);
  }
}

/// Standard-normal input with every seventh element and the last one -0,
/// and one NaN.
Tensor special_input(const Shape& shape, Rng& rng) {
  Tensor x = Tensor::randn(shape, rng);
  for (std::int64_t i = 0; i < x.numel(); i += 7) x[i] = -0.0f;
  x[x.numel() - 1] = -0.0f;
  x[x.numel() / 2] = std::nanf("");
  return x;
}

/// Every SS-14 conv shape (stem, stage-1 branch, strided 3x3 branch and
/// 1x1 skip, stage-2 branch) and a 32 -> 8 conv deeper than one GEMM depth
/// chunk, as eval-mode Conv2d -> BatchNorm (-> ReLU) Sequentials: predict
/// runs the fused conv, forward on a graph runs the three layers in turn,
/// and the two agree bit for bit. Output channel 0 has zero weights and a
/// running mean equal to its bias, gamma < 0 and beta = -0, so before any
/// ReLU it lands exactly on -0.
TEST(FusedServing, ConvBatchNormReluEqualsLayerByLayer) {
  struct Case {
    std::int64_t cin, cout, size, kernel, stride;
  };
  const Case cases[] = {{3, 6, 16, 3, 1},  {6, 6, 16, 3, 1},
                        {6, 12, 16, 3, 2}, {6, 12, 16, 1, 2},
                        {12, 12, 8, 3, 1}, {32, 8, 8, 3, 1}};
  Rng rng(35);
  for (const Case& cs : cases) {
    for (const bool relu : {false, true}) {
      nn::Sequential seq;
      auto& conv = seq.emplace<nn::Conv2d>(cs.cin, cs.cout, cs.kernel,
                                           cs.stride, cs.kernel / 2, &rng);
      auto& bn = seq.emplace<nn::BatchNorm>(cs.cout);
      if (relu) seq.emplace<nn::ReLU>();
      perturb_state(seq, {4, cs.cin, cs.size, cs.size}, rng);
      Tensor& weight = conv.weight().mutable_value();
      for (std::int64_t p = 0; p < weight.dim(0); ++p) {
        weight[p * cs.cout] = 0.0f;
      }
      (*bn.buffers()[0])[0] = conv.bias().value()[0];  // running mean
      bn.parameters()[0].mutable_value()[0] = -1.25f;  // gamma
      bn.parameters()[1].mutable_value()[0] = -0.0f;   // beta
      for (const std::int64_t batch : {1, 4}) {
        SCOPED_TRACE(testing::Message()
                     << cs.cin << "->" << cs.cout << " k=" << cs.kernel
                     << " s=" << cs.stride << " relu=" << relu
                     << " batch=" << batch);
        const Tensor x = special_input({batch, cs.cin, cs.size, cs.size}, rng);
        expect_bit_identical(seq.predict(x),
                             seq.forward(ag::constant(x)).value());
      }
    }
  }
}

/// The eval ShakeBlock's one-pass tail against ag::shake_combine, then
/// ag::add, then ag::relu on the branch and skip outputs, for an identity
/// skip (also on 5 x 5 maps: 150 floats per image leave a scalar tail after
/// the 4-lane loop at batch 1 and 3) and a strided 1x1 conv skip. In both
/// branches the last output channel of the last conv has zero weights and
/// lands exactly on -0 after its BatchNorm (mean = bias, gamma < 0,
/// beta = -0), so with an identity skip the tail there, scalar tail
/// included, is relu(-0 + x) for an input holding -0 and a NaN.
TEST(FusedServing, ShakeBlockEvalTailEqualsCombineAddRelu) {
  struct Case {
    std::int64_t cin, cout, stride, size;
  };
  Rng rng(36);
  for (const Case& cs : {Case{6, 6, 1, 16}, Case{6, 6, 1, 5},
                         Case{6, 12, 2, 16}}) {
    nn::ShakeBlock block(cs.cin, cs.cout, cs.stride, &rng);
    perturb_state(block, {4, cs.cin, cs.size, cs.size}, rng);
    for (int b = 0; b < 2; ++b) {
      auto& conv = dynamic_cast<nn::Conv2d&>(block.branch_seq(b).layer(3));
      auto& bn = dynamic_cast<nn::BatchNorm&>(block.branch_seq(b).layer(4));
      const std::int64_t last = cs.cout - 1;
      Tensor& weight = conv.weight().mutable_value();
      for (std::int64_t p = 0; p < weight.dim(0); ++p) {
        weight[p * cs.cout + last] = 0.0f;
      }
      (*bn.buffers()[0])[last] = conv.bias().value()[last];  // running mean
      bn.parameters()[0].mutable_value()[last] = -1.25f;     // gamma
      bn.parameters()[1].mutable_value()[last] = -0.0f;      // beta
    }
    for (const std::int64_t batch : {1, 3, 4}) {
      SCOPED_TRACE(testing::Message() << cs.cin << "->" << cs.cout << " at "
                                      << cs.size << " batch=" << batch);
      const Tensor x = special_input({batch, cs.cin, cs.size, cs.size}, rng);
      const Tensor b0 = block.branch_seq(0).predict(x);
      const Tensor b1 = block.branch_seq(1).predict(x);
      const Tensor skip =
          block.skip_seq() != nullptr ? block.skip_seq()->predict(x) : x;
      const ag::Var mixed = ag::shake_combine(
          ag::constant(b0), ag::constant(b1), 0.5f, 0.5f);
      const Tensor want =
          ag::relu(ag::add(mixed, ag::constant(skip))).value();
      expect_bit_identical(block.predict(x), want);
    }
  }
}

/// A caller that holds a serving output keeps its values: the next forward
/// writes elsewhere, for an eval Conv2d -> BatchNorm -> ReLU Sequential (the
/// conv's kept output) and for a ShakeBlock (its tail's). Every call equals
/// the layer-by-layer forward on a graph, and once the caller lets go, the
/// next forward writes the kept buffer again.
TEST(FusedServing, HeldOutputKeepsItsValues) {
  Rng rng(38);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(6, 6, 3, 1, 1, &rng);
  seq.emplace<nn::BatchNorm>(6);
  seq.emplace<nn::ReLU>();
  perturb_state(seq, {4, 6, 16, 16}, rng);
  nn::ShakeBlock block(6, 6, 1, &rng);
  perturb_state(block, {4, 6, 16, 16}, rng);
  for (nn::Module* module : {static_cast<nn::Module*>(&seq),
                             static_cast<nn::Module*>(&block)}) {
    SCOPED_TRACE(module->name());
    const Tensor x1 = Tensor::randn({1, 6, 16, 16}, rng);
    const Tensor x2 = Tensor::randn({1, 6, 16, 16}, rng);
    const Tensor want1 = module->forward(ag::constant(x1)).value();
    const Tensor want2 = module->forward(ag::constant(x2)).value();
    const Tensor held = module->predict(x1);
    const Tensor copy = held.clone();
    Tensor next = module->predict(x2);
    EXPECT_NE(next.data(), held.data());
    expect_bit_identical(held, copy);
    expect_bit_identical(held, want1);
    expect_bit_identical(next, want2);
    const float* kept = next.data();
    next = Tensor();
    const Tensor again = module->predict(x1);
    EXPECT_EQ(again.data(), kept);
    expect_bit_identical(again, want1);
    expect_bit_identical(held, copy);
  }
}

/// One SS-14 expert predicted from three threads at once, as the MPI
/// executors' rank threads share one model: each kept output is claimed by
/// one thread at a time, so every logit equals the expert's serial predict.
TEST(Predict, OneExpertFromThreeThreadsIsBitIdentical) {
  Rng rng(39);
  nn::ShakeShakeNet ss14(ss14_c6(), rng);
  perturb_state(ss14, {4, 3, 16, 16}, rng);
  constexpr int kThreads = 3;
  constexpr int kRounds = 50;
  std::vector<Tensor> images, want;
  for (int t = 0; t < kThreads; ++t) {
    images.push_back(Tensor::randn({1, 3, 16, 16}, rng));
    want.push_back(ss14.predict(images.back()));
  }
  std::vector<std::vector<Tensor>> got(kThreads);
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        got[t].push_back(ss14.predict(images[t]));
      }
    });
  }
  for (auto& c : callers) c.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) {
      SCOPED_TRACE(testing::Message() << "thread " << t << " round " << r);
      expect_bit_identical(got[t][r], want[t]);
    }
  }
}

/// The numel of every output `net` keeps: the stem conv's, then per block
/// its branch and skip convs' and its tail's.
std::vector<std::int64_t> kept_numels(nn::ShakeShakeNet& net) {
  std::vector<std::int64_t> sizes;
  const auto convs = [&](nn::Sequential& seq) {
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&seq.layer(i))) {
        sizes.push_back(conv->kept_numel());
      }
    }
  };
  convs(net.stem());
  for (std::size_t b = 0; b < net.num_blocks(); ++b) {
    nn::ShakeBlock& block = net.block(b);
    convs(block.branch_seq(0));
    convs(block.branch_seq(1));
    if (block.skip_seq() != nullptr) convs(*block.skip_seq());
    sizes.push_back(block.kept_numel());
  }
  return sizes;
}

/// A batch-160 predict, the way sim/scenario.cpp scores accuracy, leaves
/// every kept output at its batch-1 size, and batch-1 predicts after it
/// stay bit-identical to the forward on a graph.
TEST(Predict, LargeBatchKeepsNoBuffer) {
  Rng rng(40);
  nn::ShakeShakeNet ss14(ss14_c6(), rng);
  perturb_state(ss14, {4, 3, 16, 16}, rng);
  const Tensor one = Tensor::randn({1, 3, 16, 16}, rng);
  const Tensor want = ss14.forward(ag::constant(one)).value();
  expect_bit_identical(ss14.predict(one), want);
  const std::vector<std::int64_t> batch1 = kept_numels(ss14);
  ASSERT_EQ(batch1.size(), 26u + 6);  // every conv and every tail
  EXPECT_EQ(batch1.front(), 6 * 16 * 16);
  for (const std::int64_t numel : batch1) EXPECT_GT(numel, 0);

  const Tensor logits = ss14.predict(Tensor::randn({160, 3, 16, 16}, rng));
  EXPECT_EQ(logits.shape(), (Shape{160, 10}));
  EXPECT_EQ(kept_numels(ss14), batch1);
  for (int r = 0; r < 3; ++r) expect_bit_identical(ss14.predict(one), want);
  EXPECT_EQ(kept_numels(ss14), batch1);
}

TEST(Optim, SgdDescendsQuadratic) {
  ag::Var w(Tensor({1}, {4.0f}), true);
  nn::SgdConfig cfg;
  cfg.lr = 0.1f;
  cfg.momentum = 0.0f;
  cfg.max_grad_norm = 0.0f;
  nn::Sgd opt({w}, cfg);
  for (int i = 0; i < 100; ++i) {
    ag::backward(ag::sum_all(ag::square(w)));
    opt.step();
  }
  EXPECT_NEAR(w.value()[0], 0.0f, 1e-3f);
}

TEST(Optim, SgdClipsGlobalNorm) {
  ag::Var w(Tensor({1}, {0.0f}), true);
  nn::SgdConfig cfg;
  cfg.lr = 1.0f;
  cfg.momentum = 0.0f;
  cfg.max_grad_norm = 1.0f;
  nn::Sgd opt({w}, cfg);
  ag::backward(ag::sum_all(ag::mul_scalar(w, 100.0f)));  // grad = 100
  opt.step();
  EXPECT_NEAR(w.value()[0], -1.0f, 1e-4f);  // clipped to norm 1
}

TEST(Optim, SkipsParamsWithoutGrad) {
  ag::Var used(Tensor({1}, {1.0f}), true);
  ag::Var unused(Tensor({1}, {7.0f}), true);
  nn::Sgd opt({used, unused}, {});
  ag::backward(ag::sum_all(ag::square(used)));
  opt.step();
  EXPECT_FLOAT_EQ(unused.value()[0], 7.0f);
  EXPECT_NE(used.value()[0], 1.0f);
}

TEST(Serialize, TensorRoundTrip) {
  Rng rng(12);
  Tensor t = Tensor::randn({3, 4, 5}, rng);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  nn::write_tensor(ss, t);
  Tensor back = nn::read_tensor(ss);
  EXPECT_TRUE(t.allclose(back));
}

TEST(Serialize, ModuleParameterRoundTrip) {
  Rng rng(13);
  nn::MlpConfig cfg;
  cfg.depth = 3;
  nn::MlpNet a(cfg, rng), b(cfg, rng);
  Tensor x = Tensor::randn({4, cfg.in_features}, rng);
  EXPECT_FALSE(a.predict(x).allclose(b.predict(x)));
  nn::deserialize_parameters(nn::serialize_parameters(a), b);
  EXPECT_TRUE(a.predict(x).allclose(b.predict(x)));
}

TEST(Serialize, RejectsCorruptStream) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ss << "not a checkpoint";
  EXPECT_THROW(nn::load_tensors(ss), SerializationError);
}

TEST(Serialize, RejectsShapeMismatch) {
  Rng rng(14);
  nn::MlpConfig small, big;
  small.depth = 2;
  big.depth = 4;
  nn::MlpNet a(small, rng), b(big, rng);
  EXPECT_THROW(nn::deserialize_parameters(nn::serialize_parameters(a), b),
               InvariantError);
}

TEST(Loss, CrossEntropyOfPerfectPredictionIsSmall) {
  Tensor logits({2, 3}, {20, 0, 0, 0, 20, 0});
  ag::Var loss = nn::cross_entropy_loss(ag::constant(logits), {0, 1});
  EXPECT_NEAR(loss.value()[0], 0.0f, 1e-4f);
}

TEST(Loss, AccuracyCountsMatches) {
  Tensor logits({3, 2}, {1, 0, 0, 1, 1, 0});
  EXPECT_NEAR(nn::accuracy(logits, {0, 1, 1}), 2.0 / 3.0, 1e-9);
}

TEST(Training, TinyMlpOverfitsTinyDataset) {
  Rng rng(15);
  nn::MlpConfig cfg;
  cfg.in_features = 4;
  cfg.num_classes = 2;
  cfg.depth = 2;
  cfg.hidden = 8;
  nn::MlpNet mlp(cfg, rng);
  Tensor x({4, 4}, {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1});
  std::vector<int> y = {0, 0, 1, 1};
  nn::SgdConfig sc;
  sc.lr = 0.5f;
  nn::Sgd opt(mlp.parameters(), sc);
  for (int i = 0; i < 200; ++i) {
    ag::backward(nn::cross_entropy_loss(mlp.forward(ag::constant(x)), y));
    opt.step();
  }
  mlp.set_training(false);
  EXPECT_EQ(nn::accuracy(mlp.predict(x), y), 1.0);
}


TEST(Serialize, BatchNormRunningStatsSurviveRoundTrip) {
  // Regression test: eval-mode behaviour depends on running statistics, so
  // checkpoints must carry buffers() as well as parameters().
  Rng rng(16);
  nn::ShakeShakeConfig cfg;
  cfg.depth = 8;
  cfg.base_channels = 4;
  cfg.image_size = 8;
  nn::ShakeShakeNet model(cfg, rng);
  model.set_training(true);
  for (int i = 0; i < 5; ++i) {
    model.forward(ag::constant(Tensor::randn({8, 3, 8, 8}, rng, 2.0f, 1.5f)));
  }
  model.set_training(false);
  Tensor x = Tensor::randn({4, 3, 8, 8}, rng);
  Tensor expected = model.predict(x);

  Rng rng2(17);
  nn::ShakeShakeNet restored(cfg, rng2);
  nn::deserialize_parameters(nn::serialize_parameters(model), restored);
  restored.set_training(false);
  EXPECT_TRUE(restored.predict(x).allclose(expected, 1e-5f))
      << "restored model must reproduce eval outputs exactly";
}

TEST(Serialize, BufferCountMismatchRejected) {
  Rng rng(18);
  nn::MlpConfig mlp_cfg;
  mlp_cfg.in_features = 4;
  mlp_cfg.depth = 2;
  mlp_cfg.hidden = 4;
  nn::MlpNet mlp(mlp_cfg, rng);  // no buffers
  nn::BatchNorm bn(4);           // has buffers
  EXPECT_THROW(nn::deserialize_parameters(nn::serialize_parameters(mlp), bn),
               Error);
}

TEST(Serialize, OverwriteReplacesCheckpointAtomically) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("nn_overwrite_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "model.tnet").string();
  Rng rng(19);
  nn::MlpConfig cfg;
  cfg.in_features = 4;
  cfg.depth = 2;
  cfg.hidden = 4;
  nn::MlpNet first(cfg, rng), second(cfg, rng), loaded(cfg, rng);
  nn::save_module(path, first);
  nn::save_module(path, second);

  // The temp file was renamed over the target: one file, the new contents.
  std::vector<fs::path> files;
  for (const auto& f : fs::directory_iterator(dir)) files.push_back(f.path());
  EXPECT_EQ(files, std::vector<fs::path>{path});
  nn::load_module(path, loaded);
  EXPECT_EQ(nn::serialize_parameters(loaded), nn::serialize_parameters(second));
  EXPECT_NE(nn::serialize_parameters(loaded), nn::serialize_parameters(first));
  fs::remove_all(dir);
}

/// Same shape and the same bits in every element.
bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Saves `twin` to a checkpoint, loads it into `target`, and checks that
/// `target` then equals `twin` in every parameter, buffer and logit.
void expect_loads_bit_identical(nn::Module& twin, nn::Module& target,
                                const Tensor& x, const std::string& name) {
  // Every weight the Rng constructor draws (Linear's and Conv2d's, the
  // rank-2 parameters) starts at zero; the biases are zero and BatchNorm's
  // gamma and beta start at one and zero in both constructors.
  for (const auto& p : target.parameters()) {
    if (p.value().rank() != 2) continue;
    for (float v : p.value().values()) ASSERT_EQ(v, 0.0f) << name;
  }
  const std::string path = ::testing::TempDir() + "/load_target_" + name +
                           "_" + std::to_string(::getpid()) + ".tnet";
  nn::save_module(path, twin);
  nn::load_module(path, target);
  std::filesystem::remove(path);
  const auto want = twin.parameters(), got = target.parameters();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(same_bits(got[i].value(), want[i].value()))
        << name << " parameter " << i;
  }
  const auto want_buffers = twin.buffers(), got_buffers = target.buffers();
  ASSERT_EQ(got_buffers.size(), want_buffers.size());
  for (std::size_t i = 0; i < want_buffers.size(); ++i) {
    EXPECT_TRUE(same_bits(*got_buffers[i], *want_buffers[i]))
        << name << " buffer " << i;
  }
  twin.set_training(false);
  target.set_training(false);
  EXPECT_TRUE(same_bits(target.predict(x), twin.predict(x))) << name;
}

TEST(LoadTarget, ZeroBuiltNetsLoadBitIdenticalToTheirTwins) {
  Rng rng(20);
  nn::MlpConfig mlp_cfg;
  mlp_cfg.in_features = 16;
  mlp_cfg.depth = 3;
  mlp_cfg.hidden = 8;
  nn::MlpNet mlp(mlp_cfg, rng);
  nn::MlpNet mlp_target(mlp_cfg);
  expect_loads_bit_identical(mlp, mlp_target,
                             Tensor::randn({4, mlp_cfg.in_features}, rng),
                             "mlp");

  nn::ShakeShakeConfig ss_cfg;
  ss_cfg.depth = 8;
  ss_cfg.base_channels = 4;
  ss_cfg.image_size = 8;
  nn::ShakeShakeNet ss(ss_cfg, rng);
  // Training forwards move the BatchNorm running statistics off their
  // initial values, so the buffers the load must carry are not defaults.
  ss.set_training(true);
  for (int i = 0; i < 3; ++i) {
    ss.forward(ag::constant(Tensor::randn({4, 3, 8, 8}, rng, 1.0f, 2.0f)));
  }
  nn::ShakeShakeNet ss_target(ss_cfg);
  expect_loads_bit_identical(ss, ss_target,
                             Tensor::randn({2, 3, 8, 8}, rng), "shake");
}

TEST(LoadTarget, WrongShapeStillThrows) {
  Rng rng(21);
  nn::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.depth = 2;
  cfg.hidden = 8;
  nn::MlpNet twin(cfg, rng);
  nn::MlpConfig wider = cfg;
  wider.hidden = 9;
  nn::MlpNet wrong_width(wider);
  EXPECT_THROW(
      nn::deserialize_parameters(nn::serialize_parameters(twin), wrong_width),
      InvariantError);

  nn::ShakeShakeConfig ss_cfg;
  ss_cfg.depth = 8;
  ss_cfg.base_channels = 4;
  ss_cfg.image_size = 8;
  nn::ShakeShakeNet ss(ss_cfg, rng);
  nn::ShakeShakeConfig deeper = ss_cfg;
  deeper.depth = 14;
  nn::ShakeShakeNet wrong_depth(deeper);
  EXPECT_THROW(
      nn::deserialize_parameters(nn::serialize_parameters(ss), wrong_depth),
      InvariantError);
}

TEST(LoadTarget, RngBuiltNetsKeepTheirDrawOrder) {
  // The Rng& constructors draw what they drew before the load-target path
  // existed: the pins were taken from that code, and the stream is left
  // where the next draw continues from.
  const auto fnv1a = [](const std::string& bytes) {
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ull;
    }
    return h;
  };
  nn::MlpConfig mlp_cfg;
  mlp_cfg.in_features = 16;
  mlp_cfg.depth = 3;
  mlp_cfg.hidden = 8;
  nn::ShakeShakeConfig ss_cfg;
  ss_cfg.depth = 8;
  ss_cfg.base_channels = 4;
  ss_cfg.image_size = 8;
  Rng rng(22);
  nn::MlpNet mlp(mlp_cfg, rng);
  nn::ShakeShakeNet ss(ss_cfg, rng);
  EXPECT_EQ(fnv1a(nn::serialize_parameters(mlp)), 0x877e93bb42ccdc72ull);
  EXPECT_EQ(fnv1a(nn::serialize_parameters(ss)), 0xa92e5701aa340cc1ull);
  EXPECT_EQ(rng.uniform(), 0x1.49a0a4p-1f);
}

}  // namespace
}  // namespace teamnet
