// Layer/model/optimizer/serialization tests for the nn module.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <sstream>

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
  nn::Linear layer(3, 2, rng);
  layer.bias().mutable_value()[0] = 10.0f;
  Tensor x({2, 3}, {1, 0, 0, 0, 1, 0});
  Tensor y = layer.predict(x);
  EXPECT_EQ(y.shape(), (Shape{2, 2}));
  EXPECT_NEAR(y.at(0, 0), layer.weight().value().at(0, 0) + 10.0f, 1e-5f);
}

TEST(Linear, AnalyzeReportsFlops) {
  Rng rng(2);
  nn::Linear layer(784, 64, rng);
  auto analysis = layer.analyze({784});
  EXPECT_EQ(analysis.output_shape, (Shape{64}));
  EXPECT_EQ(analysis.flops, 2 * 784 * 64);
  EXPECT_THROW(layer.analyze({100}), InvariantError);
}

TEST(Conv2d, MatchesDirectConvolution) {
  Rng rng(3);
  nn::Conv2d conv(1, 1, 3, 1, 1, rng);
  // Identity-ish check: set kernel to a delta -> output equals input.
  conv.weight().mutable_value().fill(0.0f);
  conv.weight().mutable_value()[4] = 1.0f;  // center tap of the 3x3 kernel
  Tensor x = Tensor::randn({1, 1, 5, 5}, rng);
  Tensor y = conv.predict(x);
  EXPECT_TRUE(y.allclose(x, 1e-5f));
}

TEST(Conv2d, StrideHalvesSpatialDims) {
  Rng rng(4);
  nn::Conv2d conv(3, 8, 3, 2, 1, rng);
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

}  // namespace
}  // namespace teamnet
