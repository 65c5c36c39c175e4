// Microbenchmarks for the tensor substrate: GEMM variants, convolution
// lowering, ReLU, eval BatchNorm, the fused conv -> BatchNorm -> ReLU,
// softmax/entropy kernels — the primitives whose FLOP counts feed the
// edge-latency model — plus one whole expert forward, and the synthetic
// MNIST and CIFAR sets and the normal draws that a team's bring-up spends
// most of its set-up in, the random engine's block refill, and the
// fork-join handoff the serving forward splits each Shake-Shake block
// with, and one such block forked and in series.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>

#include "micro_common.hpp"

#include "common/fork_join.hpp"
#include "common/rng.hpp"
#include "core/entropy.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/batchnorm.hpp"
#include "nn/layers.hpp"
#include "nn/mlp.hpp"
#include "nn/sequential.hpp"
#include "nn/shake_shake.hpp"
#include "tensor/autograd.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"

namespace teamnet {
namespace {

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// The transposed GEMMs, one row each: a combined row would be dominated
// by the slower NT kernel and hide the TN one.
void transposed_gemm_row(benchmark::State& state,
                         decltype(&gemm_tn_accumulate) accumulate) {
  const std::int64_t n = state.range(0);
  Rng rng(2);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    c.fill(0.0f);
    accumulate(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}

void BM_GemmTN(benchmark::State& state) {
  transposed_gemm_row(state, gemm_tn_accumulate);
}
BENCHMARK(BM_GemmTN)->Arg(64)->Arg(128);

void BM_GemmNT(benchmark::State& state) {
  transposed_gemm_row(state, gemm_nt_accumulate);
}
BENCHMARK(BM_GemmNT)->Arg(64)->Arg(128);

// The conv GEMM alone, out[Cout, S*S] += W^T[Cout, Cin*9] * cols, at the
// SS-14 expert's two widest layers: 6 -> 6 channels at 16 x 16 and 12 -> 12
// at 8 x 8. Items are FLOPs, so items/s reads as FLOP/s.
void BM_ConvGemm(benchmark::State& state) {
  const std::int64_t m = state.range(0), k = state.range(1),
                     n = state.range(2);
  Rng rng(10);
  Tensor w = Tensor::randn({k, m}, rng);
  Tensor cols = Tensor::randn({k, n}, rng);
  Tensor out({m, n});
  for (auto _ : state) {
    gemm_tn_accumulate(w.data(), cols.data(), out.data(), m, k, n);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_ConvGemm)->Args({6, 54, 256})->Args({12, 108, 64});

// im2col alone, which only the conv backward still runs.
void BM_Im2Col(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  Rng rng(3);
  Tensor x = Tensor::randn({8, 8, s, s}, rng);
  for (auto _ : state) {
    Tensor cols = im2col(x, 3, 1, 1);
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2Col)->Arg(8)->Arg(16)->Arg(32);

// col2im alone: the conv backward's input-gradient fold of the same
// columns back into the [8, 8, S, S] image.
void BM_Col2Im(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  Rng rng(3);
  const Shape image{8, 8, s, s};
  Tensor cols = Tensor::randn({8, 8 * 9, s * s}, rng);
  for (auto _ : state) {
    Tensor folded = col2im(cols, image, 3, 1, 1);
    benchmark::DoNotOptimize(folded.data());
  }
}
BENCHMARK(BM_Col2Im)->Arg(8)->Arg(16)->Arg(32);

// One 3x3, pad-1 convolution at the SS-14 expert's shapes (batch 1,
// C -> C channels at S x S): the kernel-level number behind the
// tcp_cnn_k2 latency. Items are FLOPs, so items/s reads as FLOP/s.
void BM_Conv2dForward(benchmark::State& state) {
  const std::int64_t c = state.range(0), s = state.range(1);
  Rng rng(7);
  ag::Var x = ag::constant(Tensor::randn({1, c, s, s}, rng));
  ag::Var w = ag::constant(Tensor::randn({c * 9, c}, rng, 0.0f, 0.1f));
  ag::Var b = ag::constant(Tensor::randn({c}, rng));
  for (auto _ : state) {
    ag::Var y = ag::conv2d(x, w, b, 3, 1, 1);
    benchmark::DoNotOptimize(y.value().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * s * s * c * 9 * c);
}
BENCHMARK(BM_Conv2dForward)->Args({6, 16})->Args({12, 8});

// The SS-14 strided block entry (batch 1, 6 -> 12 channels, 16 x 16 ->
// 8 x 8): arg 3 is the branch's 3x3, pad-1, stride-2 conv, arg 1 the
// skip's 1x1, pad-0, stride-2 conv. Items are FLOPs.
void BM_Conv2dStrided(benchmark::State& state) {
  const std::int64_t k = state.range(0), cin = 6, cout = 12, s = 16;
  Rng rng(12);
  ag::Var x = ag::constant(Tensor::randn({1, cin, s, s}, rng));
  ag::Var w = ag::constant(Tensor::randn({cin * k * k, cout}, rng, 0.0f, 0.1f));
  ag::Var b = ag::constant(Tensor::randn({cout}, rng));
  for (auto _ : state) {
    ag::Var y = ag::conv2d(x, w, b, k, 2, k / 2);
    benchmark::DoNotOptimize(y.value().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * (s / 2) * (s / 2) * cin *
                          k * k * cout);
}
BENCHMARK(BM_Conv2dStrided)->Arg(3)->Arg(1);

// ReLU over one SS-14 activation (batch 1, 6 channels at 16 x 16) and a
// larger map. Items are elements.
void BM_Relu(benchmark::State& state) {
  Rng rng(8);
  Tensor x = Tensor::randn({state.range(0)}, rng);
  for (auto _ : state) {
    Tensor y = ops::relu(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Relu)->Arg(6 * 16 * 16)->Arg(12 * 8 * 8)->Arg(1 << 16);

// Eval BatchNorm through Module::predict at the SS-14 expert's two widest
// activations (batch 1, C channels at S x S), with non-trivial running
// statistics. Items are elements.
void BM_BatchNormEval(benchmark::State& state) {
  const std::int64_t c = state.range(0), s = state.range(1);
  Rng rng(11);
  nn::BatchNorm bn(c);
  for (Tensor* buffer : bn.buffers()) {
    for (float& v : buffer->values()) v = rng.uniform(0.5f, 2.0f);
  }
  bn.set_training(false);
  Tensor x = Tensor::randn({1, c, s, s}, rng);
  for (auto _ : state) {
    Tensor y = bn.predict(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * c * s * s);
}
BENCHMARK(BM_BatchNormEval)->Args({6, 16})->Args({12, 8});

// The serving form of BM_Conv2dForward + BM_BatchNormEval + BM_Relu at the
// same shapes: an eval Conv2d -> BatchNorm -> ReLU Sequential through
// Module::predict, which runs them as one conv whose GEMM applies the
// BatchNorm and the ReLU before its store. Items are the conv's FLOPs, as in
// BM_Conv2dForward.
void BM_ConvBnRelu(benchmark::State& state) {
  const std::int64_t c = state.range(0), s = state.range(1);
  Rng rng(13);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(c, c, 3, 1, 1, &rng);
  seq.emplace<nn::BatchNorm>(c);
  seq.emplace<nn::ReLU>();
  for (Tensor* buffer : seq.buffers()) {
    for (float& v : buffer->values()) v = rng.uniform(0.5f, 2.0f);
  }
  seq.set_training(false);
  Tensor x = Tensor::randn({1, c, s, s}, rng);
  for (auto _ : state) {
    Tensor y = seq.predict(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * s * s * c * 9 * c);
}
BENCHMARK(BM_ConvBnRelu)->Args({6, 16})->Args({12, 8});

// One batch-1 eval forward through Module::predict, the call every serving
// path makes: arg 0 is the tcp_cnn_k2 expert (SS-14, 6 base channels,
// 16 x 16 RGB), arg 1 the fleet MLP-2 expert (784 -> 128 -> 10). Items are
// the analyze() FLOPs, so items/s reads as FLOP/s.
void BM_ExpertForward(benchmark::State& state) {
  Rng rng(9);
  std::unique_ptr<nn::Module> expert;
  Shape sample;
  if (state.range(0) == 0) {
    nn::ShakeShakeConfig cfg;
    cfg.depth = 14;
    cfg.base_channels = 6;
    cfg.image_size = 16;
    expert = std::make_unique<nn::ShakeShakeNet>(cfg, rng);
    sample = {3, 16, 16};
  } else {
    nn::MlpConfig cfg;
    cfg.depth = 2;
    cfg.hidden = 128;
    expert = std::make_unique<nn::MlpNet>(cfg, rng);
    sample = {784};
  }
  expert->set_training(false);
  Shape batch = sample;
  batch.insert(batch.begin(), 1);
  Tensor x = Tensor::randn(batch, rng);
  for (auto _ : state) {
    Tensor logits = expert->predict(x);
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetLabel(state.range(0) == 0 ? "ss14_c6_16x16" : "mlp2_h128");
  state.SetItemsProcessed(state.iterations() * expert->analyze(sample).flops);
}
BENCHMARK(BM_ExpertForward)->Arg(0)->Arg(1);

// One batch-1 serving forward of a stage-1 block of BM_ExpertForward/0's
// expert (6 -> 6 channels at 16 x 16, identity skip). Arg 0 is
// ShakeBlock::forward, which forks branch 1 onto a helper; arg 1 runs the
// same three pieces in series on the calling thread (branch 0, branch 1,
// the tail into a kept output), which is the code a fork nobody claims
// runs. Their difference is what a fork costs or saves at block level.
void BM_ShakeBlockForward(benchmark::State& state) {
  const bool serial = state.range(0) == 1;
  Rng rng(21);
  nn::ShakeBlock block(6, 6, 1, &rng);
  for (Tensor* buffer : block.buffers()) {
    for (float& v : buffer->values()) v = rng.uniform(0.5f, 2.0f);
  }
  block.set_training(false);
  const ag::Var x = ag::constant(Tensor::randn({1, 6, 16, 16}, rng));
  ag::NoGradGuard no_grad;
  KeptOutput tail;
  for (auto _ : state) {
    Tensor y;
    if (serial) {
      const ag::Var b0 = block.branch_seq(0).forward(x);
      const ag::Var b1 = block.branch_seq(1).forward(x);
      y = nn::shake_tail(b0.value(), b1.value(), x.value(), 0.5f,
                         tail.take(b0.value().shape()));
    } else {
      y = block.forward(x).value();
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(serial ? "serial" : "fork");
  state.SetItemsProcessed(state.iterations() *
                          block.analyze({6, 16, 16}).flops);
}
BENCHMARK(BM_ShakeBlockForward)->Arg(0)->Arg(1);

// One fork_join of two empty halves, back to back so the first helper
// stays hot. Arg 0 lets the halves race: the caller usually takes g back
// before the helper sees it, so the row is the fork's fixed cost. Arg 1
// holds f until g has run on the helper, so the row is a full handoff:
// offer, claim, run, done, join.
void BM_ForkJoin(benchmark::State& state) {
  const bool handoff = state.range(0) == 1;
  if (handoff && fork_helpers() == 0) {
    state.SkipWithError("no fork-join helper on this core set");
    return;
  }
  for (auto _ : state) {
    std::atomic<bool> ran{false};
    fork_join(
        [&] {
          while (handoff && !ran.load(std::memory_order_acquire)) {
          }
        },
        [&] { ran.store(true, std::memory_order_release); });
    benchmark::DoNotOptimize(ran);
  }
  state.SetLabel(handoff ? "handoff" : "race");
}
BENCHMARK(BM_ForkJoin)->Arg(0)->Arg(1);

void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(4);
  Tensor logits = Tensor::randn({state.range(0), 10}, rng);
  for (auto _ : state) {
    Tensor p = ops::softmax_rows(logits);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_SoftmaxRows)->Arg(64)->Arg(1024);

void BM_PredictiveEntropy(benchmark::State& state) {
  Rng rng(5);
  Tensor probs = ops::softmax_rows(Tensor::randn({state.range(0), 10}, rng));
  for (auto _ : state) {
    Tensor h = core::predictive_entropy(probs);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_PredictiveEntropy)->Arg(64)->Arg(1024);

void BM_BroadcastMul(benchmark::State& state) {
  Rng rng(6);
  Tensor big = Tensor::randn({state.range(0), 64}, rng);
  Tensor row = Tensor::randn({1, 64}, rng);
  for (auto _ : state) {
    Tensor out = ops::mul(big, row);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BroadcastMul)->Arg(256)->Arg(4096);

// One 28x28 digit as make_synthetic_mnist draws it, the ten glyphs in
// turn; the stream runs on across iterations, so each renders a fresh
// sample.
void BM_RenderDigit(benchmark::State& state) {
  const data::MnistConfig cfg;
  Rng rng(cfg.seed);
  int digit = 0;
  for (auto _ : state) {
    Tensor img = data::render_digit(digit, cfg.image_size, rng,
                                    cfg.noise_stddev, cfg.max_jitter);
    benchmark::DoNotOptimize(img.data());
    digit = (digit + 1) % 10;
  }
}
BENCHMARK(BM_RenderDigit);

// The benches' --quick MNIST set (1,200 digits, seed 11): the walk, the
// renders on every usable core and validation, the dataset half of a
// fleet's set-up.
void BM_SyntheticMnist(benchmark::State& state) {
  data::MnistConfig cfg;
  cfg.num_samples = 1200;
  cfg.seed = 11;
  for (auto _ : state) {
    data::Dataset ds = data::make_synthetic_mnist(cfg);
    benchmark::DoNotOptimize(ds.images.data());
  }
}
BENCHMARK(BM_SyntheticMnist)->Unit(benchmark::kMillisecond);

// The benches' --quick CIFAR set (800 16x16x3 images, seed 13): the
// dataset half of tcp_cnn_k2's set-up.
void BM_SyntheticCifar(benchmark::State& state) {
  data::CifarConfig cfg;
  cfg.num_samples = 800;
  cfg.image_size = 16;
  cfg.seed = 13;
  for (auto _ : state) {
    data::Dataset ds = data::make_synthetic_cifar(cfg);
    benchmark::DoNotOptimize(ds.images.data());
  }
}
BENCHMARK(BM_SyntheticCifar)->Unit(benchmark::kMillisecond);

// As many normal draws as the --quick MNIST set's pixel noise (1,200
// digits of 28x28): the stream that sets most of a fleet's set-up.
void BM_RngNormal(benchmark::State& state) {
  constexpr int kDraws = 1200 * 28 * 28;
  Rng rng(11);
  for (auto _ : state) {
    float sum = 0.0f;
    for (int i = 0; i < kDraws; ++i) sum += rng.normal(0.0f, 0.08f);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kDraws);
}
BENCHMARK(BM_RngNormal)->Unit(benchmark::kMillisecond);

// The walk a synthetic build runs before it renders on every core: the
// same 1,200 digits' noise skipped 784 draws at a time, so only the polar
// method's accept test runs (the build's serial part).
void BM_RngWalkNormals(benchmark::State& state) {
  constexpr int kDigits = 1200;
  constexpr int kPixels = 28 * 28;
  Rng rng(11);
  for (auto _ : state) {
    for (int i = 0; i < kDigits; ++i) rng.skip_normals(kPixels);
    benchmark::DoNotOptimize(rng.engine().unread().data());
  }
  state.SetItemsProcessed(state.iterations() * kDigits * kPixels);
}
BENCHMARK(BM_RngWalkNormals)->Unit(benchmark::kMillisecond);

// One refill alone: the twist and tempering that make the engine's next
// 312 words, which every draw amortizes.
void BM_RngRefill(benchmark::State& state) {
  Mt64Engine engine(11);
  for (auto _ : state) {
    engine.refill();
    benchmark::DoNotOptimize(engine());
  }
  state.SetItemsProcessed(state.iterations() * Mt64Engine::kBlockWords);
}
BENCHMARK(BM_RngRefill);

}  // namespace
}  // namespace teamnet

int main(int argc, char** argv) {
  return teamnet::bench::micro_main(argc, argv);
}
