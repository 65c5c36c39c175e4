// Microbenchmarks for the tensor substrate: GEMM variants, convolution
// lowering, ReLU, eval BatchNorm, softmax/entropy kernels — the primitives
// whose FLOP counts feed the edge-latency model — plus one whole expert
// forward.
#include <benchmark/benchmark.h>

#include <memory>

#include "micro_common.hpp"

#include "common/rng.hpp"
#include "core/entropy.hpp"
#include "nn/batchnorm.hpp"
#include "nn/mlp.hpp"
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
BENCHMARK(BM_Relu)->Arg(6 * 16 * 16)->Arg(1 << 16);

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

}  // namespace
}  // namespace teamnet

int main(int argc, char** argv) {
  return teamnet::bench::micro_main(argc, argv);
}
