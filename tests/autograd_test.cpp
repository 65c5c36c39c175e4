// Gradient correctness: every autograd op is checked against central finite
// differences, plus graph-mechanics tests (accumulation, reuse, broadcast).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "tensor/autograd.hpp"
#include "tensor/ops.hpp"

namespace teamnet {
namespace {

/// Central finite-difference check: builds the graph twice per perturbed
/// element and compares d(scalar out)/d(input) with the autograd gradient.
void expect_grad_matches_fd(
    const std::function<ag::Var(const ag::Var&)>& fn, Tensor input,
    float eps = 1e-3f, float tol = 2e-2f) {
  ag::Var x(input.clone(), true);
  ag::Var out = fn(x);
  ASSERT_EQ(out.value().numel(), 1) << "fd check needs a scalar output";
  ag::backward(out);
  ASSERT_TRUE(x.has_grad());
  const Tensor grad = x.grad().clone();

  for (std::int64_t i = 0; i < input.numel(); ++i) {
    Tensor plus = input.clone();
    plus[i] += eps;
    Tensor minus = input.clone();
    minus[i] -= eps;
    const float f_plus = fn(ag::Var(plus, false)).value()[0];
    const float f_minus = fn(ag::Var(minus, false)).value()[0];
    const float fd = (f_plus - f_minus) / (2.0f * eps);
    EXPECT_NEAR(grad[i], fd, tol + tol * std::abs(fd))
        << "element " << i;
  }
}

TEST(Autograd, AddGrad) {
  Rng rng(1);
  expect_grad_matches_fd(
      [](const ag::Var& x) { return ag::sum_all(ag::add(x, x)); },
      Tensor::randn({3, 2}, rng));
}

TEST(Autograd, MulGradWithConstant) {
  Rng rng(2);
  Tensor c = Tensor::randn({3, 2}, rng);
  expect_grad_matches_fd(
      [&](const ag::Var& x) {
        return ag::sum_all(ag::mul(x, ag::constant(c.clone())));
      },
      Tensor::randn({3, 2}, rng));
}

TEST(Autograd, DivGrad) {
  Rng rng(3);
  Tensor denom({2, 2}, {1.5f, 2.0f, -1.2f, 0.8f});
  expect_grad_matches_fd(
      [&](const ag::Var& x) {
        return ag::sum_all(ag::div(x, ag::constant(denom.clone())));
      },
      Tensor::randn({2, 2}, rng));
  // And through the denominator.
  Tensor numer({2, 2}, {1.0f, -2.0f, 3.0f, 0.5f});
  expect_grad_matches_fd(
      [&](const ag::Var& x) {
        return ag::sum_all(ag::div(ag::constant(numer.clone()), x));
      },
      Tensor({2, 2}, {1.5f, 2.0f, -1.2f, 0.8f}));
}

TEST(Autograd, RowBroadcastGrad) {
  Rng rng(4);
  Tensor big = Tensor::randn({4, 3}, rng);
  expect_grad_matches_fd(
      [&](const ag::Var& x) {
        return ag::sum_all(ag::square(ag::mul(ag::constant(big.clone()), x)));
      },
      Tensor::randn({1, 3}, rng));
}

TEST(Autograd, ColBroadcastGrad) {
  Rng rng(5);
  Tensor big = Tensor::randn({4, 3}, rng);
  expect_grad_matches_fd(
      [&](const ag::Var& x) {
        return ag::sum_all(ag::mul(ag::constant(big.clone()), x));
      },
      Tensor::randn({4, 1}, rng));
}

TEST(Autograd, ScalarBroadcastGrad) {
  Rng rng(6);
  Tensor big = Tensor::randn({3, 3}, rng);
  expect_grad_matches_fd(
      [&](const ag::Var& x) {
        return ag::sum_all(ag::mul(ag::constant(big.clone()), x));
      },
      Tensor::randn({1}, rng));
}

TEST(Autograd, UnaryOpsGrad) {
  Rng rng(7);
  expect_grad_matches_fd(
      [](const ag::Var& x) { return ag::sum_all(ag::exp(x)); },
      Tensor::randn({2, 3}, rng, 0.0f, 0.5f));
  expect_grad_matches_fd(
      [](const ag::Var& x) { return ag::sum_all(ag::log(x)); },
      Tensor::uniform({2, 3}, rng, 0.5f, 2.0f));
  expect_grad_matches_fd(
      [](const ag::Var& x) { return ag::sum_all(ag::tanh(x)); },
      Tensor::randn({2, 3}, rng));
  expect_grad_matches_fd(
      [](const ag::Var& x) { return ag::sum_all(ag::square(x)); },
      Tensor::randn({2, 3}, rng));
  // relu/abs away from the kink
  expect_grad_matches_fd(
      [](const ag::Var& x) { return ag::sum_all(ag::relu(x)); },
      Tensor({4}, {-1.0f, -0.3f, 0.4f, 2.0f}));
  expect_grad_matches_fd(
      [](const ag::Var& x) { return ag::sum_all(ag::abs(x)); },
      Tensor({4}, {-1.0f, -0.3f, 0.4f, 2.0f}));
}

TEST(Autograd, MatmulGradBothSides) {
  Rng rng(8);
  Tensor b = Tensor::randn({3, 2}, rng);
  expect_grad_matches_fd(
      [&](const ag::Var& x) {
        return ag::sum_all(ag::square(ag::matmul(x, ag::constant(b.clone()))));
      },
      Tensor::randn({2, 3}, rng));
  Tensor a = Tensor::randn({2, 3}, rng);
  expect_grad_matches_fd(
      [&](const ag::Var& x) {
        return ag::sum_all(ag::square(ag::matmul(ag::constant(a.clone()), x)));
      },
      Tensor::randn({3, 2}, rng));
}

TEST(Autograd, SoftmaxRowsGrad) {
  Rng rng(9);
  Tensor weights = Tensor::randn({2, 4}, rng);
  expect_grad_matches_fd(
      [&](const ag::Var& x) {
        return ag::sum_all(
            ag::mul(ag::softmax_rows(x), ag::constant(weights.clone())));
      },
      Tensor::randn({2, 4}, rng));
}

TEST(Autograd, LogSoftmaxGrad) {
  Rng rng(10);
  Tensor weights = Tensor::randn({2, 4}, rng);
  expect_grad_matches_fd(
      [&](const ag::Var& x) {
        return ag::sum_all(
            ag::mul(ag::log_softmax_rows(x), ag::constant(weights.clone())));
      },
      Tensor::randn({2, 4}, rng));
}

TEST(Autograd, NllLossGrad) {
  Rng rng(11);
  const std::vector<int> labels = {2, 0, 1};
  expect_grad_matches_fd(
      [&](const ag::Var& x) {
        return ag::nll_loss(ag::log_softmax_rows(x), labels);
      },
      Tensor::randn({3, 4}, rng));
}

TEST(Autograd, SumAxisGrad) {
  Rng rng(12);
  expect_grad_matches_fd(
      [](const ag::Var& x) {
        return ag::sum_all(ag::square(ag::sum_axis(x, 0)));
      },
      Tensor::randn({3, 2}, rng));
  expect_grad_matches_fd(
      [](const ag::Var& x) {
        return ag::sum_all(ag::square(ag::sum_axis(x, 1)));
      },
      Tensor::randn({3, 2}, rng));
}

TEST(Autograd, Conv2dGradInputWeightBias) {
  Rng rng(14);
  Tensor w = Tensor::randn({2 * 3 * 3, 2}, rng, 0.0f, 0.3f);
  Tensor b = Tensor::randn({2}, rng);
  // input gradient
  expect_grad_matches_fd(
      [&](const ag::Var& x) {
        return ag::sum_all(ag::square(
            ag::conv2d(x, ag::constant(w.clone()), ag::constant(b.clone()), 3,
                       1, 1)));
      },
      Tensor::randn({1, 2, 4, 4}, rng, 0.0f, 0.5f), 1e-2f, 5e-2f);
  // weight gradient
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng, 0.0f, 0.5f);
  expect_grad_matches_fd(
      [&](const ag::Var& wv) {
        return ag::sum_all(ag::square(
            ag::conv2d(ag::constant(x.clone()), wv, ag::constant(b.clone()), 3,
                       1, 1)));
      },
      w.clone(), 1e-2f, 5e-2f);
  // bias gradient
  expect_grad_matches_fd(
      [&](const ag::Var& bv) {
        return ag::sum_all(ag::square(
            ag::conv2d(ag::constant(x.clone()), ag::constant(w.clone()), bv, 3,
                       1, 1)));
      },
      b.clone(), 1e-2f, 5e-2f);
}

TEST(Autograd, StridedConvGrad) {
  Rng rng(15);
  Tensor w = Tensor::randn({1 * 3 * 3, 2}, rng, 0.0f, 0.3f);
  expect_grad_matches_fd(
      [&](const ag::Var& x) {
        return ag::sum_all(ag::square(
            ag::conv2d(x, ag::constant(w.clone()), ag::Var(), 3, 2, 1)));
      },
      Tensor::randn({1, 1, 5, 5}, rng, 0.0f, 0.5f), 1e-2f, 5e-2f);
}

/// Direct NCHW convolution and its gradients, summed in the order of the
/// row-per-patch lowering ([N*Ho*Wo, Cin*k*k] x [Cin*k*k, Cout]) that
/// trained checkpoints were produced with. conv2d must match it bit for bit.
struct ConvReference {
  Tensor out, dx, dw, db;
};

ConvReference reference_conv(const Tensor& x, const Tensor& w, const Tensor& b,
                             const Tensor& g, std::int64_t k, std::int64_t s,
                             std::int64_t pad) {
  const std::int64_t n = x.dim(0), cin = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const std::int64_t cout = w.dim(1), kk = cin * k * k;
  const std::int64_t ho = (h + 2 * pad - k) / s + 1;
  const std::int64_t wo = (wd + 2 * pad - k) / s + 1;
  // Flat input index under tap p = (ci, ky, kx) of output pixel (oy, ox),
  // or -1 where the tap falls in the zero padding.
  auto input_index = [&](std::int64_t img, std::int64_t p, std::int64_t oy,
                         std::int64_t ox) -> std::int64_t {
    const std::int64_t ci = p / (k * k), ky = p / k % k, kx = p % k;
    const std::int64_t iy = oy * s + ky - pad, ix = ox * s + kx - pad;
    if (iy < 0 || iy >= h || ix < 0 || ix >= wd) return -1;
    return ((img * cin + ci) * h + iy) * wd + ix;
  };
  auto tap = [&](std::int64_t img, std::int64_t p, std::int64_t oy,
                 std::int64_t ox) {
    const std::int64_t i = input_index(img, p, oy, ox);
    return i < 0 ? 0.0f : x[i];
  };
  auto at = [&](std::int64_t img, std::int64_t co, std::int64_t oy,
                std::int64_t ox) { return ((img * cout + co) * ho + oy) * wo + ox; };

  ConvReference ref{Tensor({n, cout, ho, wo}), Tensor(x.shape()),
                    Tensor(w.shape()), Tensor(b.shape())};
  for (std::int64_t img = 0; img < n; ++img)
    for (std::int64_t oy = 0; oy < ho; ++oy)
      for (std::int64_t ox = 0; ox < wo; ++ox)
        for (std::int64_t co = 0; co < cout; ++co) {
          float acc = 0.0f;
          for (std::int64_t p = 0; p < kk; ++p)
            acc += tap(img, p, oy, ox) * w[p * cout + co];
          ref.out[at(img, co, oy, ox)] = acc + b[co];
        }
  // dW[p][co] and db[co]: ascending (img, oy, ox).
  for (std::int64_t p = 0; p < kk; ++p)
    for (std::int64_t co = 0; co < cout; ++co) {
      float acc = 0.0f;
      for (std::int64_t img = 0; img < n; ++img)
        for (std::int64_t oy = 0; oy < ho; ++oy)
          for (std::int64_t ox = 0; ox < wo; ++ox)
            acc += tap(img, p, oy, ox) * g[at(img, co, oy, ox)];
      ref.dw[p * cout + co] = acc;
    }
  for (std::int64_t img = 0; img < n; ++img)
    for (std::int64_t oy = 0; oy < ho; ++oy)
      for (std::int64_t ox = 0; ox < wo; ++ox)
        for (std::int64_t co = 0; co < cout; ++co)
          ref.db[co] += g[at(img, co, oy, ox)];
  // dx: each patch gradient (summed over co from 0) is scattered onto the
  // input in ascending (img, oy, ox), taps in ascending p.
  for (std::int64_t img = 0; img < n; ++img)
    for (std::int64_t oy = 0; oy < ho; ++oy)
      for (std::int64_t ox = 0; ox < wo; ++ox)
        for (std::int64_t p = 0; p < kk; ++p) {
          float dcol = 0.0f;
          for (std::int64_t co = 0; co < cout; ++co)
            dcol += g[at(img, co, oy, ox)] * w[p * cout + co];
          const std::int64_t i = input_index(img, p, oy, ox);
          if (i >= 0) ref.dx[i] += dcol;
        }
  return ref;
}

void expect_bit_identical(const Tensor& got, const Tensor& want,
                          const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " element " << i << ": " << got[i] << " vs " << want[i];
  }
}

struct ConvCase {
  std::int64_t cin, cout, size, k, s, pad;
};

TEST(Autograd, Conv2dBitIdenticalToDirectReference) {
  // Batch 2 throughout; Cout is never a multiple of 4, so the GEMM row tail
  // is exercised along with full tiles.
  const ConvCase cases[] = {
      {3, 5, 6, 3, 1, 1},   // 3x3, pad 1, stride 1
      {3, 5, 6, 3, 1, 0},   // 3x3, pad 0: stride 1 that shrinks the map
      {2, 7, 7, 3, 2, 1},   // 3x3, pad 1, stride 2, odd input
      {4, 6, 5, 1, 1, 0},   // 1x1, pad 0
      {6, 6, 16, 3, 1, 1},  // SS-14 block shape
      {12, 12, 8, 3, 1, 1},  // SS-14 stage-2 shape
      {6, 12, 16, 3, 2, 1},  // SS-14 strided block entry
      {6, 12, 16, 1, 2, 0},  // SS-14 1x1 stride-2 skip
      {3, 5, 9, 5, 1, 2},    // 5x5, pad 2
      {3, 5, 9, 3, 2, 0},    // 3x3, pad 0, stride 2
  };
  Rng rng(21);
  for (const ConvCase& c : cases) {
    SCOPED_TRACE(testing::Message() << "cin=" << c.cin << " cout=" << c.cout
                                    << " size=" << c.size << " k=" << c.k
                                    << " s=" << c.s << " pad=" << c.pad);
    const Tensor x = Tensor::randn({2, c.cin, c.size, c.size}, rng);
    const Tensor w = Tensor::randn({c.cin * c.k * c.k, c.cout}, rng, 0.0f, 0.3f);
    const Tensor b = Tensor::randn({c.cout}, rng);
    ag::Var xv(x.clone(), true), wv(w.clone(), true), bv(b.clone(), true);
    ag::Var out = ag::conv2d(xv, wv, bv, c.k, c.s, c.pad);
    // d(sum(out * r))/d(out) = r exactly, so g is a known random tensor.
    const Tensor g = Tensor::randn(out.value().shape(), rng);
    ag::backward(ag::sum_all(ag::mul(out, ag::constant(g.clone()))));

    const ConvReference ref = reference_conv(x, w, b, g, c.k, c.s, c.pad);
    expect_bit_identical(out.value(), ref.out, "out");
    expect_bit_identical(xv.grad(), ref.dx, "dx");
    expect_bit_identical(wv.grad(), ref.dw, "dW");
    expect_bit_identical(bv.grad(), ref.db, "db");
  }
}

TEST(Autograd, GlobalAvgPoolGrad) {
  Rng rng(16);
  expect_grad_matches_fd(
      [](const ag::Var& x) {
        return ag::sum_all(ag::square(ag::global_avg_pool(x)));
      },
      Tensor::randn({2, 3, 2, 2}, rng));
}

TEST(Autograd, ShakeCombineRoutesGradByBeta) {
  Tensor a({2}, {1, 2});
  Tensor bt({2}, {3, 4});
  ag::Var va(a, true), vb(bt, true);
  ag::Var out = ag::sum_all(ag::shake_combine(va, vb, 0.3f, 0.7f));
  // forward uses alpha
  EXPECT_NEAR(out.value()[0], 0.3f * 3 + 0.7f * 7, 1e-5f);
  ag::backward(out);
  // backward uses beta
  EXPECT_FLOAT_EQ(va.grad()[0], 0.7f);
  EXPECT_FLOAT_EQ(vb.grad()[0], 0.3f);
}

TEST(Autograd, ShakeCombineForwardBitIdenticalToScaledSum) {
  // The one-pass mix must round like mul_scalar, mul_scalar, then add.
  Rng rng(22);
  const Tensor a = Tensor::randn({2, 6, 16, 16}, rng);
  const Tensor b = Tensor::randn({2, 6, 16, 16}, rng);
  for (float alpha : {0.5f, 0.3f, 0.8137f}) {
    SCOPED_TRACE(testing::Message() << "alpha=" << alpha);
    const Tensor want = ops::add(ops::mul_scalar(a, alpha),
                                 ops::mul_scalar(b, 1.0f - alpha));
    expect_bit_identical(
        ag::shake_combine(ag::constant(a), ag::constant(b), alpha, 0.5f)
            .value(),
        want, "mix");
  }
}

TEST(Autograd, GradAccumulatesWhenVarReused) {
  ag::Var x(Tensor({1}, {3.0f}), true);
  ag::Var out = ag::sum_all(ag::mul(x, x));  // x^2
  ag::backward(out);
  EXPECT_FLOAT_EQ(x.grad()[0], 6.0f);
}

TEST(Autograd, GradsAccumulateAcrossBackwardCalls) {
  ag::Var x(Tensor({1}, {1.0f}), true);
  ag::backward(ag::sum_all(ag::mul_scalar(x, 2.0f)));
  ag::backward(ag::sum_all(ag::mul_scalar(x, 3.0f)));
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
  x.zero_grad();
  EXPECT_FALSE(x.has_grad());
}

TEST(Autograd, ConstantsReceiveNoGrad) {
  ag::Var c = ag::constant(Tensor({1}, {2.0f}));
  ag::Var x(Tensor({1}, {3.0f}), true);
  ag::backward(ag::sum_all(ag::mul(c, x)));
  EXPECT_FALSE(c.has_grad());
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(Autograd, BackwardRequiresScalarRoot) {
  ag::Var x(Tensor({2}, {1, 2}), true);
  EXPECT_THROW(ag::backward(ag::mul_scalar(x, 2.0f)), InvariantError);
}

TEST(Autograd, DiamondGraphAccumulatesBothPaths) {
  // out = x*x + 3x: d/dx = 2x + 3.
  ag::Var x(Tensor({1}, {5.0f}), true);
  ag::Var out =
      ag::sum_all(ag::add(ag::mul(x, x), ag::mul_scalar(x, 3.0f)));
  ag::backward(out);
  EXPECT_FLOAT_EQ(x.grad()[0], 13.0f);
}

}  // namespace
}  // namespace teamnet
