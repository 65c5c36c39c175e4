// Unit tests for the Tensor value type and the raw math kernels.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace teamnet {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.rank(), 2);
  for (float v : t.values()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FromValuesAndAccessors) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
  t.at(1, 0) = 7.0f;
  EXPECT_EQ(t[2], 7.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), InvariantError);
}

TEST(Tensor, OutOfRangeAccessThrows) {
  Tensor t({2, 2});
  EXPECT_THROW(t.at(2, 0), InvariantError);
  EXPECT_THROW(t.at(0), InvariantError);  // wrong rank
}

TEST(Tensor, ReshapeSharesBuffer) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor v = t.reshape({3, 2});
  v.at(0, 0) = 42.0f;
  EXPECT_EQ(t.at(0, 0), 42.0f);
}

TEST(Tensor, ReshapeInfersDimension) {
  Tensor t({4, 6});
  EXPECT_EQ(t.reshape({2, -1}).dim(1), 12);
  EXPECT_EQ(t.reshape({-1}).dim(0), 24);
  EXPECT_THROW(t.reshape({5, -1}), InvariantError);
}

TEST(Tensor, CloneIsDeep) {
  Tensor t({2}, {1, 2});
  Tensor c = t.clone();
  c[0] = 9.0f;
  EXPECT_EQ(t[0], 1.0f);
}

TEST(Tensor, RandnDeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  Tensor ta = Tensor::randn({8}, a);
  Tensor tb = Tensor::randn({8}, b);
  Tensor tc = Tensor::randn({8}, c);
  EXPECT_TRUE(ta.allclose(tb));
  EXPECT_FALSE(ta.allclose(tc));
}

TEST(Ops, AddSameShape) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {10, 20, 30, 40});
  Tensor c = ops::add(a, b);
  EXPECT_TRUE(c.allclose(Tensor({2, 2}, {11, 22, 33, 44})));
}

TEST(Ops, RowBroadcast) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row({1, 3}, {10, 20, 30});
  Tensor c = ops::add(a, row);
  EXPECT_TRUE(c.allclose(Tensor({2, 3}, {11, 22, 33, 14, 25, 36})));
}

TEST(Ops, ColBroadcast) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor col({2, 1}, {10, 100});
  Tensor c = ops::mul(a, col);
  EXPECT_TRUE(c.allclose(Tensor({2, 3}, {10, 20, 30, 400, 500, 600})));
}

TEST(Ops, ScalarBroadcastBothSides) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor s({1}, {2});
  EXPECT_TRUE(ops::mul(a, s).allclose(Tensor({2, 2}, {2, 4, 6, 8})));
  EXPECT_TRUE(ops::sub(s, a).allclose(Tensor({2, 2}, {1, 0, -1, -2})));
}

TEST(Ops, IncompatibleBroadcastThrows) {
  Tensor a({2, 3});
  Tensor b({3, 2});
  EXPECT_THROW(ops::add(a, b), InvalidArgument);
}

TEST(Ops, ReduceToShapeInvertsBroadcast) {
  Tensor g({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(ops::reduce_to_shape(g, {1, 3}).allclose(Tensor({1, 3}, {5, 7, 9})));
  EXPECT_TRUE(ops::reduce_to_shape(g, {2, 1}).allclose(Tensor({2, 1}, {6, 15})));
  Tensor s = ops::reduce_to_shape(g, {1});
  EXPECT_FLOAT_EQ(s[0], 21.0f);
}

TEST(Ops, MatmulMatchesManual) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = ops::matmul(a, b);
  EXPECT_TRUE(c.allclose(Tensor({2, 2}, {58, 64, 139, 154})));
}

TEST(Ops, MatmulShapeMismatchThrows) {
  EXPECT_THROW(ops::matmul(Tensor({2, 3}), Tensor({2, 3})), InvariantError);
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

/// The scalar ReLU rule the vector kernel must reproduce on every lane.
float scalar_relu(float x) { return x > 0.0f ? x : 0.0f; }

TEST(Ops, ReluMapsNanAndNegativeZeroToPositiveZero) {
  const float nan = std::nanf("");
  const float inf = INFINITY;
  Tensor x({8}, {nan, -0.0f, 0.0f, -1.5f, 2.5f, -nan, inf, -inf});
  Tensor want({8}, {0.0f, 0.0f, 0.0f, 0.0f, 2.5f, 0.0f, inf, 0.0f});
  expect_bit_identical(ops::relu(x), want);
}

TEST(Ops, ReluMatchesScalarRuleOnEveryLane) {
  // Lengths below, at and just past one 4-lane vector, and one long enough
  // to run the vector body many times before a one-element tail.
  Rng rng(9);
  for (std::int64_t n : {0, 1, 3, 4, 5, 1537}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    Tensor x = Tensor::randn({n}, rng);
    // NaN and -0 land on every lane position and in the tail.
    for (std::int64_t i = 0; i < n; ++i) {
      if (i % 7 == 2) x[i] = std::nanf("");
      if (i % 7 == 5) x[i] = -0.0f;
    }
    Tensor want({n});
    for (std::int64_t i = 0; i < n; ++i) want[i] = scalar_relu(x[i]);
    expect_bit_identical(ops::relu(x), want);
  }
}

/// The naive kernels' summation order: each C[i,j] starts from its current
/// value and adds A[i,p] * B[p,j] for ascending p.
Tensor naive_gemm_accumulate(const Tensor& a, const Tensor& b, Tensor c) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = c[i * n + j];
      for (std::int64_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = acc;
    }
  return c;
}

struct GemmShape {
  std::int64_t m, k, n;
};

// Full 4x8 tiles, a row tail, column tails below and above one tile, k = 1,
// and a depth past one k-chunk of the tiled kernel.
const GemmShape kGemmShapes[] = {{8, 16, 16}, {7, 5, 16}, {5, 3, 6},
                                 {6, 9, 13}, {9, 1, 11}, {5, 300, 12}};

TEST(Gemm, VariantsAgreeWithNaive) {
  Rng rng(7);
  for (const GemmShape& sh : kGemmShapes) {
    SCOPED_TRACE(testing::Message() << "m=" << sh.m << " k=" << sh.k
                                    << " n=" << sh.n);
    Tensor a = Tensor::randn({sh.m, sh.k}, rng);
    Tensor b = Tensor::randn({sh.k, sh.n}, rng);
    Tensor c0 = Tensor::randn({sh.m, sh.n}, rng);  // non-zero C

    Tensor c({sh.m, sh.n});
    gemm(a.data(), b.data(), c.data(), sh.m, sh.k, sh.n);
    expect_bit_identical(c, naive_gemm_accumulate(a, b, Tensor({sh.m, sh.n})));

    const Tensor want = naive_gemm_accumulate(a, b, c0.clone());
    Tensor c_acc = c0.clone();
    gemm_accumulate(a.data(), b.data(), c_acc.data(), sh.m, sh.k, sh.n);
    expect_bit_identical(c_acc, want);

    // A^T variant: pass a transposed copy of A.
    Tensor at = ops::transpose(a);
    Tensor c_tn = c0.clone();
    gemm_tn_accumulate(at.data(), b.data(), c_tn.data(), sh.m, sh.k, sh.n);
    expect_bit_identical(c_tn, want);

    // B^T variant sums each dot product from zero, then adds it to C.
    Tensor bt = ops::transpose(b);
    Tensor c_nt = c0.clone();
    gemm_nt_accumulate(a.data(), bt.data(), c_nt.data(), sh.m, sh.k, sh.n);
    Tensor want_nt = c0.clone();
    for (std::int64_t i = 0; i < sh.m; ++i)
      for (std::int64_t j = 0; j < sh.n; ++j) {
        float dot = 0.0f;
        for (std::int64_t p = 0; p < sh.k; ++p)
          dot += a[i * sh.k + p] * b[p * sh.n + j];
        want_nt[i * sh.n + j] += dot;
      }
    expect_bit_identical(c_nt, want_nt);
  }
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Tensor logits = Tensor::randn({4, 7}, rng, 0.0f, 5.0f);
  Tensor p = ops::softmax_rows(logits);
  for (std::int64_t i = 0; i < 4; ++i) {
    float sum = 0.0f;
    for (std::int64_t j = 0; j < 7; ++j) {
      EXPECT_GE(p[i * 7 + j], 0.0f);
      sum += p[i * 7 + j];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxNumericallyStableForHugeLogits) {
  Tensor logits({1, 3}, {1000.0f, 1000.0f, -1000.0f});
  Tensor p = ops::softmax_rows(logits);
  EXPECT_NEAR(p[0], 0.5f, 1e-5f);
  EXPECT_NEAR(p[1], 0.5f, 1e-5f);
  EXPECT_NEAR(p[2], 0.0f, 1e-5f);
}

TEST(Ops, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(5);
  Tensor logits = Tensor::randn({3, 5}, rng);
  Tensor lsm = ops::log_softmax_rows(logits);
  Tensor sm = ops::softmax_rows(logits);
  for (std::int64_t i = 0; i < lsm.numel(); ++i) {
    EXPECT_NEAR(lsm[i], std::log(sm[i]), 1e-5f);
  }
}

TEST(Ops, ArgminArgmaxRows) {
  Tensor a({2, 3}, {3, 1, 2, 0, 5, -1});
  EXPECT_EQ(ops::argmin_rows(a), (std::vector<int>{1, 2}));
  EXPECT_EQ(ops::argmax_rows(a), (std::vector<int>{0, 1}));
}

TEST(Ops, TakeRowsAndConcat) {
  Tensor a({3, 2}, {0, 1, 2, 3, 4, 5});
  Tensor sel = ops::take_rows(a, {2, 0});
  EXPECT_TRUE(sel.allclose(Tensor({2, 2}, {4, 5, 0, 1})));
  EXPECT_THROW(ops::take_rows(a, {3}), InvariantError);
}

TEST(Ops, SumMeanAxis) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(ops::sum_axis(a, 0).allclose(Tensor({1, 3}, {5, 7, 9})));
  EXPECT_TRUE(ops::sum_axis(a, 1).allclose(Tensor({2, 1}, {6, 15})));
  EXPECT_FLOAT_EQ(ops::sum_all(a), 21.0f);
  EXPECT_FLOAT_EQ(ops::mean_all(a), 3.5f);
}

TEST(Im2Col, IdentityKernelRoundTrip) {
  // 1x1 kernel, stride 1: im2col is the input viewed as [N, C, H*W].
  Rng rng(11);
  Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  Tensor cols = im2col(x, 1, 1, 0);
  EXPECT_EQ(cols.shape(), (Shape{2, 3, 4 * 4}));
  // Element [n=1, c=2, y=3, x=0] should be cols[1, 2, 3*4+0].
  EXPECT_FLOAT_EQ(cols.at(1, 2, 3 * 4 + 0), x.at(1, 2, 3, 0));
  expect_bit_identical(cols.reshape(x.shape()), x);
}

TEST(Im2Col, PaddingProducesZeros) {
  Tensor x = Tensor::ones({1, 1, 2, 2});
  Tensor cols = im2col(x, 3, 1, 1);
  ASSERT_EQ(cols.shape(), (Shape{1, 9, 4}));
  // Top-left output location (column 0): only the bottom-right 2x2 taps of
  // the window are real.
  EXPECT_EQ(cols.at(0, 0, 0), 0.0f);  // tap (0,0): out-of-bounds corner
  EXPECT_EQ(cols.at(0, 4, 0), 1.0f);  // center tap (1,1) hits (0,0)
  EXPECT_EQ(cols.at(0, 8, 0), 1.0f);  // tap (2,2) hits (1,1)
  EXPECT_EQ(cols.at(0, 8, 3), 0.0f);  // bottom-right output, tap (2,2)
}

TEST(Im2Col, Col2ImIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining adjoint
  // property that makes the conv backward pass correct.
  Rng rng(13);
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  Tensor cx = im2col(x, 3, 2, 1);
  Tensor y = Tensor::randn(cx.shape(), rng);
  Tensor aty = col2im(y, x.shape(), 3, 2, 1);
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < cx.numel(); ++i) lhs += cx[i] * y[i];
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += x[i] * aty[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2Col, ConvOutDim) {
  EXPECT_EQ(conv_out_dim(16, 3, 1, 1), 16);
  EXPECT_EQ(conv_out_dim(16, 3, 2, 1), 8);
  EXPECT_THROW(conv_out_dim(2, 5, 1, 0), InvariantError);
}

}  // namespace
}  // namespace teamnet
