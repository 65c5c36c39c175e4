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

// Full tiles, a row tail, column tails around every tile width (8, 16 and
// 32 columns), k = 1, the two SS-14 conv GEMMs (Cout x Cin*9 x S*S), and
// depths past one k-chunk of the tiled kernel.
const GemmShape kGemmShapes[] = {
    {8, 16, 16},  {7, 5, 16},   {5, 3, 6},     {6, 9, 13},  {9, 1, 11},
    {5, 300, 12}, {6, 7, 15},   {5, 11, 16},   {7, 4, 17},  {3, 20, 31},
    {9, 6, 33},   {6, 54, 256}, {12, 108, 64}, {5, 257, 17}, {5, 7, 31},
    {4, 9, 32},   {6, 3, 33},   {3, 12, 63},   {7, 5, 64},  {5, 8, 65}};

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

/// Runs the tiled kernel built for `lanes`-float vectors directly, in both
/// of its layouts, over every shape; skips if this CPU cannot run it.
void check_kernel_width(int lanes) {
  const detail::GemmKernel kernel = detail::gemm_kernel(lanes);
  if (kernel == nullptr) {
    GTEST_SKIP() << lanes << "-lane kernel needs "
                 << (lanes == 16 ? "AVX-512F" : "AVX2");
  }
  Rng rng(11);
  for (const GemmShape& sh : kGemmShapes) {
    SCOPED_TRACE(testing::Message() << "m=" << sh.m << " k=" << sh.k
                                    << " n=" << sh.n);
    Tensor a = Tensor::randn({sh.m, sh.k}, rng);
    Tensor b = Tensor::randn({sh.k, sh.n}, rng);
    Tensor c0 = Tensor::randn({sh.m, sh.n}, rng);
    const Tensor want = naive_gemm_accumulate(a, b, c0.clone());

    Tensor c = c0.clone();
    kernel(a.data(), /*a_row=*/sh.k, /*a_depth=*/1, b.data(), c.data(), sh.m,
           sh.k, sh.n, /*overwrite=*/false, /*bias=*/nullptr);
    expect_bit_identical(c, want);

    Tensor at = ops::transpose(a);
    Tensor c_tn = c0.clone();
    kernel(at.data(), /*a_row=*/1, /*a_depth=*/sh.m, b.data(), c_tn.data(),
           sh.m, sh.k, sh.n, /*overwrite=*/false, /*bias=*/nullptr);
    expect_bit_identical(c_tn, want);
  }
}

TEST(Gemm, FourLaneKernelAgreesWithNaive) { check_kernel_width(4); }

TEST(Gemm, EightLaneKernelAgreesWithNaive) { check_kernel_width(8); }

TEST(Gemm, SixteenLaneKernelAgreesWithNaive) { check_kernel_width(16); }

/// The overwrite seed and the bias epilogue against what the convolution
/// did before them: zero-fill C, accumulate, then add the bias in a separate
/// pass. C starts as NaN, so a seed that read it would show.
void check_overwrite_with_bias(detail::GemmKernel kernel) {
  // k = 257 puts the bias after a second depth chunk; n = 33 and 65 leave a
  // tail at every width, and k = 0 is a bias-only (or all-zero) result.
  const GemmShape shapes[] = {{6, 54, 256}, {12, 108, 64}, {5, 257, 33},
                              {24, 216, 16}, {3, 9, 65},   {7, 0, 20}};
  Rng rng(12);
  for (const GemmShape& sh : shapes) {
    for (const bool with_bias : {true, false}) {
      SCOPED_TRACE(testing::Message() << "m=" << sh.m << " k=" << sh.k
                                      << " n=" << sh.n << " bias=" << with_bias);
      Tensor at = Tensor::randn({sh.k, sh.m}, rng);  // A^T, as a conv weight
      Tensor b = Tensor::randn({sh.k, sh.n}, rng);
      Tensor bias = Tensor::randn({sh.m}, rng);
      const float* bias_ptr = with_bias ? bias.data() : nullptr;

      Tensor want = naive_gemm_accumulate(ops::transpose(at), b,
                                          Tensor({sh.m, sh.n}));
      for (std::int64_t i = 0; i < sh.m && with_bias; ++i)
        for (std::int64_t j = 0; j < sh.n; ++j) want[i * sh.n + j] += bias[i];

      Tensor c = Tensor::full({sh.m, sh.n}, std::nanf(""));
      kernel(at.data(), /*a_row=*/1, /*a_depth=*/sh.m, b.data(), c.data(),
             sh.m, sh.k, sh.n, /*overwrite=*/true, bias_ptr);
      expect_bit_identical(c, want);

      // The same through the row-major A layout.
      Tensor a = ops::transpose(at);
      Tensor c_nn = Tensor::full({sh.m, sh.n}, std::nanf(""));
      kernel(a.data(), /*a_row=*/sh.k, /*a_depth=*/1, b.data(), c_nn.data(),
             sh.m, sh.k, sh.n, /*overwrite=*/true, bias_ptr);
      expect_bit_identical(c_nn, want);
    }
  }
}

TEST(Gemm, OverwriteWithBiasEqualsZeroFillThenBiasPass) {
  for (const int lanes : {4, 8, 16}) {
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    // Widths this CPU cannot run are covered on the hosts that can.
    if (const detail::GemmKernel kernel = detail::gemm_kernel(lanes)) {
      check_overwrite_with_bias(kernel);
    }
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

/// im2col by its definition: row (ch, ky, kx), column (oy, ox) holds input
/// pixel (oy * stride + ky - pad, ox * stride + kx - pad), or 0 outside.
Tensor naive_im2col(const Tensor& x, std::int64_t kernel, std::int64_t stride,
                    std::int64_t pad) {
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t ho = conv_out_dim(h, kernel, stride, pad);
  const std::int64_t wo = conv_out_dim(w, kernel, stride, pad);
  Tensor cols({n, c * kernel * kernel, ho * wo});
  for (std::int64_t img = 0; img < n; ++img)
    for (std::int64_t ch = 0; ch < c; ++ch)
      for (std::int64_t ky = 0; ky < kernel; ++ky)
        for (std::int64_t kx = 0; kx < kernel; ++kx)
          for (std::int64_t oy = 0; oy < ho; ++oy)
            for (std::int64_t ox = 0; ox < wo; ++ox) {
              const std::int64_t y = oy * stride + ky - pad;
              const std::int64_t xx = ox * stride + kx - pad;
              const bool inside = y >= 0 && y < h && xx >= 0 && xx < w;
              cols.at(img, (ch * kernel + ky) * kernel + kx, oy * wo + ox) =
                  inside ? x.at(img, ch, y, xx) : 0.0f;
            }
  return cols;
}

TEST(Im2Col, MatchesNaiveReference) {
  // Square and non-square inputs; 2 x 2 with k = 5, pad 2 has taps whose
  // valid range is empty, so their rows are all padding.
  const Shape inputs[] = {{2, 3, 7, 7}, {1, 2, 5, 8}, {1, 1, 2, 2},
                          {1, 2, 16, 16}};
  Rng rng(14);
  for (const Shape& shape : inputs) {
    const Tensor x = Tensor::randn(shape, rng);
    for (const std::int64_t kernel : {1, 3, 5}) {
      for (const std::int64_t stride : {1, 2}) {
        for (const std::int64_t pad : {0, 1, 2}) {
          if (shape[2] + 2 * pad < kernel || shape[3] + 2 * pad < kernel) {
            continue;  // no output pixel
          }
          SCOPED_TRACE(testing::Message()
                       << shape_to_string(shape) << " k=" << kernel
                       << " s=" << stride << " p=" << pad);
          expect_bit_identical(im2col(x, kernel, stride, pad),
                               naive_im2col(x, kernel, stride, pad));
        }
      }
    }
  }
}

TEST(Im2Col, ConvOutDim) {
  EXPECT_EQ(conv_out_dim(16, 3, 1, 1), 16);
  EXPECT_EQ(conv_out_dim(16, 3, 2, 1), 8);
  EXPECT_THROW(conv_out_dim(2, 5, 1, 0), InvariantError);
}

}  // namespace
}  // namespace teamnet
