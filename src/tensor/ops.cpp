#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "tensor/gemm.hpp"
#include "tensor/vec4.hpp"

namespace teamnet::ops {

namespace {

enum class BroadcastKind {
  Same,      // identical shapes
  ScalarB,   // b has a single element
  ScalarA,   // a has a single element
  RowB,      // a=[m,n], b=[1,n] (or [n])
  RowA,      // a=[1,n] (or [n]), b=[m,n]
  ColB,      // a=[m,n], b=[m,1]
  ColA,      // a=[m,1], b=[m,n]
};

bool is_row_of(const Shape& big, const Shape& small) {
  if (big.size() != 2) return false;
  if (small.size() == 1) return small[0] == big[1];
  return small.size() == 2 && small[0] == 1 && small[1] == big[1];
}

bool is_col_of(const Shape& big, const Shape& small) {
  return big.size() == 2 && small.size() == 2 && small[0] == big[0] &&
         small[1] == 1;
}

BroadcastKind classify(const Shape& a, const Shape& b) {
  if (a == b) return BroadcastKind::Same;
  if (shape_numel(b) == 1) return BroadcastKind::ScalarB;
  if (shape_numel(a) == 1) return BroadcastKind::ScalarA;
  if (is_row_of(a, b)) return BroadcastKind::RowB;
  if (is_row_of(b, a)) return BroadcastKind::RowA;
  if (is_col_of(a, b)) return BroadcastKind::ColB;
  if (is_col_of(b, a)) return BroadcastKind::ColA;
  throw InvalidArgument("incompatible broadcast shapes " + shape_to_string(a) +
                        " vs " + shape_to_string(b));
}

template <typename F>
Tensor binary(const Tensor& a, const Tensor& b, F f) {
  const BroadcastKind kind = classify(a.shape(), b.shape());
  switch (kind) {
    case BroadcastKind::Same: {
      Tensor out(a.shape(), uninitialized);
      const std::int64_t n = a.numel();
      for (std::int64_t i = 0; i < n; ++i) out[i] = f(a[i], b[i]);
      return out;
    }
    case BroadcastKind::ScalarB: {
      Tensor out(a.shape());
      const float s = b[0];
      const std::int64_t n = a.numel();
      for (std::int64_t i = 0; i < n; ++i) out[i] = f(a[i], s);
      return out;
    }
    case BroadcastKind::ScalarA: {
      Tensor out(b.shape());
      const float s = a[0];
      const std::int64_t n = b.numel();
      for (std::int64_t i = 0; i < n; ++i) out[i] = f(s, b[i]);
      return out;
    }
    case BroadcastKind::RowB: {
      Tensor out(a.shape());
      const std::int64_t m = a.dim(0), n = a.dim(1);
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
          out[i * n + j] = f(a[i * n + j], b[j]);
      return out;
    }
    case BroadcastKind::RowA: {
      Tensor out(b.shape());
      const std::int64_t m = b.dim(0), n = b.dim(1);
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
          out[i * n + j] = f(a[j], b[i * n + j]);
      return out;
    }
    case BroadcastKind::ColB: {
      Tensor out(a.shape());
      const std::int64_t m = a.dim(0), n = a.dim(1);
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
          out[i * n + j] = f(a[i * n + j], b[i]);
      return out;
    }
    case BroadcastKind::ColA: {
      Tensor out(b.shape());
      const std::int64_t m = b.dim(0), n = b.dim(1);
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
          out[i * n + j] = f(a[i], b[i * n + j]);
      return out;
    }
  }
  throw InvariantError("unreachable broadcast kind");
}

template <typename F>
Tensor unary(const Tensor& a, F f) {
  Tensor out(a.shape());
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) out[i] = f(a[i]);
  return out;
}

}  // namespace

Tensor reduce_to_shape(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  Tensor out(target);
  const std::int64_t target_n = out.numel();
  if (target_n == 1) {
    out[0] = sum_all(t);
    return out;
  }
  TEAMNET_CHECK_MSG(t.rank() == 2, "reduce_to_shape needs 2-D source, got "
                                       << shape_to_string(t.shape()));
  const std::int64_t m = t.dim(0), n = t.dim(1);
  if (is_row_of(t.shape(), target)) {
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j) out[j] += t[i * n + j];
    return out;
  }
  if (is_col_of(t.shape(), target)) {
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j) out[i] += t[i * n + j];
    return out;
  }
  throw InvalidArgument("cannot reduce " + shape_to_string(t.shape()) + " to " +
                        shape_to_string(target));
}

Tensor add(const Tensor& a, const Tensor& b) {
  return binary(a, b, std::plus<float>());
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary(a, b, std::minus<float>());
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary(a, b, std::multiplies<float>());
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary(a, b, std::divides<float>());
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x + s; });
}
Tensor mul_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x * s; });
}

Tensor neg(const Tensor& a) {
  return unary(a, [](float x) { return -x; });
}
Tensor exp(const Tensor& a) {
  return unary(a, [](float x) { return std::exp(x); });
}
Tensor log(const Tensor& a) {
  return unary(a, [](float x) { return std::log(std::max(x, 1e-12f)); });
}
Tensor tanh(const Tensor& a) {
  return unary(a, [](float x) { return std::tanh(x); });
}
Tensor relu(const Tensor& a) {
  // `v > 0 ? v : 0` lane by lane: the compare yields an all-ones/all-zero
  // mask, so NaN and -0 both become +0 exactly as in the scalar tail.
  Tensor out(a.shape(), uninitialized);
  const float* src = a.data();
  float* dst = out.data();
  const std::int64_t n = a.numel();
  const f32x4 zero = {};
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const f32x4 v = load4(src + i);
    store4(dst + i, v > zero ? v : zero);
  }
  for (; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
  return out;
}
Tensor abs(const Tensor& a) {
  return unary(a, [](float x) { return std::abs(x); });
}
Tensor sqrt(const Tensor& a) {
  return unary(a, [](float x) { return std::sqrt(x); });
}
Tensor square(const Tensor& a) {
  return unary(a, [](float x) { return x * x; });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  TEAMNET_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0),
                    "matmul " << shape_to_string(a.shape()) << " x "
                              << shape_to_string(b.shape()));
  Tensor out({a.dim(0), b.dim(1)}, uninitialized);
  gemm(a.data(), b.data(), out.data(), a.dim(0), a.dim(1), b.dim(1));
  return out;
}

Tensor transpose(const Tensor& a) {
  TEAMNET_CHECK(a.rank() == 2);
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) out[j * m + i] = a[i * n + j];
  return out;
}

float sum_all(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.values()) acc += v;
  return static_cast<float>(acc);
}

float mean_all(const Tensor& a) {
  TEAMNET_CHECK(a.numel() > 0);
  return sum_all(a) / static_cast<float>(a.numel());
}

Tensor sum_axis(const Tensor& a, int axis) {
  TEAMNET_CHECK(a.rank() == 2 && (axis == 0 || axis == 1));
  const std::int64_t m = a.dim(0), n = a.dim(1);
  if (axis == 0) {
    Tensor out({1, n});
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j) out[j] += a[i * n + j];
    return out;
  }
  Tensor out({m, 1});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) out[i] += a[i * n + j];
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  TEAMNET_CHECK(logits.rank() == 2);
  const std::int64_t m = logits.dim(0), n = logits.dim(1);
  Tensor out(logits.shape());
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = logits.data() + i * n;
    float* orow = out.data() + i * n;
    float maxv = row[0];
    for (std::int64_t j = 1; j < n; ++j) maxv = std::max(maxv, row[j]);
    float denom = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) {
      orow[j] = std::exp(row[j] - maxv);
      denom += orow[j];
    }
    for (std::int64_t j = 0; j < n; ++j) orow[j] /= denom;
  }
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  TEAMNET_CHECK(logits.rank() == 2);
  const std::int64_t m = logits.dim(0), n = logits.dim(1);
  Tensor out(logits.shape());
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = logits.data() + i * n;
    float* orow = out.data() + i * n;
    float maxv = row[0];
    for (std::int64_t j = 1; j < n; ++j) maxv = std::max(maxv, row[j]);
    float denom = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) denom += std::exp(row[j] - maxv);
    const float log_denom = std::log(denom) + maxv;
    for (std::int64_t j = 0; j < n; ++j) orow[j] = row[j] - log_denom;
  }
  return out;
}

std::vector<int> argmax_rows(const Tensor& a) {
  TEAMNET_CHECK(a.rank() == 2);
  const std::int64_t m = a.dim(0), n = a.dim(1);
  std::vector<int> out(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = a.data() + i * n;
    out[static_cast<std::size_t>(i)] = static_cast<int>(
        std::max_element(row, row + n) - row);
  }
  return out;
}

std::vector<int> argmin_rows(const Tensor& a) {
  TEAMNET_CHECK(a.rank() == 2);
  const std::int64_t m = a.dim(0), n = a.dim(1);
  std::vector<int> out(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = a.data() + i * n;
    out[static_cast<std::size_t>(i)] = static_cast<int>(
        std::min_element(row, row + n) - row);
  }
  return out;
}

Tensor take_rows(const Tensor& a, const std::vector<int>& indices) {
  TEAMNET_CHECK(a.rank() >= 1);
  const std::int64_t rows = a.dim(0);
  const std::int64_t row_size = rows == 0 ? 0 : a.numel() / rows;
  Shape out_shape = a.shape();
  out_shape[0] = static_cast<std::int64_t>(indices.size());
  Tensor out(out_shape);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const int r = indices[i];
    TEAMNET_CHECK_MSG(r >= 0 && r < rows, "row index " << r << " out of " << rows);
    std::memcpy(out.data() + static_cast<std::int64_t>(i) * row_size,
                a.data() + r * row_size,
                static_cast<std::size_t>(row_size) * sizeof(float));
  }
  return out;
}

}  // namespace teamnet::ops
