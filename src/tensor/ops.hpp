// Non-differentiable tensor math. The autograd layer (autograd.hpp) wraps
// these kernels with backward rules; inference-only code calls them
// directly.
//
// Broadcasting for binary ops supports the patterns the models need:
//   * identical shapes
//   * scalar (numel == 1) against anything
//   * [m,n] against [1,n]  (row vector, e.g. bias add)
//   * [m,n] against [m,1]  (column vector, e.g. per-row scale)
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace teamnet::ops {

// ---- binary elementwise (with broadcasting) -------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

/// Sums `t` down to `target` shape (inverse of broadcasting, used by
/// autograd to reduce gradients).
Tensor reduce_to_shape(const Tensor& t, const Shape& target);

// ---- scalar ----------------------------------------------------------------
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// ---- unary -----------------------------------------------------------------
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);  ///< clamps input at 1e-12 to avoid -inf
Tensor tanh(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor abs(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor square(const Tensor& a);

// ---- matmul ----------------------------------------------------------------
/// [m,k] x [k,n] -> [m,n]
Tensor matmul(const Tensor& a, const Tensor& b);
/// 2-D transpose.
Tensor transpose(const Tensor& a);

// ---- reductions ------------------------------------------------------------
float sum_all(const Tensor& a);
float mean_all(const Tensor& a);
/// 2-D only: axis 0 -> [1,n], axis 1 -> [m,1].
Tensor sum_axis(const Tensor& a, int axis);

// ---- rows of a 2-D tensor --------------------------------------------------
/// Numerically-stable row-wise softmax of a [m,n] tensor.
Tensor softmax_rows(const Tensor& logits);
/// Row-wise log-softmax of a [m,n] tensor.
Tensor log_softmax_rows(const Tensor& logits);
/// Index of the max/min element in each row.
std::vector<int> argmax_rows(const Tensor& a);
std::vector<int> argmin_rows(const Tensor& a);

/// Rows of `a` selected by `indices` (gather along axis 0; works for any
/// rank by treating dim 0 as the row axis).
Tensor take_rows(const Tensor& a, const std::vector<int>& indices);

}  // namespace teamnet::ops
