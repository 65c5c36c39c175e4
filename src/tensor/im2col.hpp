// im2col / col2im transforms: convolution is lowered to GEMM, which is how
// the Conv2d autograd op computes both forward and backward passes.
//
// Layout is channel-major: columns are [N, C*k*k, Hout*Wout]. Row
// (c, ky, kx) of image n is one kernel tap — the input plane c shifted by
// (ky - pad, kx - pad) and sampled at the stride — so a convolution is one
// GEMM per image, out[n] = W^T · cols[n], that writes NCHW directly and
// runs its inner loop over the Hout*Wout output pixels.
//
// Summation order is part of the contract. Conv2d's forward and backward
// add their terms in exactly the order of the older row-per-patch lowering
// ([N*Hout*Wout, C*k*k]); col2im keeps it by folding taps in descending
// (ky, kx), so every pixel still receives its patches in ascending
// (oy, ox). Trained checkpoints are therefore byte-identical across the
// two lowerings (DESIGN.md, "Convolution lowering").
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace teamnet {

/// Output spatial size of a convolution along one axis.
std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel,
                          std::int64_t stride, std::int64_t pad);

/// Unfolds input [N, C, H, W] into columns [N, C * k * k, Hout * Wout].
/// Each row holds one kernel tap over every output pixel; zero padding is
/// materialized.
Tensor im2col(const Tensor& input, std::int64_t kernel, std::int64_t stride,
              std::int64_t pad);

/// Folds columns [N, C * k * k, Hout * Wout] back into an image gradient of
/// shape [N, C, H, W], accumulating overlapping patches (adjoint of im2col).
Tensor col2im(const Tensor& cols, const Shape& input_shape, std::int64_t kernel,
              std::int64_t stride, std::int64_t pad);

}  // namespace teamnet
