// Convolution lowering. A convolution is one GEMM per image,
// out[n] = W^T · cols[n] + b, whose B operand is the channel-major im2col
// matrix [N, C*k*k, Hout*Wout]: row (c, ky, kx) of image n is one kernel
// tap — the input plane c shifted by (ky - pad, kx - pad) and sampled at
// the stride — so the GEMM writes NCHW directly and runs its inner loop
// over the Hout*Wout output pixels.
//
// The forward pass (conv2d_forward) never builds that matrix. It copies
// each image once into zero-padded planes, shifted by kx and split by
// stride phase along y, and hands the GEMM one offset per tap, so every B
// row is read in place; the products and their order are the ones the
// im2col GEMM computes, so the output is bit-identical to it. The GEMM's
// epilogue (GemmEpilogue, gemm.hpp) adds the bias and, for a serving
// forward, also applies the eval BatchNorm and ReLU that follow the conv,
// so those activations are written once too (nn::Sequential). im2col and
// col2im are the backward pass's: the weight gradient multiplies by cols,
// and col2im folds the input gradient.
//
// Summation order is part of the contract. Conv2d's forward and backward
// add their terms in exactly the order of the older row-per-patch lowering
// ([N*Hout*Wout, C*k*k]); col2im keeps it by folding taps in descending
// (ky, kx), so every pixel still receives its patches in ascending
// (oy, ox). Trained checkpoints are therefore byte-identical across the
// lowerings (DESIGN.md, "Convolution lowering").
#pragma once

#include <cstdint>

#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

namespace teamnet {

/// Output spatial size of a convolution along one axis.
std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel,
                          std::int64_t stride, std::int64_t pad);

/// Convolution forward: input [N, C, H, W] -> [N, cout, Hout, Wout], with
/// out[n] = epilogue(W^T · im2col(input)[n]) bit for bit, but no im2col
/// matrix. `weight` is [C * k * k, cout] row-major; every pointer in
/// `epilogue` holds cout per-channel values (a bias, or a bias followed by
/// an eval BatchNorm and optionally ReLU), or is null. Writes every element
/// of `out` when it is given (it must have the output shape), else of a new
/// tensor, and returns it. The planes and tap offsets live in a per-thread
/// scratch that only grows, so a call allocates nothing but a new output.
Tensor conv2d_forward(const Tensor& input, const float* weight,
                      std::int64_t cout, const GemmEpilogue& epilogue,
                      std::int64_t kernel, std::int64_t stride,
                      std::int64_t pad, Tensor out = Tensor());

/// `channels` unset floats of the calling thread's scratch, for the
/// per-channel epilogue constants of its next conv2d_forward call (an eval
/// BatchNorm's inv_std). conv2d_forward never touches them; the next call
/// of this function on the thread may move them.
float* conv2d_channel_scratch(std::int64_t channels);

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
