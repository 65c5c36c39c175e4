// Single-precision GEMM kernels. Small and dependency-free — enough
// throughput for the downsized models in this reproduction while the FLOP
// accounting (src/sim) models the edge devices' real throughput.
//
// gemm / gemm_accumulate / gemm_tn_accumulate / gemm_tn share one
// register-tiled kernel source, built at three vector widths: 4x32
// accumulator tiles in 16-float vectors on x86 CPUs with AVX-512F, 4x16
// tiles in 8-float vectors on x86 CPUs with AVX2, 4x8 tiles in 4-float
// vectors (SSE2, or NEON on AArch64) everywhere else. The width is read from
// CPUID once per process; there is no knob. Every C[i,j] is seeded from its
// current value (the *_accumulate entry points) or from +0 (gemm, gemm_tn:
// C is only written), adds A·B products in ascending p, one rounded
// multiply and one rounded add per term, and then runs gemm_tn's epilogue
// on the finished value while it is still in a register: + bias, then an
// eval BatchNorm, then ReLU, each step optional. That is exactly the order
// of the textbook triple loop followed by a bias pass, a BatchNorm pass and
// a ReLU pass, each step the same rounded operations, so results depend on
// neither the tiling nor the width nor the fusion. gemm_tn can
// also read B through a table of row offsets instead of a dense matrix:
// that is how a convolution reads its kernel taps straight out of a padded
// copy of its input, with no im2col matrix (im2col.hpp, conv2d_forward).
// No width may use FMA, which rounds once: the build passes
// -ffp-contract=off, because GCC fuses `c += a * b` by default wherever the
// target has an FMA instruction (avx512f does). Trained checkpoints rely on this (DESIGN.md,
// "Convolution lowering").
#pragma once

#include <cstdint>

namespace teamnet {

/// C[m,n] += A[m,k] * B[k,n]  (row-major, C must be pre-initialized).
void gemm_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n);

/// C[m,n] = A[m,k] * B[k,n]  (row-major; C is overwritten).
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n);

/// C[m,n] += A^T * B where A is [k,m], B is [k,n].
void gemm_tn_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                        std::int64_t k, std::int64_t n);

/// What gemm_tn does to each finished element v of row i, in this order,
/// each step skipped when its pointer is null (or `relu` is false):
///   v = v + bias[i]
///   v = gamma[i] * ((v - mean[i]) * inv_std[i]) + beta[i]   (eval BatchNorm)
///   v = v > 0 ? v : 0                                      (ReLU)
/// The BatchNorm step needs all four of its pointers. Every step is the
/// rounded operations of the pass it replaces (a bias add, nn::BatchNorm's
/// eval normalize, ops::relu: NaN and -0 become +0), so a fused result is
/// bit-identical to the three separate passes.
struct GemmEpilogue {
  const float* bias = nullptr;
  const float* mean = nullptr;
  const float* inv_std = nullptr;
  const float* gamma = nullptr;
  const float* beta = nullptr;
  bool relu = false;
};

/// C[m,n] = epilogue(A^T * B) where A is [k,m] and B is [k,n]. Row p of B
/// is the n floats at b + b_rows[p]; a null `b_rows` means a dense B, rows
/// n apart. Rows may overlap. C is overwritten, and each element is exactly
/// a zero-filled gemm_tn_accumulate over the same rows followed by separate
/// bias, BatchNorm and ReLU passes — a convolution's forward (and the
/// BatchNorm and ReLU after it), written once.
void gemm_tn(const float* a, const float* b, const std::int64_t* b_rows,
             const GemmEpilogue& epilogue, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n);

/// C[m,n] += A * B^T where A is [m,k], B is [n,k]. Unlike the kernels above,
/// each dot product is summed from zero and then added to C.
void gemm_nt_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                        std::int64_t k, std::int64_t n);

namespace detail {

/// The tiled kernel behind gemm / gemm_accumulate (a_row = k, a_depth = 1)
/// and gemm_tn / gemm_tn_accumulate (a_row = 1, a_depth = m):
/// C[m,n] = epilogue(seed + A(m,k) * B(k,n)) with A(i,p) = a[i * a_row +
/// p * a_depth] and C row-major. B(p,j) = b[b_rows[p] + j], or
/// b[p * n + j] (row-major) when `b_rows` is null; the kernel reads only
/// those n floats of each row. The seed is C itself, or +0 when `overwrite`
/// is set (C is then never read); a non-null `epilogue` runs on every
/// element after the last product.
using GemmKernel = void (*)(const float* a, std::int64_t a_row,
                            std::int64_t a_depth, const float* b,
                            const std::int64_t* b_rows, float* c,
                            std::int64_t m, std::int64_t k, std::int64_t n,
                            bool overwrite, const GemmEpilogue* epilogue);

/// The kernel built for `lanes`-float vectors (4, 8 or 16), or nullptr if
/// this CPU cannot run it (8 lanes need x86 AVX2, 16 lanes x86 AVX-512F).
/// The entry points above use the widest kernel the CPU runs; tests reach
/// each width through this hook.
GemmKernel gemm_kernel(int lanes);

}  // namespace detail

}  // namespace teamnet
