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
// multiply and one rounded add per term, and then adds gemm_tn's bias once.
// That is exactly the order of the textbook triple loop followed by a bias
// pass, so results depend on neither the tiling nor the width. No width may
// use FMA, which rounds once: the build passes -ffp-contract=off, because
// GCC fuses `c += a * b` by default wherever the target has an FMA
// instruction (avx512f does). Trained checkpoints rely on this (DESIGN.md,
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

/// C[m,n] = A^T * B + bias where A is [k,m], B is [k,n] and bias[i] is added
/// to row i (null: no bias). C is overwritten, and each element is exactly
/// a zero-filled gemm_tn_accumulate followed by a separate bias pass — the
/// convolution forward, written once.
void gemm_tn(const float* a, const float* b, const float* bias, float* c,
             std::int64_t m, std::int64_t k, std::int64_t n);

/// C[m,n] += A * B^T where A is [m,k], B is [n,k]. Unlike the kernels above,
/// each dot product is summed from zero and then added to C.
void gemm_nt_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                        std::int64_t k, std::int64_t n);

namespace detail {

/// The tiled kernel behind gemm / gemm_accumulate (a_row = k, a_depth = 1)
/// and gemm_tn / gemm_tn_accumulate (a_row = 1, a_depth = m):
/// C[m,n] = seed + A(m,k) * B[k,n] + bias with A(i,p) = a[i * a_row +
/// p * a_depth], B and C row-major. The seed is C itself, or +0 when
/// `overwrite` is set (C is then never read); a non-null `bias` adds bias[i]
/// to row i after the last product.
using GemmKernel = void (*)(const float* a, std::int64_t a_row,
                            std::int64_t a_depth, const float* b, float* c,
                            std::int64_t m, std::int64_t k, std::int64_t n,
                            bool overwrite, const float* bias);

/// The kernel built for `lanes`-float vectors (4, 8 or 16), or nullptr if
/// this CPU cannot run it (8 lanes need x86 AVX2, 16 lanes x86 AVX-512F).
/// The entry points above use the widest kernel the CPU runs; tests reach
/// each width through this hook.
GemmKernel gemm_kernel(int lanes);

}  // namespace detail

}  // namespace teamnet
