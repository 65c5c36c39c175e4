// Single-precision GEMM kernels. Small and dependency-free — enough
// throughput for the downsized models in this reproduction while the FLOP
// accounting (src/sim) models the edge devices' real throughput.
//
// gemm / gemm_accumulate / gemm_tn_accumulate share one register-tiled
// kernel (4x8 accumulator tiles in 16-byte SIMD vectors; plain SSE2 on the
// default x86-64 build). Every C[i,j] is seeded from its current value and
// adds A·B products in ascending p, one rounded multiply and one rounded add
// per term — exactly the order of the textbook triple loop, so results do
// not depend on the tiling. Trained checkpoints rely on this (DESIGN.md,
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

/// C[m,n] += A * B^T where A is [m,k], B is [n,k]. Unlike the kernels above,
/// each dot product is summed from zero and then added to C.
void gemm_nt_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                        std::int64_t k, std::int64_t n);

}  // namespace teamnet
