#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "tensor/vec4.hpp"

namespace teamnet {

namespace {

// Eight floats in one AVX register. Only the avx2-target kernel below does
// arithmetic on it; no function signature carries it, since passing a
// 32-byte vector by value changes the ABI between AVX and non-AVX code.
using f32x8 = float __attribute__((vector_size(32)));

// A tile is kTileRows rows of two V vectors each: 4x8 with f32x4 lanes,
// 4x16 with f32x8. A six-row f32x8 tile made the SS-14 forward slower on an
// AVX2 EPYC, though its GEMMs ran ~15% faster on a Sapphire Rapids Xeon.
constexpr std::int64_t kTileRows = 4;
template <class V>
constexpr std::int64_t kTileCols = 2 * std::int64_t{sizeof(V) / sizeof(float)};
// Depth of one pass over B. Splitting k only stores and reloads the C tile
// between chunks, so every C[i,j] still sums in ascending p.
constexpr std::int64_t kDepthChunk = 256;

// The kernel templates are inlined into one entry point per vector width,
// so each instantiation is compiled for the target of the function that
// calls it (SSE2/NEON for f32x4, AVX2 for f32x8).
#define TEAMNET_GEMM_INLINE inline __attribute__((always_inline))

/// C[R, 2w] += A(R, k) * B[k, 2w] for V of w lanes, where
/// A(r, p) = a[r * a_row + p * a_depth], B rows are `ldb` apart and C rows
/// `ldc` apart. Each accumulator is seeded from C and adds its products in
/// ascending p, one rounded multiply and one rounded add per lane — the
/// scalar `c += a * b` loop bit for bit, whatever the width. The row loops
/// are unrolled so the 2R accumulators live in registers.
template <class V, int R>
TEAMNET_GEMM_INLINE void micro_tile(const float* a, std::int64_t a_row,
                                    std::int64_t a_depth, const float* b,
                                    std::int64_t ldb, float* c,
                                    std::int64_t ldc, std::int64_t k) {
  constexpr std::int64_t w = kTileCols<V> / 2;
  V lo[R], hi[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    std::memcpy(&lo[r], c + r * ldc, sizeof(V));
    std::memcpy(&hi[r], c + r * ldc + w, sizeof(V));
  }
  for (std::int64_t p = 0; p < k; ++p) {
    V b_lo, b_hi;
    std::memcpy(&b_lo, b + p * ldb, sizeof(V));
    std::memcpy(&b_hi, b + p * ldb + w, sizeof(V));
    const float* ap = a + p * a_depth;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float av = ap[r * a_row];
      lo[r] += av * b_lo;
      hi[r] += av * b_hi;
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    std::memcpy(c + r * ldc, &lo[r], sizeof(V));
    std::memcpy(c + r * ldc + w, &hi[r], sizeof(V));
  }
}

template <class V>
TEAMNET_GEMM_INLINE void tile(std::int64_t rows, const float* a,
                              std::int64_t a_row, std::int64_t a_depth,
                              const float* b, std::int64_t ldb, float* c,
                              std::int64_t ldc, std::int64_t k) {
  switch (rows) {
    case 4: micro_tile<V, 4>(a, a_row, a_depth, b, ldb, c, ldc, k); break;
    case 3: micro_tile<V, 3>(a, a_row, a_depth, b, ldb, c, ldc, k); break;
    case 2: micro_tile<V, 2>(a, a_row, a_depth, b, ldb, c, ldc, k); break;
    default: micro_tile<V, 1>(a, a_row, a_depth, b, ldb, c, ldc, k); break;
  }
}

/// C[m,n] += A(m,k) * B[k,n] with A(i,p) = a[i * a_row + p * a_depth] and
/// B, C row-major (detail::GemmKernel).
///
/// C is cut into 4 x kTileCols register tiles; column strips run outermost
/// so a strip of B stays in L1 while every row block of A streams past it.
/// A column tail (n % kTileCols) is copied into a zero-padded full-width
/// panel of B and a scratch C tile, and only its real columns are written
/// back.
template <class V>
TEAMNET_GEMM_INLINE void tiled_accumulate(const float* a, std::int64_t a_row,
                                          std::int64_t a_depth, const float* b,
                                          float* c, std::int64_t m,
                                          std::int64_t k, std::int64_t n) {
  constexpr std::int64_t cols = kTileCols<V>;
  const std::int64_t n_full = n - n % cols;
  const std::int64_t tail = n - n_full;
  const auto tail_bytes = static_cast<std::size_t>(tail) * sizeof(float);
  for (std::int64_t p0 = 0; p0 < k; p0 += kDepthChunk) {
    const std::int64_t kc = std::min(kDepthChunk, k - p0);
    const float* a_chunk = a + p0 * a_depth;
    const float* b_chunk = b + p0 * n;
    for (std::int64_t j0 = 0; j0 < n_full; j0 += cols) {
      for (std::int64_t i0 = 0; i0 < m; i0 += kTileRows) {
        tile<V>(std::min(kTileRows, m - i0), a_chunk + i0 * a_row, a_row,
                a_depth, b_chunk + j0, n, c + i0 * n + j0, n, kc);
      }
    }
    if (tail == 0) continue;
    // Only the kc rows the tile reads are zeroed and filled.
    float panel[kDepthChunk * cols];
    std::memset(panel, 0, static_cast<std::size_t>(kc * cols) * sizeof(float));
    for (std::int64_t p = 0; p < kc; ++p) {
      std::memcpy(panel + p * cols, b_chunk + p * n + n_full, tail_bytes);
    }
    for (std::int64_t i0 = 0; i0 < m; i0 += kTileRows) {
      const std::int64_t rows = std::min(kTileRows, m - i0);
      float c_tile[kTileRows * cols] = {};
      for (std::int64_t r = 0; r < rows; ++r) {
        std::memcpy(c_tile + r * cols, c + (i0 + r) * n + n_full, tail_bytes);
      }
      tile<V>(rows, a_chunk + i0 * a_row, a_row, a_depth, panel, cols, c_tile,
              cols, kc);
      for (std::int64_t r = 0; r < rows; ++r) {
        std::memcpy(c + (i0 + r) * n + n_full, c_tile + r * cols, tail_bytes);
      }
    }
  }
}

void tiled_accumulate_4(const float* a, std::int64_t a_row,
                        std::int64_t a_depth, const float* b, float* c,
                        std::int64_t m, std::int64_t k, std::int64_t n) {
  tiled_accumulate<f32x4>(a, a_row, a_depth, b, c, m, k, n);
}

#if defined(__x86_64__) || defined(__i386__)
// AVX2 without FMA: each lane still rounds its multiply and its add
// separately, so this kernel's bits equal tiled_accumulate_4's.
__attribute__((target("avx2"))) void tiled_accumulate_8(
    const float* a, std::int64_t a_row, std::int64_t a_depth, const float* b,
    float* c, std::int64_t m, std::int64_t k, std::int64_t n) {
  tiled_accumulate<f32x8>(a, a_row, a_depth, b, c, m, k, n);
}
#endif

/// The widest kernel this CPU runs, read from CPUID once per process.
detail::GemmKernel host_kernel() {
  static const detail::GemmKernel kernel = [] {
    const detail::GemmKernel wide = detail::gemm_kernel(8);
    return wide != nullptr ? wide : detail::gemm_kernel(4);
  }();
  return kernel;
}

}  // namespace

namespace detail {

GemmKernel gemm_kernel(int lanes) {
  if (lanes == 4) return tiled_accumulate_4;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (lanes == 8 && __builtin_cpu_supports("avx2")) return tiled_accumulate_8;
#endif
  return nullptr;
}

}  // namespace detail

void gemm_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n) {
  host_kernel()(a, /*a_row=*/k, /*a_depth=*/1, b, c, m, k, n);
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  gemm_accumulate(a, b, c, m, k, n);
}

void gemm_tn_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                        std::int64_t k, std::int64_t n) {
  host_kernel()(a, /*a_row=*/1, /*a_depth=*/m, b, c, m, k, n);
}

void gemm_nt_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                        std::int64_t k, std::int64_t n) {
  // C[i,j] += dot(A[i,:], B[j,:]) — both operands row-contiguous. The dot
  // product starts from zero and is added to C once, so this kernel rounds
  // differently from the two above; matmul's backward relies on that order.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

}  // namespace teamnet
