#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "tensor/vec4.hpp"

namespace teamnet {

namespace {

// The 4x8 tile below accumulates on f32x4 lanes (vec4.hpp), so it
// reproduces the scalar `c += a * b` loops bit for bit.
constexpr std::int64_t kTileRows = 4;
constexpr std::int64_t kTileCols = 8;
// Depth of one pass over B. Splitting k only stores and reloads the C tile
// between chunks, so every C[i,j] still sums in ascending p.
constexpr std::int64_t kDepthChunk = 256;

/// C[R, 8] += A(R, k) * B[k, 8], where A(r, p) = a[r * a_row + p * a_depth],
/// B rows are `ldb` apart and C rows `ldc` apart. Each accumulator is seeded
/// from C and adds its products in ascending p. The row loops are unrolled
/// so the 2R accumulators live in registers rather than on the stack.
template <int R>
void micro_tile(const float* a, std::int64_t a_row, std::int64_t a_depth,
                const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
                std::int64_t k) {
  f32x4 lo[R], hi[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    lo[r] = load4(c + r * ldc);
    hi[r] = load4(c + r * ldc + 4);
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const f32x4 b_lo = load4(b + p * ldb);
    const f32x4 b_hi = load4(b + p * ldb + 4);
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
    store4(c + r * ldc, lo[r]);
    store4(c + r * ldc + 4, hi[r]);
  }
}

void tile(std::int64_t rows, const float* a, std::int64_t a_row,
          std::int64_t a_depth, const float* b, std::int64_t ldb, float* c,
          std::int64_t ldc, std::int64_t k) {
  switch (rows) {
    case 4: micro_tile<4>(a, a_row, a_depth, b, ldb, c, ldc, k); break;
    case 3: micro_tile<3>(a, a_row, a_depth, b, ldb, c, ldc, k); break;
    case 2: micro_tile<2>(a, a_row, a_depth, b, ldb, c, ldc, k); break;
    default: micro_tile<1>(a, a_row, a_depth, b, ldb, c, ldc, k); break;
  }
}

/// C[m,n] += A(m,k) * B[k,n] with A(i,p) = a[i * a_row + p * a_depth] and
/// B, C row-major. Shared by gemm_accumulate (a_row = k, a_depth = 1) and
/// gemm_tn_accumulate (a_row = 1, a_depth = m).
///
/// C is cut into 4x8 register tiles; column strips run outermost so a strip
/// of B stays in L1 while every row block of A streams past it. A column
/// tail (n % 8) is copied into a zero-padded 8-wide panel of B and a
/// scratch C tile, and only its real columns are written back.
void tiled_accumulate(const float* a, std::int64_t a_row,
                      std::int64_t a_depth, const float* b, float* c,
                      std::int64_t m, std::int64_t k, std::int64_t n) {
  const std::int64_t n_full = n - n % kTileCols;
  const std::int64_t tail = n - n_full;
  for (std::int64_t p0 = 0; p0 < k; p0 += kDepthChunk) {
    const std::int64_t kc = std::min(kDepthChunk, k - p0);
    const float* a_chunk = a + p0 * a_depth;
    const float* b_chunk = b + p0 * n;
    for (std::int64_t j0 = 0; j0 < n_full; j0 += kTileCols) {
      for (std::int64_t i0 = 0; i0 < m; i0 += kTileRows) {
        tile(std::min(kTileRows, m - i0), a_chunk + i0 * a_row, a_row,
             a_depth, b_chunk + j0, n, c + i0 * n + j0, n, kc);
      }
    }
    if (tail == 0) continue;
    float panel[kDepthChunk * kTileCols] = {};
    for (std::int64_t p = 0; p < kc; ++p) {
      std::memcpy(panel + p * kTileCols, b_chunk + p * n + n_full,
                  static_cast<std::size_t>(tail) * sizeof(float));
    }
    for (std::int64_t i0 = 0; i0 < m; i0 += kTileRows) {
      const std::int64_t rows = std::min(kTileRows, m - i0);
      float c_tile[kTileRows * kTileCols] = {};
      for (std::int64_t r = 0; r < rows; ++r) {
        std::memcpy(c_tile + r * kTileCols, c + (i0 + r) * n + n_full,
                    static_cast<std::size_t>(tail) * sizeof(float));
      }
      tile(rows, a_chunk + i0 * a_row, a_row, a_depth, panel, kTileCols,
           c_tile, kTileCols, kc);
      for (std::int64_t r = 0; r < rows; ++r) {
        std::memcpy(c + (i0 + r) * n + n_full, c_tile + r * kTileCols,
                    static_cast<std::size_t>(tail) * sizeof(float));
      }
    }
  }
}

}  // namespace

void gemm_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n) {
  tiled_accumulate(a, /*a_row=*/k, /*a_depth=*/1, b, c, m, k, n);
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  gemm_accumulate(a, b, c, m, k, n);
}

void gemm_tn_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                        std::int64_t k, std::int64_t n) {
  tiled_accumulate(a, /*a_row=*/1, /*a_depth=*/m, b, c, m, k, n);
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
