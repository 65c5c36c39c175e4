#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

#include "tensor/vec4.hpp"

namespace teamnet {

namespace {

// Eight floats in one AVX register and sixteen in one AVX-512 register.
// Only the avx2- and avx512f-target kernels below do arithmetic on them; no
// function signature carries them, since passing a 32- or 64-byte vector by
// value changes the ABI between code built for different targets.
using f32x8 = float __attribute__((vector_size(32)));
using f32x16 = float __attribute__((vector_size(64)));

// A tile is kTileRows rows of NV V vectors each. Full tiles have two
// vectors per row: 4x8 with f32x4 lanes, 4x16 with f32x8, 4x32 with
// f32x16. A six-row f32x8 tile made the SS-14 forward slower on an AVX2
// EPYC, though its GEMMs ran ~15% faster on a Sapphire Rapids Xeon.
constexpr std::int64_t kTileRows = 4;
template <class V>
constexpr std::int64_t kLanes = std::int64_t{sizeof(V) / sizeof(float)};
// Depth of one pass over B. Splitting k only stores and reloads the C tile
// between chunks, so every C[i,j] still sums in ascending p.
constexpr std::int64_t kDepthChunk = 256;

// The kernel templates are inlined into one entry point per vector width,
// so each instantiation is compiled for the target of the function that
// calls it (SSE2/NEON for f32x4, AVX2 for f32x8, AVX-512F for f32x16).
#define TEAMNET_GEMM_INLINE inline __attribute__((always_inline))

/// B's rows come in two layouts, each its own instantiation of the kernel,
/// so the dense loop pays nothing for the offset table.
/// DenseRows: a row-major matrix, rows `ld` floats apart.
struct DenseRows {
  const float* b;
  std::int64_t ld;

  TEAMNET_GEMM_INLINE const float* row(std::int64_t p) const {
    return b + p * ld;
  }
  /// The same rows from row p0 on, starting at column j0.
  TEAMNET_GEMM_INLINE DenseRows from(std::int64_t p0, std::int64_t j0) const {
    return {b + p0 * ld + j0, ld};
  }
};

/// OffsetRows: row p at b + offsets[p]. Rows may overlap — a convolution's
/// kernel taps read in place from its padded input (conv2d_forward).
struct OffsetRows {
  const float* b;
  const std::int64_t* offsets;

  TEAMNET_GEMM_INLINE const float* row(std::int64_t p) const {
    return b + offsets[p];
  }
  TEAMNET_GEMM_INLINE OffsetRows from(std::int64_t p0, std::int64_t j0) const {
    return {b + j0, offsets + p0};
  }
};

/// C[R, NV*w] += A(R, k) * B[k, NV*w] for V of w lanes, where
/// A(r, p) = a[r * a_row + p * a_depth], B row p starts at b.row(p) and C
/// rows are `ldc` apart. Each accumulator is seeded from C, or with +0 when
/// `zero` is set (C is then write-only), and adds its products in ascending
/// p, one rounded multiply and one rounded add per lane — the scalar
/// `c += a * b` loop bit for bit, whatever the width. A non-null `ep` then
/// runs on every accumulator of row r as row i0 + r of the whole C, step by
/// step as GemmEpilogue says, before the one store. The loops are unrolled
/// so the R*NV accumulators live in registers.
template <class V, int R, int NV, class Rows>
TEAMNET_GEMM_INLINE void micro_tile(const float* a, std::int64_t a_row,
                                    std::int64_t a_depth, Rows b, float* c,
                                    std::int64_t ldc, std::int64_t k, bool zero,
                                    const GemmEpilogue* ep, std::int64_t i0) {
  constexpr std::int64_t w = kLanes<V>;
  V acc[R][NV];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      if (zero) {
        acc[r][v] = V{};
      } else {
        std::memcpy(&acc[r][v], c + r * ldc + v * w, sizeof(V));
      }
    }
  }
  for (std::int64_t p = 0; p < k; ++p) {
    V bv[NV];
    const float* bp = b.row(p);
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      std::memcpy(&bv[v], bp + v * w, sizeof(V));
    }
    const float* ap = a + p * a_depth;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float av = ap[r * a_row];
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) acc[r][v] += av * bv[v];
    }
  }
  if (ep != nullptr) {
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const std::int64_t i = i0 + r;
      if (ep->bias != nullptr) {
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) acc[r][v] += ep->bias[i];
      }
      if (ep->mean != nullptr) {
        const float m = ep->mean[i], is = ep->inv_std[i], g = ep->gamma[i],
                    bt = ep->beta[i];
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
          acc[r][v] = g * ((acc[r][v] - m) * is) + bt;
        }
      }
      if (ep->relu) {
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
          acc[r][v] = acc[r][v] > V{} ? acc[r][v] : V{};
        }
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      std::memcpy(c + r * ldc + v * w, &acc[r][v], sizeof(V));
    }
  }
}

template <class V, int NV, class Rows>
TEAMNET_GEMM_INLINE void tile(std::int64_t rows, const float* a,
                              std::int64_t a_row, std::int64_t a_depth,
                              Rows b, float* c, std::int64_t ldc,
                              std::int64_t k, bool zero,
                              const GemmEpilogue* ep, std::int64_t i0) {
  switch (rows) {
    case 4:
      micro_tile<V, 4, NV>(a, a_row, a_depth, b, c, ldc, k, zero, ep, i0);
      break;
    case 3:
      micro_tile<V, 3, NV>(a, a_row, a_depth, b, c, ldc, k, zero, ep, i0);
      break;
    case 2:
      micro_tile<V, 2, NV>(a, a_row, a_depth, b, c, ldc, k, zero, ep, i0);
      break;
    default:
      micro_tile<V, 1, NV>(a, a_row, a_depth, b, c, ldc, k, zero, ep, i0);
      break;
  }
}

/// C[m,n] = epilogue(seed + A(m,k) * B[k,n]) with
/// A(i,p) = a[i * a_row + p * a_depth], B row p at b.row(p) and C row-major
/// (detail::GemmKernel).
///
/// C is cut into 4 x 2w register tiles for V of w lanes; column strips run
/// outermost so a strip of B stays in L1 while every row block of A streams
/// past it. A remainder of at least w columns takes one strip of 4 x w
/// tiles, so a 16-column GEMM runs on 16-lane vectors without padding. The
/// last n % w columns are copied into a zero-padded w-wide panel of B and a
/// scratch C tile, and only their real columns are written back, so no
/// vector load reads past column n - 1 of a B row.
/// `overwrite` seeds the first depth chunk with +0 instead of C, and the
/// epilogue runs after the last chunk, so every C[i,j] is
/// epilogue(seed + products in ascending p). The chunk loop runs once even
/// when k == 0, so C is still written.
template <class V, class Rows>
TEAMNET_GEMM_INLINE void tiled_accumulate(const float* a, std::int64_t a_row,
                                          std::int64_t a_depth, Rows b,
                                          float* c, std::int64_t m,
                                          std::int64_t k, std::int64_t n,
                                          bool overwrite,
                                          const GemmEpilogue* ep) {
  constexpr std::int64_t w = kLanes<V>;
  const std::int64_t n_full = n - n % (2 * w);
  const std::int64_t n_half = n - n % w;  // n_full, or n_full + w
  const std::int64_t tail = n - n_half;
  const auto tail_bytes = static_cast<std::size_t>(tail) * sizeof(float);
  for (std::int64_t p0 = 0; p0 == 0 || p0 < k; p0 += kDepthChunk) {
    const std::int64_t kc = std::min(kDepthChunk, k - p0);
    const float* a_chunk = a + p0 * a_depth;
    const bool zero = overwrite && p0 == 0;
    const GemmEpilogue* chunk_ep = p0 + kc >= k ? ep : nullptr;
    for (std::int64_t j0 = 0; j0 < n_full; j0 += 2 * w) {
      for (std::int64_t i0 = 0; i0 < m; i0 += kTileRows) {
        tile<V, 2>(std::min(kTileRows, m - i0), a_chunk + i0 * a_row, a_row,
                   a_depth, b.from(p0, j0), c + i0 * n + j0, n, kc, zero,
                   chunk_ep, i0);
      }
    }
    if (n_half > n_full) {
      for (std::int64_t i0 = 0; i0 < m; i0 += kTileRows) {
        tile<V, 1>(std::min(kTileRows, m - i0), a_chunk + i0 * a_row, a_row,
                   a_depth, b.from(p0, n_full), c + i0 * n + n_full, n,
                   kc, zero, chunk_ep, i0);
      }
    }
    if (tail == 0) continue;
    // Only the kc rows the tile reads are zeroed and filled.
    float panel[kDepthChunk * w];
    std::memset(panel, 0, static_cast<std::size_t>(kc * w) * sizeof(float));
    for (std::int64_t p = 0; p < kc; ++p) {
      std::memcpy(panel + p * w, b.row(p0 + p) + n_half, tail_bytes);
    }
    for (std::int64_t i0 = 0; i0 < m; i0 += kTileRows) {
      const std::int64_t rows = std::min(kTileRows, m - i0);
      float c_tile[kTileRows * w] = {};
      if (!zero) {
        for (std::int64_t r = 0; r < rows; ++r) {
          std::memcpy(c_tile + r * w, c + (i0 + r) * n + n_half, tail_bytes);
        }
      }
      tile<V, 1>(rows, a_chunk + i0 * a_row, a_row, a_depth,
                 DenseRows{panel, w}, c_tile, w, kc, zero, chunk_ep, i0);
      for (std::int64_t r = 0; r < rows; ++r) {
        std::memcpy(c + (i0 + r) * n + n_half, c_tile + r * w, tail_bytes);
      }
    }
  }
}

/// One width's kernel: the offset-table or the dense instantiation.
template <class V>
TEAMNET_GEMM_INLINE void dispatch_rows(const float* a, std::int64_t a_row,
                                       std::int64_t a_depth, const float* b,
                                       const std::int64_t* b_rows, float* c,
                                       std::int64_t m, std::int64_t k,
                                       std::int64_t n, bool overwrite,
                                       const GemmEpilogue* ep) {
  if (b_rows != nullptr) {
    tiled_accumulate<V>(a, a_row, a_depth, OffsetRows{b, b_rows}, c, m, k, n,
                        overwrite, ep);
  } else {
    tiled_accumulate<V>(a, a_row, a_depth, DenseRows{b, n}, c, m, k, n,
                        overwrite, ep);
  }
}

void tiled_accumulate_4(const float* a, std::int64_t a_row,
                        std::int64_t a_depth, const float* b,
                        const std::int64_t* b_rows, float* c, std::int64_t m,
                        std::int64_t k, std::int64_t n, bool overwrite,
                        const GemmEpilogue* ep) {
  dispatch_rows<f32x4>(a, a_row, a_depth, b, b_rows, c, m, k, n, overwrite,
                       ep);
}

#if defined(__x86_64__) || defined(__i386__)
// The wide kernels round each lane's multiply and add separately, exactly
// like tiled_accumulate_4, so their bits equal its bits. That holds only
// because the build passes -ffp-contract=off: avx2 by itself enables no FMA,
// but avx512f does, and GCC would otherwise fuse `acc += av * bv`.
__attribute__((target("avx2"))) void tiled_accumulate_8(
    const float* a, std::int64_t a_row, std::int64_t a_depth, const float* b,
    const std::int64_t* b_rows, float* c, std::int64_t m, std::int64_t k,
    std::int64_t n, bool overwrite, const GemmEpilogue* ep) {
  dispatch_rows<f32x8>(a, a_row, a_depth, b, b_rows, c, m, k, n, overwrite,
                       ep);
}

__attribute__((target("avx512f"))) void tiled_accumulate_16(
    const float* a, std::int64_t a_row, std::int64_t a_depth, const float* b,
    const std::int64_t* b_rows, float* c, std::int64_t m, std::int64_t k,
    std::int64_t n, bool overwrite, const GemmEpilogue* ep) {
  dispatch_rows<f32x16>(a, a_row, a_depth, b, b_rows, c, m, k, n, overwrite,
                        ep);
}
#endif

/// The widest kernel this CPU runs, read from CPUID once per process.
detail::GemmKernel host_kernel() {
  static const detail::GemmKernel kernel = [] {
    for (int lanes : {16, 8}) {
      if (const detail::GemmKernel wide = detail::gemm_kernel(lanes)) {
        return wide;
      }
    }
    return detail::gemm_kernel(4);
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
  if (lanes == 16 && __builtin_cpu_supports("avx512f")) {
    return tiled_accumulate_16;
  }
#endif
  return nullptr;
}

}  // namespace detail

void gemm_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n) {
  host_kernel()(a, /*a_row=*/k, /*a_depth=*/1, b, /*b_rows=*/nullptr, c, m, k,
                n, /*overwrite=*/false, /*epilogue=*/nullptr);
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  host_kernel()(a, /*a_row=*/k, /*a_depth=*/1, b, /*b_rows=*/nullptr, c, m, k,
                n, /*overwrite=*/true, /*epilogue=*/nullptr);
}

void gemm_tn_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                        std::int64_t k, std::int64_t n) {
  host_kernel()(a, /*a_row=*/1, /*a_depth=*/m, b, /*b_rows=*/nullptr, c, m, k,
                n, /*overwrite=*/false, /*epilogue=*/nullptr);
}

void gemm_tn(const float* a, const float* b, const std::int64_t* b_rows,
             const GemmEpilogue& epilogue, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n) {
  host_kernel()(a, /*a_row=*/1, /*a_depth=*/m, b, b_rows, c, m, k, n,
                /*overwrite=*/true, &epilogue);
}

void gemm_nt_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                        std::int64_t k, std::int64_t n) {
  // C[i,j] += dot(A[i,:], B[j,:]): each dot product is summed from +0 in
  // ascending p and then added to C once, so this rounds differently from
  // the kernels above; matmul's backward relies on that order. The tiled
  // kernel with an overwrite seed computes exactly those dot products, from
  // B^T, into a scratch matrix that is then added to C.
  const auto bt = std::make_unique_for_overwrite<float[]>(
      static_cast<std::size_t>(k * n));
  for (std::int64_t j = 0; j < n; ++j)
    for (std::int64_t p = 0; p < k; ++p) bt[p * n + j] = b[j * k + p];
  const auto dots = std::make_unique_for_overwrite<float[]>(
      static_cast<std::size_t>(m * n));
  host_kernel()(a, /*a_row=*/k, /*a_depth=*/1, bt.get(), /*b_rows=*/nullptr,
                dots.get(), m, k, n, /*overwrite=*/true, /*epilogue=*/nullptr);
  for (std::int64_t i = 0; i < m * n; ++i) c[i] += dots[i];
}

}  // namespace teamnet
