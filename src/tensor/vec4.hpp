// Four floats in one SSE2 register on x86-64 (NEON on AArch64), shared by
// the tensor kernels that are written on GCC/Clang vector extensions. The
// GEMM (gemm.cpp) also builds eight- and sixteen-lane copies of its kernel
// for AVX2 and AVX-512F hosts; f32x4 is the width every build can run.
//
// Lane arithmetic rounds exactly like the scalar statement it replaces:
// `v += s * w` is one rounded multiply and one rounded add per lane. That
// needs contraction off, and ISO -std does not turn it off for C++: GCC
// fuses `v += s * w` into an FMA wherever the target has one (NEON, or the
// GEMM's target("avx512f")), and clang defaults to -ffp-contract=on. So the
// build passes -ffp-contract=off to every target (cmake/BuildFlags.cmake),
// and a vector kernel of any width reproduces its scalar loop bit for bit.
#pragma once

#include <cstdint>
#include <cstring>

namespace teamnet {

using f32x4 = float __attribute__((vector_size(16)));

/// Unaligned four-float load and store.
inline f32x4 load4(const float* p) {
  f32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, f32x4 v) { std::memcpy(p, &v, sizeof v); }

}  // namespace teamnet
