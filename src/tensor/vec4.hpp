// Four floats in one SSE2 register on x86-64 (NEON on AArch64), shared by
// the tensor kernels that are written on GCC/Clang vector extensions. The
// GEMM (gemm.cpp) also builds an eight-lane copy of its kernel for AVX2
// hosts; f32x4 is the width every build can run.
//
// Lane arithmetic rounds exactly like the scalar statement it replaces:
// `v += s * w` is one rounded multiply and one rounded add per lane. Nothing
// enables FMA — ISO -std turns contraction off, the build sets no -march,
// and the GEMM's target("avx2") does not imply fma — so a vector kernel of
// either width reproduces its scalar loop bit for bit.
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
