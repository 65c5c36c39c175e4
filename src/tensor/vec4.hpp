// Four floats in one SSE2 register on x86-64 (NEON on AArch64), shared by
// the tensor kernels that are written on GCC/Clang vector extensions.
//
// Lane arithmetic on `f32x4` rounds exactly like the scalar statement it
// replaces: `v += s * w` is one rounded multiply and one rounded add per
// lane, and the build enables no FMA contraction (ISO -std, no -march), so a
// vector kernel reproduces its scalar loop bit for bit.
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
