#include "data/synthetic_mnist.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "data/synthetic_build.hpp"
#include "tensor/vec4.hpp"

namespace teamnet::data {

namespace {

// Seven-segment layout on a unit square (x right, y down):
//   A: top  B: top-right  C: bottom-right  D: bottom
//   E: bottom-left  F: top-left  G: middle
struct Segment {
  float x0, y0, x1, y1;
};

constexpr std::array<Segment, 7> kSegments = {{
    {0.15f, 0.05f, 0.85f, 0.05f},  // A
    {0.85f, 0.05f, 0.85f, 0.50f},  // B
    {0.85f, 0.50f, 0.85f, 0.95f},  // C
    {0.15f, 0.95f, 0.85f, 0.95f},  // D
    {0.15f, 0.50f, 0.15f, 0.95f},  // E
    {0.15f, 0.05f, 0.15f, 0.50f},  // F
    {0.15f, 0.50f, 0.85f, 0.50f},  // G
}};

// Active segments per digit (A..G).
constexpr std::array<std::uint8_t, 10> kDigitMask = {
    0b0111111,  // 0: ABCDEF
    0b0000110,  // 1: BC
    0b1011011,  // 2: ABDEG
    0b1001111,  // 3: ABCDG
    0b1100110,  // 4: BCFG
    0b1101101,  // 5: ACDFG
    0b1111101,  // 6: ACDEFG
    0b0000111,  // 7: ABC
    0b1111111,  // 8: all
    0b1101111,  // 9: ABCDFG
};

// One active segment of a glyph: its start point, and the direction and
// squared length that projecting a point onto it divides by. Every segment
// in kSegments has positive length, so the projection never divides 0 by 0.
struct SegmentGeometry {
  float x0, y0, dx, dy, len2;
};

// Minimum squared distance from four glyph-space points (gx, gy) to the
// segments `g[0, count)`. Each lane rounds exactly as the scalar
// statements t = clamp(((px - x0) * dx + (py - y0) * dy) / len2, 0, 1),
// c = (x0 + t * dx, y0 + t * dy), |p - c|^2 would; the clamp keeps
// std::clamp's -0.
f32x4 min_distance2(f32x4 gx, float gy, const SegmentGeometry* g,
                    std::size_t count) {
  const f32x4 zero = {};
  const f32x4 one = zero + 1.0f;
  f32x4 best = zero + std::numeric_limits<float>::infinity();
  for (std::size_t s = 0; s < count; ++s) {
    f32x4 t = ((gx - g[s].x0) * g[s].dx + (gy - g[s].y0) * g[s].dy) / g[s].len2;
    t = t < zero ? zero : (one < t ? one : t);
    const f32x4 ex = gx - (g[s].x0 + t * g[s].dx);
    const f32x4 ey = gy - (g[s].y0 + t * g[s].dy);
    const f32x4 d2 = ex * ex + ey * ey;
    best = d2 < best ? d2 : best;
  }
  return best;
}

// A sample's glyph transform, in the order render_digit draws it.
struct GlyphTransform {
  float scale, ox, oy, thickness, intensity, slant;
};

GlyphTransform draw_transform(Rng& rng, float size, float max_jitter) {
  GlyphTransform t{};
  t.scale = rng.uniform(0.55f, 0.75f) * size;
  t.ox = (size - t.scale) * 0.5f + rng.uniform(-max_jitter, max_jitter);
  t.oy = (size - t.scale) * 0.5f + rng.uniform(-max_jitter, max_jitter);
  t.thickness = rng.uniform(0.055f, 0.095f);  // in glyph units
  t.intensity = rng.uniform(0.75f, 1.0f);
  t.slant = rng.uniform(-0.12f, 0.12f);  // horizontal shear
  return t;
}

// render_digit into `out` ([image_size, image_size], every pixel written),
// for a digit and size render_digit has checked.
// The stroke distance is sqrt(min d^2) over the glyph's segments: sqrt is
// correctly rounded and monotone, so that is min(sqrt(d^2)) bit for bit,
// with one square root per pixel instead of one per segment. A row's
// geometry is computed four pixels at a time (the last group's spare lanes
// are dropped) and then its noise is drawn in pixel order, so the Rng
// stream is the per-pixel loop's.
void render_digit_into(float* out, int digit, std::int64_t image_size,
                       Rng& rng, float noise_stddev, float max_jitter) {
  const auto [scale, ox, oy, thickness, intensity, slant] =
      draw_transform(rng, static_cast<float>(image_size), max_jitter);

  std::array<SegmentGeometry, kSegments.size()> glyph{};
  std::size_t count = 0;
  const std::uint8_t mask = kDigitMask[static_cast<std::size_t>(digit)];
  for (std::size_t s = 0; s < kSegments.size(); ++s) {
    if (!(mask >> s & 1)) continue;
    const Segment& seg = kSegments[s];
    const float dx = seg.x1 - seg.x0, dy = seg.y1 - seg.y0;
    glyph[count++] = {seg.x0, seg.y0, dx, dy, dx * dx + dy * dy};
  }

  const f32x4 lane = {0.0f, 1.0f, 2.0f, 3.0f};
  for (std::int64_t y = 0; y < image_size; ++y, out += image_size) {
    // Map pixels back into glyph coordinates (inverse shear + scale).
    const float gy = (static_cast<float>(y) - oy) / scale;
    const float shear = slant * (gy - 0.5f);
    for (std::int64_t x = 0; x < image_size; x += 4) {
      const f32x4 gx = (lane + static_cast<float>(x) - ox) / scale - shear;
      const f32x4 d2 = min_distance2(gx, gy, glyph.data(), count);
      std::memcpy(out + x, &d2,
                  sizeof(float) * static_cast<std::size_t>(
                                      std::min<std::int64_t>(4, image_size - x)));
    }
    for (std::int64_t x = 0; x < image_size; ++x) {
      const float best = std::sqrt(out[x]);
      // Smooth stroke falloff.
      float v = 0.0f;
      if (best < thickness) {
        v = intensity;
      } else if (best < 2.0f * thickness) {
        v = intensity * (2.0f - best / thickness);
      }
      v += rng.normal(0.0f, noise_stddev);
      out[x] = std::clamp(v, 0.0f, 1.0f);
    }
  }
}

}  // namespace

Tensor render_digit(int digit, std::int64_t image_size, Rng& rng,
                    float noise_stddev, float max_jitter) {
  TEAMNET_CHECK(digit >= 0 && digit <= 9 && image_size >= 12);
  Tensor image({image_size, image_size}, uninitialized);
  render_digit_into(image.data(), digit, image_size, rng, noise_stddev,
                    max_jitter);
  return image;
}

Dataset make_synthetic_mnist(const MnistConfig& config) {
  return make_synthetic_mnist(config, 0, config.num_samples);
}

Dataset make_synthetic_mnist(const MnistConfig& config, std::int64_t begin,
                             std::int64_t end) {
  return detail::make_synthetic_mnist(config, detail::default_build_chunks(),
                                      begin, end);
}

namespace detail {

Dataset make_synthetic_mnist(const MnistConfig& config, int chunks) {
  return make_synthetic_mnist(config, chunks, 0, config.num_samples);
}

Dataset make_synthetic_mnist(const MnistConfig& config, int chunks,
                             std::int64_t begin, std::int64_t end) {
  TEAMNET_CHECK(config.num_samples > 0 && config.image_size >= 12);
  const std::int64_t features = config.image_size * config.image_size;
  return build_synthetic(
      config.num_samples, {features}, config.seed, config.balanced, chunks,
      begin, end,
      [&](Rng& rng, int) {
        draw_transform(rng, static_cast<float>(config.image_size),
                       config.max_jitter);
        rng.skip_normals(features);  // one per pixel
      },
      [&](Rng& rng, int digit, float* row) {
        render_digit_into(row, digit, config.image_size, rng,
                          config.noise_stddev, config.max_jitter);
      });
}

}  // namespace detail

}  // namespace teamnet::data
