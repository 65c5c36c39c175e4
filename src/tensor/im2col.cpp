#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/vec4.hpp"

namespace teamnet {

namespace {

using Range = std::pair<std::int64_t, std::int64_t>;

/// For each kernel index t, the output positions [lo, hi) along one axis
/// whose input position o * stride + t - pad lands inside [0, in), into
/// ranges[t]. Computed once per call: the divisions are too slow to repeat
/// for every channel.
void valid_ranges(Range* ranges, std::int64_t in, std::int64_t out,
                  std::int64_t kernel, std::int64_t stride, std::int64_t pad) {
  for (std::int64_t t = 0; t < kernel; ++t) {
    const std::int64_t offset = t - pad;
    const std::int64_t lo =
        offset >= 0 ? 0 : std::min(out, (-offset + stride - 1) / stride);
    const std::int64_t hi =
        in - offset <= 0 ? 0
                         : std::min(out, (in - offset + stride - 1) / stride);
    ranges[t] = {lo, std::max(lo, hi)};
  }
}

/// The convolution kernels' per-thread working memory. Nothing in it
/// outlives a call, so it only grows, to the largest conv the thread has
/// run, and every later call reuses it: the buffers stay in the cache of
/// the core that thread runs on (DESIGN.md §2.3).
struct ConvScratch {
  Tensor planes;   ///< conv2d_forward: one image's kx-shifted planes
  Tensor channel;  ///< conv2d_channel_scratch: per-channel epilogue constants
  std::vector<Range> ranges;       ///< valid_ranges along y, then along x
  std::vector<std::int64_t> rows;  ///< conv2d_forward: the GEMM's tap offsets
};

thread_local ConvScratch t_scratch;

/// At least `n` unset floats of `t`, reallocating only to grow.
float* unset_floats(Tensor& t, std::int64_t n) {
  if (t.numel() < n) {
    t = Tensor({n}, uninitialized);
  } else {
    poison_uninitialized(t.data(), n);
  }
  return t.data();
}

/// Grows `v` to at least `n` elements; never shrinks it.
template <class T>
T* at_least(std::vector<T>& v, std::int64_t n) {
  if (static_cast<std::int64_t>(v.size()) < n) {
    v.resize(static_cast<std::size_t>(n));
  }
  return v.data();
}

/// dst[i] += src[i] for i in [lo, hi), four lanes at a time: each element
/// still gets the one rounded add the scalar loop gives it.
void add_span(float* dst, const float* src, std::int64_t lo, std::int64_t hi) {
  std::int64_t i = lo;
  for (; i + 4 <= hi; i += 4) store4(dst + i, load4(dst + i) + load4(src + i));
  for (; i < hi; ++i) dst[i] += src[i];
}

}  // namespace

std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel,
                          std::int64_t stride, std::int64_t pad) {
  const std::int64_t out = (in + 2 * pad - kernel) / stride + 1;
  TEAMNET_CHECK_MSG(out > 0, "conv output dim <= 0 (in=" << in << " k=" << kernel
                                                         << " s=" << stride
                                                         << " p=" << pad << ")");
  return out;
}

float* conv2d_channel_scratch(std::int64_t channels) {
  return unset_floats(t_scratch.channel, channels);
}

Tensor conv2d_forward(const Tensor& input, const float* weight,
                      std::int64_t cout, const GemmEpilogue& epilogue,
                      std::int64_t kernel, std::int64_t stride,
                      std::int64_t pad, Tensor out) {
  TEAMNET_CHECK(input.rank() == 4);
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  const std::int64_t ho = conv_out_dim(h, kernel, stride, pad);
  const std::int64_t wo = conv_out_dim(w, kernel, stride, pad);
  // Each channel is copied into `phases` x `kernel` planes of hq x wo
  // floats: plane (py, kx) holds padded pixel (a * stride + py,
  // ox * stride + kx) at (a, ox). Tap (ky, kx) of output (oy, ox) reads
  // padded pixel (oy * stride + ky, ox * stride + kx), which is pixel
  // (oy + ky / stride, ox) of plane (ky % stride, kx): a GEMM B row of
  // Hout * Wout contiguous floats, starting ky / stride rows into the plane.
  // The rows of one plane serve every ky of its phase, so the copy is
  // kernel / phases times smaller than an im2col matrix.
  const std::int64_t phases = std::min(stride, kernel);
  const std::int64_t hq = ho + (kernel - 1) / stride;
  const std::int64_t plane = hq * wo, chan = phases * kernel * plane;
  const std::int64_t kk = c * kernel * kernel;

  ConvScratch& scratch = t_scratch;
  std::int64_t* rows = at_least(scratch.rows, kk);
  for (std::int64_t ky = 0, p = 0; ky < kernel; ++ky)
    for (std::int64_t kx = 0; kx < kernel; ++kx, ++p) {
      rows[p] = ((ky % stride) * kernel + kx) * plane + (ky / stride) * wo;
    }
  const std::int64_t taps = kernel * kernel;
  for (std::int64_t p = taps; p < kk; ++p) rows[p] = rows[p - taps] + chan;
  // Every plane float is written below, the padding included.
  float* const planes = unset_floats(scratch.planes, c * chan);

  // The plane rows (for phase py) and columns (for kx) that hold an input
  // pixel; the rest is padding.
  Range* const ys = at_least(scratch.ranges, phases + kernel);
  Range* const xs = ys + phases;
  valid_ranges(ys, h, hq, phases, stride, pad);
  valid_ranges(xs, w, wo, kernel, stride, pad);
  if (!out.defined()) {
    out = Tensor({n, cout, ho, wo}, uninitialized);
  }
  TEAMNET_CHECK_MSG(out.rank() == 4 && out.dim(0) == n && out.dim(1) == cout &&
                        out.dim(2) == ho && out.dim(3) == wo,
                    "conv2d_forward cannot write " << shape_to_string(out.shape()));
  for (std::int64_t img = 0; img < n; ++img) {
    float* dst = planes;
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* src = input.data() + (img * c + ch) * h * w;
      for (std::int64_t py = 0; py < phases; ++py) {
        const auto [a0, a1] = ys[py];
        for (std::int64_t kx = 0; kx < kernel; ++kx, dst += plane) {
          const auto [b0, b1] = xs[kx];
          if (a0 == a1 || b0 == b1) {
            std::fill_n(dst, plane, 0.0f);  // the plane holds only padding
            continue;
          }
          std::fill(dst, dst + a0 * wo, 0.0f);
          std::fill(dst + a1 * wo, dst + plane, 0.0f);
          if (stride == 1 && wo == w) {
            // Plane float j is input float j + delta, so the whole plane is
            // one copy; the padding columns it wraps across are zeroed below.
            const std::int64_t delta = kx - pad - pad * w;
            const std::int64_t j0 = a0 * wo + b0, j1 = (a1 - 1) * wo + b1;
            std::memcpy(dst + j0, src + (j0 + delta),
                        static_cast<std::size_t>(j1 - j0) * sizeof(float));
          } else {
            for (std::int64_t a = a0; a < a1; ++a) {
              // Input index of plane column ox is base + ox * stride.
              const std::int64_t base = (a * stride + py - pad) * w + kx - pad;
              for (std::int64_t ox = b0; ox < b1; ++ox) {
                dst[a * wo + ox] = src[base + ox * stride];
              }
            }
          }
          // Column by column: a row holds only a few padding columns, which
          // would otherwise become one memset call each.
          auto zero_column = [&](std::int64_t ox) {
            for (std::int64_t a = a0; a < a1; ++a) dst[a * wo + ox] = 0.0f;
          };
          for (std::int64_t ox = 0; ox < b0; ++ox) zero_column(ox);
          for (std::int64_t ox = b1; ox < wo; ++ox) zero_column(ox);
        }
      }
    }
    gemm_tn(weight, planes, rows, epilogue,
            out.data() + img * cout * ho * wo, cout, kk, ho * wo);
  }
  return out;
}

Tensor im2col(const Tensor& input, std::int64_t kernel, std::int64_t stride,
              std::int64_t pad) {
  TEAMNET_CHECK(input.rank() == 4);
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  const std::int64_t ho = conv_out_dim(h, kernel, stride, pad);
  const std::int64_t wo = conv_out_dim(w, kernel, stride, pad);
  // Every element is written below, the padding zeros included.
  Tensor cols({n, c * kernel * kernel, ho * wo}, uninitialized);

  Range* const ys = at_least(t_scratch.ranges, 2 * kernel);
  Range* const xs = ys + kernel;
  valid_ranges(ys, h, ho, kernel, stride, pad);
  valid_ranges(xs, w, wo, kernel, stride, pad);
  const float* in = input.data();
  float* out = cols.data();
  const std::int64_t hw = ho * wo;
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = in + (img * c + ch) * h * w;
      for (std::int64_t ky = 0; ky < kernel; ++ky) {
        const auto [oy0, oy1] = ys[ky];
        for (std::int64_t kx = 0; kx < kernel; ++kx, out += hw) {
          const auto [ox0, ox1] = xs[kx];
          if (oy0 == oy1 || ox0 == ox1) {
            std::fill_n(out, hw, 0.0f);  // the tap reads only padding
            continue;
          }
          // Output rows whose input row is padding.
          std::fill(out, out + oy0 * wo, 0.0f);
          std::fill(out + oy1 * wo, out + hw, 0.0f);
          // Column by column: a row holds only pad-many padding columns,
          // which would otherwise become one memset call each.
          auto zero_column = [&](std::int64_t ox) {
            for (std::int64_t oy = oy0; oy < oy1; ++oy) out[oy * wo + ox] = 0.0f;
          };
          if (stride == 1 && wo == w) {
            // Output pixel j reads input pixel j + delta, so the whole tap is
            // one copy; then zero the padding columns it wrapped across.
            const std::int64_t delta = (ky - pad) * w + kx - pad;
            const std::int64_t j0 = oy0 * wo + ox0, j1 = (oy1 - 1) * wo + ox1;
            std::memcpy(out + j0, plane + (j0 + delta),
                        static_cast<std::size_t>(j1 - j0) * sizeof(float));
          } else {
            for (std::int64_t oy = oy0; oy < oy1; ++oy) {
              // Input index of output column ox is base + ox * stride.
              const std::int64_t base = (oy * stride + ky - pad) * w + kx - pad;
              float* dst = out + oy * wo;
              if (stride == 1) {
                std::memcpy(dst + ox0, plane + (base + ox0),
                            static_cast<std::size_t>(ox1 - ox0) * sizeof(float));
              } else {
                for (std::int64_t ox = ox0; ox < ox1; ++ox) {
                  dst[ox] = plane[base + ox * stride];
                }
              }
            }
          }
          for (std::int64_t ox = 0; ox < ox0; ++ox) zero_column(ox);
          for (std::int64_t ox = ox1; ox < wo; ++ox) zero_column(ox);
        }
      }
    }
  }
  return cols;
}

Tensor col2im(const Tensor& cols, const Shape& input_shape, std::int64_t kernel,
              std::int64_t stride, std::int64_t pad) {
  TEAMNET_CHECK(cols.rank() == 3 && input_shape.size() == 4);
  const std::int64_t n = input_shape[0], c = input_shape[1], h = input_shape[2],
                     w = input_shape[3];
  const std::int64_t ho = conv_out_dim(h, kernel, stride, pad);
  const std::int64_t wo = conv_out_dim(w, kernel, stride, pad);
  TEAMNET_CHECK(cols.dim(0) == n && cols.dim(1) == c * kernel * kernel &&
                cols.dim(2) == ho * wo);

  Range* const ys = at_least(t_scratch.ranges, 2 * kernel);
  Range* const xs = ys + kernel;
  valid_ranges(ys, h, ho, kernel, stride, pad);
  valid_ranges(xs, w, wo, kernel, stride, pad);
  Tensor image(input_shape);
  const float* in = cols.data();
  float* out = image.data();
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      float* plane = out + (img * c + ch) * h * w;
      const float* taps = in + (img * c + ch) * kernel * kernel * ho * wo;
      // Taps in descending (ky, kx): a pixel's patches then arrive in
      // ascending (oy, ox), the order of the row-per-patch lowering. A
      // stride-1 row writes distinct contiguous pixels, so it is one vector
      // add and every pixel keeps that order.
      for (std::int64_t ky = kernel - 1; ky >= 0; --ky) {
        const auto [oy0, oy1] = ys[ky];
        for (std::int64_t kx = kernel - 1; kx >= 0; --kx) {
          const auto [ox0, ox1] = xs[kx];
          const float* row = taps + (ky * kernel + kx) * ho * wo;
          for (std::int64_t oy = oy0; oy < oy1; ++oy) {
            const std::int64_t base = (oy * stride + ky - pad) * w + kx - pad;
            const float* src = row + oy * wo;
            if (stride == 1) {
              add_span(plane + base, src, ox0, ox1);
            } else {
              for (std::int64_t ox = ox0; ox < ox1; ++ox) {
                plane[base + ox * stride] += src[ox];
              }
            }
          }
        }
      }
    }
  }
  return image;
}

}  // namespace teamnet
