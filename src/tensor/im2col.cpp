#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

namespace teamnet {

namespace {

using Range = std::pair<std::int64_t, std::int64_t>;

/// For each kernel index t, the output positions [lo, hi) along one axis
/// whose input position o * stride + t - pad lands inside [0, in). Computed
/// once per call: the divisions are too slow to repeat for every channel.
std::vector<Range> valid_ranges(std::int64_t in, std::int64_t out,
                                std::int64_t kernel, std::int64_t stride,
                                std::int64_t pad) {
  std::vector<Range> ranges(static_cast<std::size_t>(kernel));
  for (std::int64_t t = 0; t < kernel; ++t) {
    const std::int64_t offset = t - pad;
    const std::int64_t lo =
        offset >= 0 ? 0 : std::min(out, (-offset + stride - 1) / stride);
    const std::int64_t hi =
        in - offset <= 0 ? 0
                         : std::min(out, (in - offset + stride - 1) / stride);
    ranges[static_cast<std::size_t>(t)] = {lo, std::max(lo, hi)};
  }
  return ranges;
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

Tensor im2col(const Tensor& input, std::int64_t kernel, std::int64_t stride,
              std::int64_t pad) {
  TEAMNET_CHECK(input.rank() == 4);
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  const std::int64_t ho = conv_out_dim(h, kernel, stride, pad);
  const std::int64_t wo = conv_out_dim(w, kernel, stride, pad);
  // Every element is written below, the padding zeros included.
  Tensor cols({n, c * kernel * kernel, ho * wo}, uninitialized);

  const std::vector<Range> ys = valid_ranges(h, ho, kernel, stride, pad);
  const std::vector<Range> xs = valid_ranges(w, wo, kernel, stride, pad);
  const float* in = input.data();
  float* out = cols.data();
  const std::int64_t hw = ho * wo;
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = in + (img * c + ch) * h * w;
      for (std::int64_t ky = 0; ky < kernel; ++ky) {
        const auto [oy0, oy1] = ys[static_cast<std::size_t>(ky)];
        for (std::int64_t kx = 0; kx < kernel; ++kx, out += hw) {
          const auto [ox0, ox1] = xs[static_cast<std::size_t>(kx)];
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

  const std::vector<Range> ys = valid_ranges(h, ho, kernel, stride, pad);
  const std::vector<Range> xs = valid_ranges(w, wo, kernel, stride, pad);
  Tensor image(input_shape);
  const float* in = cols.data();
  float* out = image.data();
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      float* plane = out + (img * c + ch) * h * w;
      const float* taps = in + (img * c + ch) * kernel * kernel * ho * wo;
      // Taps in descending (ky, kx): a pixel's patches then arrive in
      // ascending (oy, ox), the order of the row-per-patch lowering.
      for (std::int64_t ky = kernel - 1; ky >= 0; --ky) {
        const auto [oy0, oy1] = ys[static_cast<std::size_t>(ky)];
        for (std::int64_t kx = kernel - 1; kx >= 0; --kx) {
          const auto [ox0, ox1] = xs[static_cast<std::size_t>(kx)];
          const float* row = taps + (ky * kernel + kx) * ho * wo;
          for (std::int64_t oy = oy0; oy < oy1; ++oy) {
            const std::int64_t base = (oy * stride + ky - pad) * w + kx - pad;
            const float* src = row + oy * wo;
            for (std::int64_t ox = ox0; ox < ox1; ++ox) {
              plane[base + ox * stride] += src[ox];
            }
          }
        }
      }
    }
  }
  return image;
}

}  // namespace teamnet
