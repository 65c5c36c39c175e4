// Procedural stand-in for the MNIST handwritten-digit dataset (DESIGN.md
// §1.1). Digits 0-9 are rendered as jittered seven-segment glyphs on a
// 28x28 grayscale canvas: random translation, scale, stroke thickness,
// stroke intensity and pixel noise provide intra-class variance, while the
// segment layout keeps the 10 classes well separated — the properties
// TeamNet's competitive partitioning depends on.
#pragma once

#include "common/rng.hpp"
#include "data/dataset.hpp"

namespace teamnet::data {

struct MnistConfig {
  std::int64_t num_samples = 4096;
  std::int64_t image_size = 28;   ///< canvas side; images are flattened
  float noise_stddev = 0.08f;     ///< additive pixel noise
  float max_jitter = 2.0f;        ///< translation jitter in pixels
  std::uint64_t seed = 1;
  bool balanced = true;           ///< equal class counts (paper assumes this)
};

/// Images are flattened to [N, size*size] for the MLP family. The samples
/// render on every usable core (DESIGN.md §1.1).
Dataset make_synthetic_mnist(const MnistConfig& config);

/// Rows [begin, end) of make_synthetic_mnist(config), byte for byte. Only
/// those rows are rendered; throws unless 0 <= begin <= end <= num_samples.
Dataset make_synthetic_mnist(const MnistConfig& config, std::int64_t begin,
                             std::int64_t end);

/// Renders a single digit (exposed for tests/examples).
Tensor render_digit(int digit, std::int64_t image_size, Rng& rng,
                    float noise_stddev, float max_jitter);

namespace detail {

/// make_synthetic_mnist in exactly `chunks` render chunks (at most one per
/// sample). Every count makes the same bytes.
Dataset make_synthetic_mnist(const MnistConfig& config, int chunks);

/// Rows [begin, end) of it, in exactly `chunks` render chunks.
Dataset make_synthetic_mnist(const MnistConfig& config, int chunks,
                             std::int64_t begin, std::int64_t end);

}  // namespace detail

}  // namespace teamnet::data
