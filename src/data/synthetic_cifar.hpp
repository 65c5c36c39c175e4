// Procedural stand-in for CIFAR-10 (DESIGN.md §1.1), downsized to SxSx3.
//
// The 10 classes keep CIFAR-10's ids and its semantic super-cluster
// structure, which Figure 9 of the paper depends on:
//   machines: 0 airplane, 1 automobile, 8 ship, 9 truck
//     - cool blue/grey palettes, gradient sky/road/sea backgrounds,
//       geometric (rectangular) foreground shapes
//   animals:  2 bird, 3 cat, 4 deer, 5 dog, 6 frog, 7 horse
//     - warm organic palettes, green/brown textured backgrounds,
//       elliptical blob foregrounds
// Classes inside a super-cluster share statistics, so an expert that learns
// one machine class finds the others familiar — exactly the structure that
// lets TeamNet's experts specialize along the machine/animal split.
#pragma once

#include <string>

#include "common/rng.hpp"
#include "data/dataset.hpp"

namespace teamnet::data {

struct CifarConfig {
  std::int64_t num_samples = 2048;
  std::int64_t image_size = 16;  ///< images are [3, size, size]
  float noise_stddev = 0.06f;
  std::uint64_t seed = 2;
  bool balanced = true;
};

/// The samples render on every usable core (DESIGN.md §1.1).
Dataset make_synthetic_cifar(const CifarConfig& config);

/// Rows [begin, end) of make_synthetic_cifar(config), byte for byte. Only
/// those rows are rendered; throws unless 0 <= begin <= end <= num_samples.
Dataset make_synthetic_cifar(const CifarConfig& config, std::int64_t begin,
                             std::int64_t end);

/// Renders one sample of `cls` (exposed for tests/examples).
Tensor render_cifar_sample(int cls, std::int64_t image_size, Rng& rng,
                           float noise_stddev);

/// CIFAR-10 class name for an id in [0, 10).
const std::string& cifar_class_name(int cls);

/// True when `cls` belongs to the "machines" super-cluster {0, 1, 8, 9}.
bool is_machine_class(int cls);

namespace detail {

/// make_synthetic_cifar in exactly `chunks` render chunks (at most one per
/// sample). Every count makes the same bytes.
Dataset make_synthetic_cifar(const CifarConfig& config, int chunks);

/// Rows [begin, end) of it, in exactly `chunks` render chunks.
Dataset make_synthetic_cifar(const CifarConfig& config, int chunks,
                             std::int64_t begin, std::int64_t end);

}  // namespace detail

}  // namespace teamnet::data
