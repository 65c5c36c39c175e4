// The synthetic sets' build on every usable core (DESIGN.md §1.1,
// "Building on every core"): byte for byte the set that rendering every
// sample in stream order and then Dataset::shuffle would make.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/fork_join.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"

namespace teamnet::data::detail {

/// Render chunks for a build: one per core this process may run on.
inline int default_build_chunks() { return fork_helpers() + 1; }

/// A 10-class set of n > 0 samples of shape `sample`, drawn from
/// Rng(seed) in turn (sample i's label is i % 10 when balanced, else a
/// draw) and then shuffled by rng.permutation(n) as Dataset::shuffle
/// moves rows: sample p[r] lands in row r. `render(rng, label, row)` draws one sample into
/// its image row; `walk(rng, label)` takes exactly the same words without
/// rendering. The walk runs over every sample, keeps the state at the
/// first sample of each of `chunks` runs and ends where the permutation
/// is drawn. The runs then render on the fork-join helpers, each from its
/// state, straight into their rows. Any chunk count makes the same bytes.
template <class Walk, class Render>
Dataset build_synthetic(std::int64_t n, const Shape& sample,
                        std::uint64_t seed, bool balanced, int chunks,
                        const Walk& walk, const Render& render) {
  Shape shape{n};
  shape.insert(shape.end(), sample.begin(), sample.end());
  Dataset out;
  out.num_classes = 10;
  out.images = Tensor(shape, uninitialized);
  out.labels.resize(static_cast<std::size_t>(n));
  const std::int64_t row_size = out.images.numel() / n;
  const auto label_of = [balanced](Rng& r, std::int64_t i) {
    return balanced ? static_cast<int>(i % 10) : r.randint(0, 9);
  };

  Rng rng(seed);
  const int runs = static_cast<int>(std::clamp<std::int64_t>(chunks, 1, n));
  const auto first = [n, runs](int c) { return n * c / runs; };
  std::vector<Rng> starts;
  starts.reserve(static_cast<std::size_t>(runs));
  for (int c = 0; c < runs; ++c) {
    starts.push_back(rng);
    for (std::int64_t i = first(c); i < first(c + 1); ++i) {
      walk(rng, label_of(rng, i));
    }
  }
  const std::vector<int> perm = rng.permutation(static_cast<int>(n));
  std::vector<int> row_of(perm.size());
  for (std::size_t r = 0; r < perm.size(); ++r) {
    row_of[static_cast<std::size_t>(perm[r])] = static_cast<int>(r);
  }

  // Runs [lo, hi): the caller keeps the first half and offers the second,
  // so a helper that takes it forks again.
  const auto render_runs = [&](const auto& self, int lo, int hi) -> void {
    if (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      fork_join([&] { self(self, lo, mid); }, [&] { self(self, mid, hi); });
      return;
    }
    Rng& r = starts[static_cast<std::size_t>(lo)];
    for (std::int64_t i = first(lo); i < first(lo + 1); ++i) {
      const int row = row_of[static_cast<std::size_t>(i)];
      const int label = label_of(r, i);
      render(r, label, out.images.data() + row * row_size);
      out.labels[static_cast<std::size_t>(row)] = label;
    }
  };
  render_runs(render_runs, 0, runs);
  out.validate();
  return out;
}

}  // namespace teamnet::data::detail
