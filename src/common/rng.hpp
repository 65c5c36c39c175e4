// Deterministic random number generation.
//
// Every stochastic component in the repository (weight init, dataset
// synthesis, gate latent vectors, shake-shake mixing, noisy gating) draws
// from an explicitly seeded `Rng` so experiments are reproducible
// run-to-run. `Rng::fork` derives an independent child stream, which lets a
// parent seed fan out to per-expert / per-worker streams without
// correlation.
//
// The stream is std::mt19937_64's, word for word, and `normal`, `uniform`
// and `bernoulli` return what libstdc++ 12's std::normal_distribution,
// std::uniform_real_distribution and std::bernoulli_distribution would
// return from a fresh object on that engine (DESIGN.md §1.1, "The random
// stream"). Those values are part of every pinned dataset, checkpoint and
// bench row, so this file is the only place the std engine and
// distributions may appear (analyzer rule `std-random`).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace teamnet {

/// std::mt19937_64's output words, bit for bit, made 312 at a time: the
/// twist has no branch per word and the tempering runs over the whole
/// block, so a draw is one load. It is a UniformRandomBitGenerator with
/// std::mt19937_64's range, so std::shuffle and
/// std::uniform_int_distribution consume the same words from it.
class Mt64Engine {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kBlockWords = 312;

  explicit Mt64Engine(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ == kBlockWords) refill();
    return block_[next_++];
  }

  /// Twists the state into the next 312 words and tempers them into the
  /// block, several words per vector instruction on wider CPUs; the next
  /// draw is its first word. Draws call it when a block runs out, so
  /// calling it early skips the rest of the current block.
  void refill();

  /// The current block's words not drawn yet; skip(k) passes over the first
  /// k of them (k <= unread().size()) as k draws would.
  std::span<const std::uint64_t> unread() const {
    return {block_.data() + next_, kBlockWords - next_};
  }
  void skip(std::size_t k) { next_ += k; }

 private:
  std::array<std::uint64_t, kBlockWords> state_{};
  std::array<std::uint64_t, kBlockWords> block_{};
  std::size_t next_ = kBlockWords;
};

/// std::generate_canonical<float, 24> of one engine word: float(w) / 2^64,
/// held below 1. x86-64 below AVX-512 converts only signed 64-bit
/// integers, so the compiler's float(uint64_t) branches on the top bit,
/// which is random here. Instead a word with the top bit set is halved
/// with its low bit kept as a sticky bit, which rounds the same, and the
/// halving moves into the power-of-two scale.
inline float canonical_float(std::uint64_t w) {
  const std::uint64_t top = w >> 63;
  const auto h = static_cast<std::int64_t>((w >> top) | (w & top));
  const float scale =  // 2^-64, or 2^-63 for a halved word
      std::bit_cast<float>(0x1f80'0000u + (static_cast<std::uint32_t>(top) << 23));
  return std::min(static_cast<float>(h) * scale, 0x1.fffffep-1f);
}

/// std::generate_canonical<double, 53> of one engine word, the same way.
inline double canonical_double(std::uint64_t w) {
  const std::uint64_t top = w >> 63;
  const auto h = static_cast<std::int64_t>((w >> top) | (w & top));
  const double scale = std::bit_cast<double>(0x3bf0'0000'0000'0000ULL + (top << 52));
  return std::min(static_cast<double>(h) * scale, 0x1.fffffffffffffp-1);
}

/// One try of the polar method from its two words, x's first: each
/// coordinate is 2u - 1 taken in double and rounded to float, as libstdc++
/// does, and r2 = x·x + y·y. Rng::normal draws with it and
/// Rng::skip_normals walks with it, so the walk takes the draws' words.
struct PolarTry {
  float y;
  float r2;

  bool accepted() const { return !(r2 > 1.0f || r2 == 0.0f); }
};

inline PolarTry polar_try(std::uint64_t wx, std::uint64_t wy) {
  const float x = static_cast<float>(2.0f * canonical_float(wx) - 1.0);
  const float y = static_cast<float>(2.0f * canonical_float(wy) - 1.0);
  return {y, x * x + y * y};
}

namespace detail {

/// Mt64Engine::refill's work: twists the 312 state words in place and
/// tempers them into the block.
using Mt64Refill = void (*)(std::uint64_t* state, std::uint64_t* block);

/// The refill built for `lanes` 64-bit words per vector: 2 on every CPU, 4
/// with AVX2 and 8 with AVX-512F; nullptr for a width this CPU cannot run.
/// Every width makes the same words, and refill() runs the widest.
Mt64Refill mt64_refill(int lanes);

/// Tries the polar method on `pairs` consecutive word pairs at `words` until
/// `need` of them are accepted, taking each accept off `need`; returns the
/// pairs tried. Every width makes the same decisions as PolarTry.
using PolarScan = std::size_t (*)(const std::uint64_t* words,
                                  std::size_t pairs, std::int64_t& need);

/// The scan that tests `lanes` pairs at a time: 1 (one PolarTry per pair)
/// and 2 on every CPU, 4 with AVX2 and 8 with AVX-512F; nullptr for a
/// width this CPU cannot run.
PolarScan polar_scan(int lanes);

}  // namespace detail

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed'c0de'1234'5678ULL) : engine_(seed) {}

  /// Uniform float in [lo, hi).
  float uniform(float lo = 0.0f, float hi = 1.0f) {
    TEAMNET_CHECK(lo <= hi);
    return canonical_float(engine_()) * (hi - lo) + lo;
  }

  /// Standard normal (or scaled/shifted) float, by the polar method. The
  /// method makes a pair; this returns y·m and drops x·m, the value a
  /// fresh std::normal_distribution would save for a second call.
  float normal(float mean = 0.0f, float stddev = 1.0f) {
    TEAMNET_CHECK(stddev > 0.0f);
    PolarTry t{};
    do {
      const std::uint64_t wx = engine_();
      t = polar_try(wx, engine_());
    } while (!t.accepted());
    return t.y * std::sqrt(-2.0f * std::log(t.r2) / t.r2) * stddev + mean;
  }

  /// Leaves the stream where `count` calls of normal() would, without
  /// making their values: it runs only the polar method's accept test,
  /// several pairs at a time (DESIGN.md §1.1, "Building on every core").
  void skip_normals(std::int64_t count);

  /// Uniform integer in [lo, hi] inclusive.
  int randint(int lo, int hi) {
    std::uniform_int_distribution<int> dist(lo, hi);
    return dist(engine_);
  }

  /// Bernoulli draw with probability `p` of true.
  bool bernoulli(double p) {
    TEAMNET_CHECK(p >= 0.0 && p <= 1.0);
    return canonical_double(engine_()) < p;
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    std::shuffle(values.begin(), values.end(), engine_);
  }

  /// A permutation of 0..n-1.
  std::vector<int> permutation(int n) {
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    shuffle(perm);
    return perm;
  }

  /// Derives an independent child stream. Mixing with splitmix64 keeps
  /// sibling forks decorrelated even for consecutive salts.
  Rng fork(std::uint64_t salt) {
    std::uint64_t x = engine_() ^ (salt + 0x9e3779b97f4a7c15ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return Rng(x);
  }

  Mt64Engine& engine() { return engine_; }

 private:
  Mt64Engine engine_;
};

}  // namespace teamnet
