#include "common/rng.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace teamnet {

namespace {

// std::mt19937_64's parameters.
constexpr std::size_t kN = Mt64Engine::kBlockWords;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xb502'6f5a'a966'19e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

// The refill and the accept scan are templates or inline functions inlined
// into one entry point per width, so each copy is compiled for the target
// of the function that calls it (SSE2/NEON, AVX2, AVX-512F). No function
// signature carries a vector: passing a 32- or 64-byte vector by value
// changes the ABI between code built for different targets.
#define TEAMNET_TARGET_INLINE inline __attribute__((always_inline))

/// One word of the twist. libstdc++ writes the last term as
/// `(y & 1) ? a : 0`, a branch taken at random; the mask is the same value.
TEAMNET_TARGET_INLINE std::uint64_t twist(std::uint64_t word,
                                          std::uint64_t next,
                                          std::uint64_t far) {
  const std::uint64_t y = (word & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrixA);
}

/// Twists `x` into the next 312 state words and tempers them into `out`.
TEAMNET_TARGET_INLINE void twist_and_temper(std::uint64_t* __restrict x,
                                            std::uint64_t* __restrict out) {
  for (std::size_t k = 0; k < kN - kM; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kM]);
  }
  // Words 156..310 read words 0..154, rewritten above. That is an odd trip
  // count, and GCC's -O2 vectorizer takes no loop that needs a scalar
  // epilogue, so the loop stops one word short and the last word runs on
  // its own.
  for (std::size_t k = kN - kM; k < kN - 2; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k - (kN - kM)]);
  }
  x[kN - 2] = twist(x[kN - 2], x[kN - 1], x[kM - 2]);
  x[kN - 1] = twist(x[kN - 1], x[0], x[kM - 1]);
  for (std::size_t k = 0; k < kN; ++k) {
    std::uint64_t z = x[k];
    z ^= (z >> 29) & 0x5555'5555'5555'5555ULL;
    z ^= (z << 17) & 0x71d6'7fff'eda6'0000ULL;
    z ^= (z << 37) & 0xfff7'eee0'0000'0000ULL;
    z ^= z >> 43;
    out[k] = z;
  }
}

void refill_2(std::uint64_t* state, std::uint64_t* block) {
  twist_and_temper(state, block);
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void refill_4(std::uint64_t* state,
                                              std::uint64_t* block) {
  twist_and_temper(state, block);
}

__attribute__((target("avx512f"))) void refill_8(std::uint64_t* state,
                                                 std::uint64_t* block) {
  twist_and_temper(state, block);
}
#endif

/// The widest refill this CPU runs, read from CPUID once per process.
detail::Mt64Refill host_refill() {
  static const detail::Mt64Refill refill = [] {
    for (int lanes : {8, 4}) {
      if (const detail::Mt64Refill wide = detail::mt64_refill(lanes)) {
        return wide;
      }
    }
    return detail::mt64_refill(2);
  }();
  return refill;
}

// ---- The polar method's accept test, several pairs at a time --------------

/// A group of L pairs: its 2L words in two vectors of L lanes, then one
/// lane per pair.
template <int L>
struct PolarLanes {
  typedef std::uint64_t Words __attribute__((vector_size(8 * L)));
  typedef double Wide __attribute__((vector_size(8 * L)));
};

/// Sorts the L pairs at `words` by the polar method's accept test from the
/// top 24 bits of each word: `sure` gets 1 in each lane whose pair is
/// accepted and `unsure` 1 in each lane the filter cannot decide. The
/// lanes are the pairs in some order.
///
/// With a = w >> 40, x' = a·2^-23 − 1 lies within 2^-22 of polar_try's x:
/// canonical_float is within 2^-25 of w/2^64, which a·2^-24 truncates by
/// less than 2^-24, and x's own rounding adds at most 2^-25 + 2^-54. So
/// x'² is within 2^-21 of x², and with the three float roundings of
/// polar_try's r2 (at most 2^-23 together), r2' = x'² + y'² is within 2^-19
/// of it. r2' is computed exactly, as (a − 2^23)² + (b − 2^23)² in double,
/// which scales it by 2^46. A pair with r2' in [2^-16, 1 − 2^-16] then has
/// 0 < r2 < 1 (accepted), one with r2' > 1 + 2^-16 has r2 > 1 (rejected),
/// and only the rest, about 4 pairs in 10^5, are unsure.
template <int L, std::size_t... I>
TEAMNET_TARGET_INLINE void polar_filter(
    const std::uint64_t* words, typename PolarLanes<L>::Words& sure,
    typename PolarLanes<L>::Words& unsure, std::index_sequence<I...>) {
  using Words = typename PolarLanes<L>::Words;
  using Wide = typename PolarLanes<L>::Wide;
  Words w0, w1;
  std::memcpy(&w0, words, sizeof w0);
  std::memcpy(&w1, words + L, sizeof w1);
  // a − 2^23 by the 2^52 exponent trick, then its square; both exact.
  constexpr std::uint64_t kTwo52Bits = 0x4330'0000'0000'0000ULL;
  const Wide c0 = (Wide)((w0 >> 40) | kTwo52Bits) - (0x1p52 + 0x1p23);
  const Wide c1 = (Wide)((w1 >> 40) | kTwo52Bits) - (0x1p52 + 0x1p23);
  const Wide s0 = c0 * c0;
  const Wide s1 = c1 * c1;
  // Lanes 2k and 2k + 1 of a vector are a pair's x and y.
  const Wide r2 =
      __builtin_shufflevector(s0, s1, (I % 2 * L + I / 2 * 2)...) +
      __builtin_shufflevector(s0, s1, (I % 2 * L + I / 2 * 2 + 1)...);
  // Each bound is tested by the sign of an exact difference, not a vector
  // compare, which AVX-512F alone cannot turn back into lanes.
  constexpr double kOne = 0x1p46;
  constexpr double kMargin = 0x1p-16 * kOne;
  const Words low = (Words)(r2 - kMargin) >> 63;           // r2' < 2^-16
  const Words high = (Words)((kOne - kMargin) - r2) >> 63;  // r2' > 1 − 2^-16
  const Words over = (Words)((kOne + kMargin) - r2) >> 63;  // r2' > 1 + 2^-16
  sure = 1 - (low | high);
  unsure = (low | high) & (1 - over);
}

/// detail::PolarScan one pair at a time; inlined into every width, since
/// a call from AVX code into SSE code can leave the vector registers' upper
/// halves dirty and slow every SSE instruction that follows.
TEAMNET_TARGET_INLINE std::size_t polar_tries(const std::uint64_t* words,
                                              std::size_t pairs,
                                              std::int64_t& need) {
  std::size_t i = 0;
  for (; i < pairs && need > 0; ++i) {
    need -= polar_try(words[2 * i], words[2 * i + 1]).accepted();
  }
  return i;
}

/// detail::PolarScan, L pairs at a time. A span of pairs no longer than
/// `need` cannot overshoot it, so the filter counts the whole span before
/// anything is checked; a span with an unsure pair is counted again pair
/// by pair. The last few accepts, fewer than a group, go pair by pair.
template <int L>
TEAMNET_TARGET_INLINE std::size_t polar_scan_lanes(const std::uint64_t* words,
                                                   std::size_t pairs,
                                                   std::int64_t& need) {
  using Words = typename PolarLanes<L>::Words;
  std::size_t i = 0;
  while (need > 0 && i < pairs) {
    const std::size_t span =
        std::min(pairs - i, static_cast<std::size_t>(need));
    if (span < L && span < pairs - i) break;
    Words accepted{}, unsure_any{};
    std::uint64_t padded[2 * L] = {};  // zero words: x = y = −1, rejected
    for (std::size_t g = 0; g < span; g += L) {
      const std::uint64_t* group = words + 2 * (i + g);
      if (span - g < L) {  // the span's last pairs, then zero words
        std::copy_n(group, 2 * (span - g), padded);
        group = padded;
      }
      Words sure, unsure;
      polar_filter<L>(group, sure, unsure, std::make_index_sequence<L>{});
      accepted += sure;
      unsure_any |= unsure;
    }
    std::int64_t count = 0;
    bool unsure = false;
    for (int l = 0; l < L; ++l) {
      count += static_cast<std::int64_t>(accepted[l]);
      unsure = unsure || unsure_any[l] != 0;
    }
    if (unsure) {
      polar_tries(words + 2 * i, span, need);
    } else {
      need -= count;
    }
    i += span;
  }
  return i + polar_tries(words + 2 * i, pairs - i, need);
}

std::size_t polar_scan_1(const std::uint64_t* words, std::size_t pairs,
                         std::int64_t& need) {
  return polar_tries(words, pairs, need);
}

std::size_t polar_scan_2(const std::uint64_t* words, std::size_t pairs,
                         std::int64_t& need) {
  return polar_scan_lanes<2>(words, pairs, need);
}

#if defined(__x86_64__) || defined(__i386__)
// The filter's arithmetic is exact, so a fused multiply-add could not
// change a decision; -ffp-contract=off still keeps avx512f from fusing it,
// so the library holds no FMA instruction at all, like the GEMM's.
__attribute__((target("avx2"))) std::size_t polar_scan_4(
    const std::uint64_t* words, std::size_t pairs, std::int64_t& need) {
  return polar_scan_lanes<4>(words, pairs, need);
}

__attribute__((target("avx512f"))) std::size_t polar_scan_8(
    const std::uint64_t* words, std::size_t pairs, std::int64_t& need) {
  return polar_scan_lanes<8>(words, pairs, need);
}
#endif

/// The widest scan this CPU runs, read from CPUID once per process.
detail::PolarScan host_polar_scan() {
  static const detail::PolarScan scan = [] {
    for (int lanes : {8, 4}) {
      if (const detail::PolarScan wide = detail::polar_scan(lanes)) return wide;
    }
    return detail::polar_scan(2);
  }();
  return scan;
}

}  // namespace

namespace detail {

Mt64Refill mt64_refill(int lanes) {
  if (lanes == 2) return refill_2;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (lanes == 4 && __builtin_cpu_supports("avx2")) return refill_4;
  if (lanes == 8 && __builtin_cpu_supports("avx512f")) return refill_8;
#endif
  return nullptr;
}

PolarScan polar_scan(int lanes) {
  if (lanes == 1) return polar_scan_1;
  if (lanes == 2) return polar_scan_2;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (lanes == 4 && __builtin_cpu_supports("avx2")) return polar_scan_4;
  if (lanes == 8 && __builtin_cpu_supports("avx512f")) return polar_scan_8;
#endif
  return nullptr;
}

}  // namespace detail

void Rng::skip_normals(std::int64_t count) {
  const detail::PolarScan scan = host_polar_scan();
  while (count > 0) {
    const std::span<const std::uint64_t> words = engine_.unread();
    if (words.size() < 2) {
      // The next pair spans a refill, or the block is spent: try it as
      // normal() does.
      const std::uint64_t wx = engine_();
      count -= polar_try(wx, engine_()).accepted();
      continue;
    }
    engine_.skip(2 * scan(words.data(), words.size() / 2, count));
  }
}

Mt64Engine::Mt64Engine(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt64Engine::refill() {
  host_refill()(state_.data(), block_.data());
  next_ = 0;
}

}  // namespace teamnet
