#include "net/message.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/error.hpp"
#include "common/raw_bytes.hpp"
#include "nn/serialize.hpp"

namespace teamnet::net {

namespace {

/// The rank word's flag bit of a compact tensor.
constexpr std::uint32_t kCompactRank = 0x80000000u;

/// The most distinct top bytes a compact tensor's palette holds.
constexpr int kMaxPalette = 16;

/// Elements per bitmap word: the compact codec's step.
constexpr std::int64_t kBlock = 64;

std::int64_t dense_bytes(const Tensor& t) {
  return t.numel() * static_cast<std::int64_t>(sizeof(float));
}

/// Bits of one palette index for a palette of p top bytes: ceil(log2 p).
int index_bits(int p) {
  return p <= 1 ? 0 : std::bit_width(static_cast<unsigned>(p - 1));
}

/// Bytes of the index run of `kept` elements with `bits` bits each.
std::int64_t index_bytes(std::int64_t kept, int bits) {
  return (kept * bits + 7) / 8;
}

/// The bit pattern of an element.
std::uint32_t bits_of(float v) { return std::bit_cast<std::uint32_t>(v); }

/// The bitmap word of the `count` elements `i` starts, read from the
/// frame's bitmap: only that word's own bytes.
std::uint64_t map_word(const char* map, std::size_t i, std::size_t count) {
  std::uint64_t word = 0;
  std::memcpy(&word, map + i / 8, (count + 7) / 8);
  return word;
}

/// Copies the bit patterns of x[0, count), count <= kBlock, that are not
/// +0.0f (the elements the compact coding keeps) to `kept`, in order and
/// with no branch per element, and returns their bitmap word: bit j set
/// when x[j] is kept. `k` becomes their number.
std::uint64_t gather_kept(const float* x, std::size_t count,
                          std::uint32_t* kept, std::size_t& k) {
  std::uint64_t word = 0;
  k = 0;
  for (std::size_t j = 0; j < count; ++j) {
    kept[k] = bits_of(x[j]);
    const bool keep = kept[k] != 0;
    word |= std::uint64_t{keep} << j;
    k += keep ? 1 : 0;
  }
  return word;
}

/// Whether a detail::PortableCompactWalks is alive on this thread.
thread_local bool portable_walks = false;

#if defined(__x86_64__)
/// Whether this thread's compact tensors take the AVX2 + BMI2 walks: the
/// CPU runs them (CPUID, read once) and no PortableCompactWalks is alive.
bool use_avx2_walks() {
  static const bool runs = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2");
  }();
  return runs && !portable_walks;
}

/// compact_plan's pass sixteen elements at a time: returns the kept count
/// of x[0, n) and puts the distinct top bytes of the kept elements in
/// `tops`, unordered; `distinct` is their number, or kMaxPalette + 1 once
/// more were seen (and `tops` is then incomplete). Each 16 top bytes are
/// compared with those seen so far; only a new one leaves the vector.
__attribute__((target("avx2,bmi2"))) std::int64_t scan_tops_avx2(
    const float* x, std::int64_t n, std::uint8_t* tops, int& distinct) {
  __m128i seen[kMaxPalette] = {};
  std::int64_t kept = 0;
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m128i v[4];
    __m128i zero[4];
    for (int q = 0; q < 4; ++q) {
      v[q] = _mm_castps_si128(_mm_loadu_ps(x + j + 4 * q));
      zero[q] = _mm_cmpeq_epi32(v[q], _mm_setzero_si128());
    }
    const __m128i dropped = _mm_packs_epi16(_mm_packs_epi32(zero[0], zero[1]),
                                            _mm_packs_epi32(zero[2], zero[3]));
    kept += 16 - std::popcount(
                     static_cast<unsigned>(_mm_movemask_epi8(dropped)));
    if (distinct > kMaxPalette) continue;
    const __m128i top = _mm_packus_epi16(
        _mm_packus_epi32(_mm_srli_epi32(v[0], 24), _mm_srli_epi32(v[1], 24)),
        _mm_packus_epi32(_mm_srli_epi32(v[2], 24), _mm_srli_epi32(v[3], 24)));
    __m128i known = dropped;
    for (int i = 0; i < distinct; ++i) {
      known = _mm_or_si128(known, _mm_cmpeq_epi8(top, seen[i]));
    }
    auto unknown = static_cast<unsigned>(~_mm_movemask_epi8(known)) & 0xffffu;
    while (unknown != 0) {
      if (distinct == kMaxPalette) {
        distinct = kMaxPalette + 1;
        break;
      }
      tops[distinct] = static_cast<std::uint8_t>(
          bits_of(x[j + std::countr_zero(unknown)]) >> 24);
      seen[distinct] = _mm_set1_epi8(static_cast<char>(tops[distinct]));
      unknown &= ~static_cast<unsigned>(
          _mm_movemask_epi8(_mm_cmpeq_epi8(top, seen[distinct])));
      ++distinct;
    }
  }
  for (; j < n; ++j) {
    const std::uint32_t v = bits_of(x[j]);
    if (v == 0) continue;
    ++kept;
    const auto top = static_cast<std::uint8_t>(v >> 24);
    if (distinct > kMaxPalette || std::count(tops, tops + distinct, top) != 0) {
      continue;
    }
    if (distinct == kMaxPalette) {
      distinct = kMaxPalette + 1;
    } else {
      tops[distinct++] = top;
    }
  }
  return kept;
}
#endif

/// How a tensor goes out compact: its kept-element count and, when a
/// palette is strictly smaller than raw floats, the distinct top bytes of
/// the kept elements (a float's sign and its 7 high exponent bits) in
/// ascending order; p = 0 means raw floats.
struct CompactPlan {
  std::int64_t kept = 0;
  int p = 0;
  std::uint8_t palette[kMaxPalette] = {};
  std::int64_t bytes = 0;  ///< bitmap, palette size byte and payload
};

/// `t`'s compact plan when that coding is strictly smaller than its dense
/// elements; nullopt when the dense form wins.
std::optional<CompactPlan> compact_plan(const Tensor& t) {
  const float* x = t.data();
  const std::int64_t n = t.numel();
  std::uint8_t present[256] = {};
  std::int64_t kept = 0;
  int distinct = 0;
#if defined(__x86_64__)
  if (use_avx2_walks()) {
    std::uint8_t tops[kMaxPalette];
    kept = scan_tops_avx2(x, n, tops, distinct);
    if (distinct <= kMaxPalette) {
      for (int i = 0; i < distinct; ++i) present[tops[i]] = 1;
    }
  } else  // the portable pass below
#endif
  {
    // One pass, no branch per element: every element marks its top byte,
    // and +0.0f's mark on top byte 0 is replaced by whether a kept element
    // (bit pattern 1 to 0xffffff) has that top byte. The counts stay in
    // locals: a byte store may alias anything in memory.
    std::uint32_t tiny = 0;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::uint32_t v = bits_of(x[j]);
      kept += v != 0 ? 1 : 0;
      present[v >> 24] = 1;
      tiny |= v - 1 < 0x00ffffffu ? 1u : 0u;
    }
    present[0] = static_cast<std::uint8_t>(tiny);
    for (const std::uint8_t mark : present) distinct += mark;
  }
  CompactPlan plan;
  plan.kept = kept;
  std::int64_t payload = plan.kept * static_cast<std::int64_t>(sizeof(float));
  if (distinct >= 1 && distinct <= kMaxPalette) {
    const std::int64_t packed = distinct +
                                index_bytes(plan.kept, index_bits(distinct)) +
                                3 * plan.kept;
    if (packed < payload) {
      payload = packed;
      for (int top = 0; top < 256; ++top) {
        if (present[top] != 0) {
          plan.palette[plan.p++] = static_cast<std::uint8_t>(top);
        }
      }
    }
  }
  plan.bytes = (t.numel() + 7) / 8 + 1 + payload;
  if (plan.bytes < dense_bytes(t)) return plan;
  return std::nullopt;
}

/// The portable walk of x[0, n) in the compact coding `plan` describes:
/// each bitmap word goes to `map`, and its kept elements, in order, either
/// verbatim (p = 0) or to the index run at `run` and the low-byte run
/// after it. Each element's low bytes go out as one 4-byte store that the
/// next one's overwrites, so the last one writes a byte past the run. The
/// cursors and pending bits live in locals: a byte store may alias
/// anything in memory. Returns the byte after the tensor.
char* write_kept(const float* x, std::int64_t n, char* map,
                 const CompactPlan& plan, char* run) {
  const int bits = index_bits(plan.p);
  std::uint8_t index_of[256] = {};
  for (int i = 0; i < plan.p; ++i) {
    index_of[plan.palette[i]] = static_cast<std::uint8_t>(i);
  }
  char* low = plan.p == 0 ? run : run + index_bytes(plan.kept, bits);
  std::uint64_t pending = 0;  // index bits not yet written, `filled` of them
  int filled = 0;
  std::uint32_t kept[kBlock] = {};
  for (std::int64_t i = 0; i < n; i += kBlock) {
    const auto count = static_cast<std::size_t>(std::min(kBlock, n - i));
    std::size_t k = 0;
    const std::uint64_t word = gather_kept(x + i, count, kept, k);
    std::memcpy(map + i / 8, &word, (count + 7) / 8);
    if (plan.p == 0) {
      low = write_raw_array_at(low, kept, k);
      continue;
    }
    for (std::size_t j = 0; j < k; ++j) {
      pending |= std::uint64_t{index_of[kept[j] >> 24]} << filled;
      filled += bits;
      if (filled >= 32) {  // bits <= 4, so at most 35 bits are pending
        run = write_raw_at(run, static_cast<std::uint32_t>(pending));
        pending >>= 32;
        filled -= 32;
      }
      std::memcpy(low, &kept[j], sizeof kept[j]);
      low += 3;
    }
  }
  std::memcpy(run, &pending, static_cast<std::size_t>((filled + 7) / 8));
  return low;
}

#if defined(__x86_64__)
// ---- The palette walks sixteen kept elements at a time (AVX2 + BMI2) ------
//
// The same bytes as write_kept / read_kept, with the per-element
// work in byte shuffles: a block's kept elements are left-packed four at
// a time into a staging run, and each 16 of them become 48 low bytes,
// 16 palette indices (a compare per palette entry) and 16B index bits
// (pext); decoding runs the same steps backwards (pdep, a 16-entry
// table shuffle for the top bytes) and expands each four back to their
// bitmap positions.

/// pshufb controls moving the kept dwords of each 4-bit mask to the front.
struct DwordShuffles {
  std::uint8_t pack[16][16];    ///< kept dwords to the front, in order
  std::uint8_t expand[16][16];  ///< the front dwords back to the kept lanes
};

constexpr DwordShuffles make_dword_shuffles() {
  DwordShuffles s{};
  for (int mask = 0; mask < 16; ++mask) {
    int next = 0;
    for (int lane = 0; lane < 4; ++lane) {
      for (int b = 0; b < 4; ++b) {
        s.pack[mask][4 * lane + b] = 0x80;
        s.expand[mask][4 * lane + b] = 0x80;
      }
    }
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask >> lane & 1) == 0) continue;
      for (int b = 0; b < 4; ++b) {
        s.pack[mask][4 * next + b] = static_cast<std::uint8_t>(4 * lane + b);
        s.expand[mask][4 * lane + b] = static_cast<std::uint8_t>(4 * next + b);
      }
      ++next;
    }
  }
  return s;
}

alignas(16) constexpr DwordShuffles kDwordShuffles = make_dword_shuffles();

/// Every byte of a u64 holding `bits` set low bits: the pext/pdep mask of
/// eight indices, one per byte.
std::uint64_t index_lanes(int bits) {
  return 0x0101010101010101ull * ((1u << bits) - 1);
}

__attribute__((target("avx2,bmi2"))) __m128i permute_bytes(
    const std::uint8_t* ctl, __m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_load_si128(reinterpret_cast<const __m128i*>(ctl)));
}

/// Left-packs the kept elements of x[0, count), count <= kBlock, to
/// `stage` (which has 3 spare lanes past them) and returns their bitmap
/// word; `staged` grows by their number.
__attribute__((target("avx2,bmi2"))) std::uint64_t stage_kept(
    const float* x, std::size_t count, std::uint32_t* stage,
    std::size_t& staged) {
  std::uint64_t word = 0;
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const __m128i v = _mm_castps_si128(_mm_loadu_ps(x + j));
    const int mask =
        _mm_movemask_ps(_mm_castsi128_ps(
            _mm_cmpeq_epi32(v, _mm_setzero_si128()))) ^ 0xf;
    word |= static_cast<std::uint64_t>(mask) << j;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(stage + staged),
                     permute_bytes(kDwordShuffles.pack[mask], v));
    staged += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(mask)));
  }
  for (; j < count; ++j) {
    stage[staged] = bits_of(x[j]);
    const bool keep = stage[staged] != 0;
    word |= std::uint64_t{keep} << j;
    staged += keep ? 1 : 0;
  }
  return word;
}

__attribute__((target("avx2,bmi2"))) char* write_palette_avx2(
    const float* x, std::int64_t n, char* map, const CompactPlan& plan,
    char* run) {
  const int bits = index_bits(plan.p);
  const std::uint64_t lanes = index_lanes(bits);
  char* low = run + index_bytes(plan.kept, bits);
  std::uint64_t pending = 0;  // index bits not yet written, `filled` of them
  int filled = 0;
  const auto push = [&](std::uint64_t fields, int count) {
    pending |= fields << filled;
    filled += count;
    if (filled >= 32) {
      run = write_raw_at(run, static_cast<std::uint32_t>(pending));
      pending >>= 32;
      filled -= 32;
    }
  };
  // Index of a top byte t: how many palette entries after the first are
  // <= t, as the palette is ascending and t is one of them.
  __m128i above[kMaxPalette] = {};
  for (int i = 1; i < plan.p; ++i) {
    above[i] = _mm_set1_epi8(static_cast<char>(plan.palette[i]));
  }
  const __m128i low3 = _mm_setr_epi8(0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14,
                                     -128, -128, -128, -128);
  std::uint32_t stage[kBlock + 16 + 3] = {};
  std::size_t staged = 0;
  for (std::int64_t i = 0; i < n; i += kBlock) {
    const auto count = static_cast<std::size_t>(std::min(kBlock, n - i));
    const std::uint64_t word = stage_kept(x + i, count, stage, staged);
    std::memcpy(map + i / 8, &word, (count + 7) / 8);
    std::size_t c = 0;
    for (; c + 16 <= staged; c += 16) {
      __m128i v[4];
      for (int q = 0; q < 4; ++q) {
        v[q] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(stage + c) + q);
      }
      // The low three bytes of each, 48 bytes in order.
      const __m128i l0 = _mm_shuffle_epi8(v[0], low3);
      const __m128i l1 = _mm_shuffle_epi8(v[1], low3);
      const __m128i l2 = _mm_shuffle_epi8(v[2], low3);
      const __m128i l3 = _mm_shuffle_epi8(v[3], low3);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(low),
                       _mm_or_si128(l0, _mm_slli_si128(l1, 12)));
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(low + 16),
          _mm_or_si128(_mm_srli_si128(l1, 4), _mm_slli_si128(l2, 8)));
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(low + 32),
          _mm_or_si128(_mm_srli_si128(l2, 8), _mm_slli_si128(l3, 4)));
      low += 48;
      // The top bytes, then their palette indices, packed bits each.
      const __m128i top = _mm_packus_epi16(
          _mm_packus_epi32(_mm_srli_epi32(v[0], 24), _mm_srli_epi32(v[1], 24)),
          _mm_packus_epi32(_mm_srli_epi32(v[2], 24), _mm_srli_epi32(v[3], 24)));
      __m128i index = _mm_setzero_si128();
      for (int e = 1; e < plan.p; ++e) {
        index = _mm_sub_epi8(
            index, _mm_cmpeq_epi8(_mm_max_epu8(top, above[e]), top));
      }
      const auto first = static_cast<std::uint64_t>(_mm_cvtsi128_si64(index));
      const auto second =
          static_cast<std::uint64_t>(_mm_extract_epi64(index, 1));
      push(_pext_u64(first, lanes), 8 * bits);
      push(_pext_u64(second, lanes), 8 * bits);
    }
    std::memmove(stage, stage + c, (staged - c) * sizeof(std::uint32_t));
    staged -= c;
  }
  std::uint8_t index_of[256] = {};
  for (int i = 0; i < plan.p; ++i) {
    index_of[plan.palette[i]] = static_cast<std::uint8_t>(i);
  }
  for (std::size_t c = 0; c < staged; ++c) {
    push(index_of[stage[c] >> 24], bits);
    std::memcpy(low, &stage[c], sizeof stage[c]);
    low += 3;
  }
  std::memcpy(run, &pending, static_cast<std::size_t>((filled + 7) / 8));
  return low;
}

#endif

/// Writes `t` at `at` in the compact coding `plan` describes and returns
/// the byte after it: the header, the bitmap, the palette size, then either
/// the kept floats or the palette, the index run and the low-byte run.
/// Every region's offset follows from the plan, so one walk of the tensor,
/// a bitmap word at a time, writes all of them. The palette walk writes a
/// byte past the tensor, which exists because `at` is the tensor's dense
/// slot and a tensor goes compact only when that is strictly smaller.
char* write_compact(char* at, const Tensor& t, const CompactPlan& plan) {
  at = write_raw_at(at, checked_narrow<std::uint32_t>(t.rank()) | kCompactRank);
  for (std::int64_t d = 0; d < t.rank(); ++d) at = write_raw_at(at, t.dim(d));
  const float* x = t.data();
  const std::int64_t n = t.numel();
  char* map = at;
  at = write_raw_at(at + (n + 7) / 8, static_cast<std::uint8_t>(plan.p));
  char* run = write_raw_array_at(at, plan.palette,
                                 static_cast<std::size_t>(plan.p));
#if defined(__x86_64__)
  if (plan.p > 0 && use_avx2_walks()) {
    return write_palette_avx2(x, n, map, plan, run);
  }
#endif
  return write_kept(x, n, map, plan, run);
}

/// The portable walk that fills x[0, n) from a compact tensor's kept
/// elements, either verbatim (p = 0, at `run`) or from the index run at
/// `run` and the low-byte run at `low`: a bitmap word with a clear bit
/// zeroes its elements, then each kept element goes to its set bit.
/// Indices come out of 4-byte loads and low bytes out of 4-byte loads
/// masked to three; either may read up to 3 bytes past its run, which the
/// low-byte run and the string's terminator cover. An index past the
/// palette reads top byte 0 and throws once the walk ends.
void read_kept(float* x, std::size_t n, const char* map,
               const std::uint32_t* top, int p, const char* run,
               const char* low) {
  const int bits = index_bits(p);
  std::uint64_t pending = 0;  // index bits read but not used, `have` of them
  int have = 0;
  std::uint64_t out_of_range = 0;
  for (std::size_t i = 0; i < n; i += kBlock) {
    const std::size_t count = std::min<std::size_t>(kBlock, n - i);
    const std::uint64_t word = map_word(map, i, count);
    if (static_cast<std::size_t>(std::popcount(word)) != count) {
      std::fill_n(x + i, count, 0.0f);
    }
    for (std::uint64_t set = word; set != 0; set &= set - 1) {
      std::uint32_t value = 0;
      if (p == 0) {
        std::memcpy(&value, run, sizeof value);
        run += sizeof value;
      } else {
        if (have < bits) {
          std::uint32_t fields = 0;
          std::memcpy(&fields, run, sizeof fields);
          run += sizeof fields;
          pending |= std::uint64_t{fields} << have;
          have += 32;
        }
        const std::uint64_t index =
            pending & ((std::uint64_t{1} << bits) - 1);
        pending >>= bits;
        have -= bits;
        out_of_range |= index >= static_cast<std::uint64_t>(p) ? 1 : 0;
        std::memcpy(&value, low, sizeof value);
        low += 3;
        value = top[index] | (value & 0x00ffffffu);
      }
      x[i + static_cast<std::size_t>(std::countr_zero(set))] =
          std::bit_cast<float>(value);
    }
  }
  if (out_of_range != 0) {
    throw SerializationError("compact tensor palette index out of range");
  }
}

#if defined(__x86_64__)
__attribute__((target("avx2,bmi2"))) void read_palette_avx2(
    float* x, std::size_t n, const char* map, const char* palette, int p,
    const char* run, const char* low, std::size_t kept) {
  const int bits = index_bits(p);
  const std::uint64_t lanes = index_lanes(bits);
  std::uint64_t pending = 0;  // index bits read but not used, `have` of them
  int have = 0;
  // The next `count` <= 32 bits of the index run (a 4-byte load may read
  // into the low-byte run, which follows it).
  const auto next_fields = [&](int count) {
    if (have < count) {
      std::uint32_t word = 0;
      std::memcpy(&word, run, sizeof word);
      run += sizeof word;
      pending |= std::uint64_t{word} << have;
      have += 32;
    }
    const std::uint64_t fields = pending & ((std::uint64_t{1} << count) - 1);
    pending >>= count;
    have -= count;
    return fields;
  };
  alignas(16) std::uint8_t tops[16] = {};
  std::memcpy(tops, palette, static_cast<std::size_t>(p));
  const __m128i table = _mm_load_si128(reinterpret_cast<const __m128i*>(tops));
  const __m128i last = _mm_set1_epi8(static_cast<char>(p - 1));
  __m128i highest = _mm_setzero_si128();
  const __m128i spread3 = _mm_setr_epi8(0, 1, 2, -128, 3, 4, 5, -128, 6, 7,
                                        8, -128, 9, 10, 11, -128);
  const __m128i top_lane[4] = {
      _mm_setr_epi8(-128, -128, -128, 0, -128, -128, -128, 1, -128, -128,
                    -128, 2, -128, -128, -128, 3),
      _mm_setr_epi8(-128, -128, -128, 4, -128, -128, -128, 5, -128, -128,
                    -128, 6, -128, -128, -128, 7),
      _mm_setr_epi8(-128, -128, -128, 8, -128, -128, -128, 9, -128, -128,
                    -128, 10, -128, -128, -128, 11),
      _mm_setr_epi8(-128, -128, -128, 12, -128, -128, -128, 13, -128, -128,
                    -128, 14, -128, -128, -128, 15)};
  std::uint32_t stage[kBlock + 16 + 3] = {};
  std::size_t staged = 0;
  std::size_t unread = kept;
  for (std::size_t i = 0; i < n; i += kBlock) {
    const std::size_t count = std::min<std::size_t>(kBlock, n - i);
    const std::uint64_t word = map_word(map, i, count);
    const auto k = static_cast<std::size_t>(std::popcount(word));
    while (staged < k && unread >= 16) {
      const std::uint64_t first = _pdep_u64(next_fields(8 * bits), lanes);
      const std::uint64_t second = _pdep_u64(next_fields(8 * bits), lanes);
      const __m128i index = _mm_set_epi64x(static_cast<long long>(second),
                                           static_cast<long long>(first));
      highest = _mm_max_epu8(highest, index);
      const __m128i top = _mm_shuffle_epi8(table, index);
      const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(low));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(low + 16));
      const __m128i c =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(low + 32));
      low += 48;
      const __m128i three[4] = {a, _mm_alignr_epi8(b, a, 12),
                                _mm_alignr_epi8(c, b, 8), _mm_srli_si128(c, 4)};
      for (int q = 0; q < 4; ++q) {
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(stage + staged) + q,
            _mm_or_si128(_mm_shuffle_epi8(three[q], spread3),
                         _mm_shuffle_epi8(top, top_lane[q])));
      }
      staged += 16;
      unread -= 16;
    }
    for (; staged < k; ++staged, --unread, low += 3) {
      const auto index = static_cast<std::uint8_t>(next_fields(bits));
      highest = _mm_max_epu8(highest, _mm_set1_epi8(static_cast<char>(index)));
      std::uint32_t bits3 = 0;
      std::memcpy(&bits3, low, 3);
      stage[staged] = std::uint32_t{tops[index & 15]} << 24 | bits3;
    }
    std::size_t c = 0;
    std::size_t j = 0;
    for (; j + 4 <= count; j += 4) {
      const auto mask = static_cast<unsigned>(word >> j) & 0xf;
      _mm_storeu_ps(x + i + j,
                    _mm_castsi128_ps(permute_bytes(
                        kDwordShuffles.expand[mask],
                        _mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(stage + c)))));
      c += static_cast<std::size_t>(std::popcount(mask));
    }
    for (; j < count; ++j) {
      const bool keep = (word >> j & 1) != 0;
      x[i + j] = std::bit_cast<float>(keep ? stage[c] : 0u);
      c += keep ? 1 : 0;
    }
    std::memmove(stage, stage + k, (staged - k) * sizeof(std::uint32_t));
    staged -= k;
  }
  if (_mm_movemask_epi8(_mm_cmpeq_epi8(_mm_max_epu8(highest, last), last)) !=
      0xffff) {
    throw SerializationError("compact tensor palette index out of range");
  }
}
#endif

/// Reads a compact tensor from its dims on; `rank` is its rank word with
/// the flag cleared. The bitmap, the palette and every byte count they
/// claim are checked against the frame before the tensor is allocated;
/// each palette index is checked as the one walk that fills it reads it.
Tensor read_compact(const std::string& in, std::size_t& offset,
                    std::uint32_t rank) {
  if (rank > 8) throw SerializationError("implausible tensor rank");
  Shape shape(rank);
  for (auto& d : shape) {
    d = read_raw<std::int64_t>(in, offset);
    if (d < 0 || d > (1 << 28)) throw SerializationError("implausible dim");
  }
  const auto n = static_cast<std::size_t>(nn::checked_decode_numel(shape));
  const std::size_t map_bytes = (n + 7) / 8;
  if (in.size() - offset < map_bytes) {
    throw SerializationError("truncated buffer: compact tensor bitmap");
  }
  const char* map = in.data() + offset;
  std::size_t kept = 0;
  std::uint64_t last = 0;
  for (std::size_t i = 0; i < n; i += kBlock) {
    last = map_word(map, i, std::min<std::size_t>(kBlock, n - i));
    kept += static_cast<std::size_t>(std::popcount(last));
  }
  if (n % kBlock != 0 && (last >> (n % kBlock)) != 0) {
    throw SerializationError("compact tensor bitmap sets a padding bit");
  }
  offset += map_bytes;
  const int p = read_raw<std::uint8_t>(in, offset);
  if (p > kMaxPalette) {
    throw SerializationError("compact tensor palette above 16 top bytes");
  }
  if (p > 0 && kept == 0) {
    throw SerializationError("compact tensor palette with no kept element");
  }
  const int bits = index_bits(p);
  const std::size_t run_bytes =
      static_cast<std::size_t>(index_bytes(static_cast<std::int64_t>(kept), bits));
  const std::size_t payload =
      p == 0 ? kept * sizeof(float)
             : static_cast<std::size_t>(p) + run_bytes + 3 * kept;
  if (in.size() - offset < payload) {
    throw SerializationError("truncated buffer: compact tensor data");
  }
  const char* palette = in.data() + offset;
  const char* run = palette + p;
  std::uint32_t top[1 << 4] = {};  // each index's top byte, in place
  for (int i = 0; i < p; ++i) {
    top[i] = std::uint32_t{static_cast<std::uint8_t>(palette[i])} << 24;
    if (i > 0 && top[i - 1] >= top[i]) {
      throw SerializationError("compact tensor palette not ascending");
    }
  }
  if (const std::size_t tail = kept * static_cast<std::size_t>(bits) % 8;
      tail != 0 && static_cast<std::uint8_t>(run[run_bytes - 1]) >> tail != 0) {
    throw SerializationError("compact tensor index run sets a padding bit");
  }
  Tensor t(std::move(shape), uninitialized);
  float* x = t.data();
  const char* low = run + run_bytes;
#if defined(__x86_64__)
  if (p > 0 && use_avx2_walks()) {
    read_palette_avx2(x, n, map, palette, p, run, low, kept);
    offset += payload;
    return t;
  }
#endif
  read_kept(x, n, map, top, p, run, low);
  offset += payload;
  return t;
}

/// Reads one tensor in either coding, as its rank word's flag says.
Tensor read_frame_tensor(const std::string& in, std::size_t& offset) {
  std::size_t after_rank = offset;
  const auto rank = read_raw<std::uint32_t>(in, after_rank);
  if ((rank & kCompactRank) == 0) return nn::read_tensor(in, offset);
  offset = after_rank;
  return read_compact(in, offset, rank & ~kCompactRank);
}

}  // namespace

// analyze:hot  (per-query path: hot-path allocation audit root)
std::string Message::encode(TensorCoding coding) const {
  std::string out;
  // The dense size bounds either coding: a tensor goes compact only when
  // that is smaller.
  out.reserve(static_cast<std::size_t>(encoded_size()));
  write_raw(out, static_cast<std::uint32_t>(type));
  write_raw(out, checked_narrow<std::uint32_t>(ints.size()));
  for (std::int64_t v : ints) write_raw(out, v);
  write_raw(out, checked_narrow<std::uint32_t>(tensors.size()));
  for (const Tensor& t : tensors) {
    // The dense form sizes the tensor's slot, and a compact plan is
    // strictly smaller, so its one walk writes over the slot and the
    // frame is cut where it ends.
    const std::size_t slot = out.size();
    nn::write_tensor(out, t);
    if (coding != TensorCoding::compact) continue;
    if (const auto plan = compact_plan(t)) {
      out.erase(static_cast<std::size_t>(
          write_compact(out.data() + slot, t, *plan) - out.data()));
    }
  }
  return out;
}

// analyze:hot  (per-query path: hot-path allocation audit root)
Message Message::decode(const std::string& bytes) {
  Message msg;
  std::size_t offset = 0;
  msg.type = static_cast<MsgType>(read_raw<std::uint32_t>(bytes, offset));
  const auto n_ints = read_raw<std::uint32_t>(bytes, offset);
  if (n_ints > (1u << 20)) throw SerializationError("implausible int count");
  msg.ints.reserve(n_ints);
  for (std::uint32_t i = 0; i < n_ints; ++i) {
    msg.ints.push_back(read_raw<std::int64_t>(bytes, offset));
  }
  const auto n_tensors = read_raw<std::uint32_t>(bytes, offset);
  if (n_tensors > (1u << 16)) throw SerializationError("implausible tensor count");
  for (std::uint32_t i = 0; i < n_tensors; ++i) {
    msg.tensors.push_back(read_frame_tensor(bytes, offset));
  }
  return msg;
}

InferInfo infer_info(const Message& msg) {
  InferInfo info;
  if (!msg.ints.empty()) info.qid = msg.ints[0];
  if (msg.ints.size() > 1 && msg.ints[1] >= 0) info.deadline_us = msg.ints[1];
  if (msg.ints.size() > 2) info.hedged = (msg.ints[2] & kHedgedFlag) != 0;
  return info;
}

void set_infer_info(Message& msg, const InferInfo& info) {
  msg.ints = {info.qid, info.deadline_us,
              info.hedged ? kHedgedFlag : std::int64_t{0}};
}

namespace detail {

PortableCompactWalks::PortableCompactWalks() : outer_(portable_walks) {
  portable_walks = true;
}

PortableCompactWalks::~PortableCompactWalks() { portable_walks = outer_; }

}  // namespace detail

std::int64_t Message::encoded_size(TensorCoding coding) const {
  std::int64_t size = 4 + 4 + 4;  // type + two counts
  size += static_cast<std::int64_t>(ints.size()) * 8;
  for (const Tensor& t : tensors) {
    size += 4 + t.rank() * 8;
    const auto plan = coding == TensorCoding::compact
                          ? compact_plan(t)
                          : std::optional<CompactPlan>();
    size += plan ? plan->bytes : dense_bytes(t);
  }
  return size;
}

}  // namespace teamnet::net
