#include "net/message.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>

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

/// Whether `v` is exactly +0.0f, the one bit pattern the compact coding
/// leaves out.
bool plus_zero(float v) { return std::bit_cast<std::uint32_t>(v) == 0; }

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

/// Calls fn(bits, k) with the bit patterns of each kBlock elements' kept
/// ones, in index order; each block is gathered without a branch per
/// element.
template <typename Fn>
void for_each_kept(const Tensor& t, Fn&& fn) {
  const float* x = t.data();
  const std::int64_t n = t.numel();
  std::uint32_t kept[kBlock];
  for (std::int64_t i = 0; i < n; i += kBlock) {
    const std::int64_t count = std::min(kBlock, n - i);
    std::size_t k = 0;
    for (std::int64_t j = 0; j < count; ++j) {
      kept[k] = std::bit_cast<std::uint32_t>(x[i + j]);
      k += kept[k] != 0 ? 1 : 0;
    }
    fn(static_cast<const std::uint32_t*>(kept), k);
  }
}

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
  CompactPlan plan;
  // One pass, no branch per element: every element marks its top byte,
  // and +0.0f's mark on top byte 0 is replaced by whether a kept element
  // (bit pattern 1 to 0xffffff) has that top byte.
  std::uint8_t present[256] = {};
  std::uint32_t tiny = 0;
  for (const float f : t.values()) {
    const auto v = std::bit_cast<std::uint32_t>(f);
    plan.kept += v != 0 ? 1 : 0;
    present[v >> 24] = 1;
    tiny |= v - 1 < 0x00ffffffu ? 1u : 0u;
  }
  present[0] = static_cast<std::uint8_t>(tiny);
  int distinct = 0;
  for (const std::uint8_t mark : present) distinct += mark;
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

/// The bitmap byte of x[0, count), count <= 8: bit j set when x[j] is kept.
std::uint8_t kept_byte(const float* x, std::int64_t count) {
  const auto bit = [x](std::int64_t j) {
    return static_cast<unsigned>(!plus_zero(x[j])) << j;
  };
  unsigned bits = 0;
  if (count == 8) {  // spelled out: the common case, with no loop to run
    bits = bit(0) | bit(1) | bit(2) | bit(3) | bit(4) | bit(5) | bit(6) |
           bit(7);
  } else {
    for (std::int64_t j = 0; j < count; ++j) bits |= bit(j);
  }
  return static_cast<std::uint8_t>(bits);
}

/// Appends the palette indices of the kept elements, `bits` bits each,
/// LSB first, the last byte zero-padded. Eight indices fill exactly
/// `bits` bytes, so they are packed a group of eight at a time and
/// appended a block at a time.
void write_indices(std::string& out, const Tensor& t, const CompactPlan& plan,
                   int bits) {
  std::uint8_t index_of[256] = {};
  for (int i = 0; i < plan.p; ++i) {
    index_of[plan.palette[i]] = static_cast<std::uint8_t>(i);
  }
  std::uint32_t group = 0;  // the indices not yet written, `filled` of them
  int filled = 0;
  for_each_kept(t, [&](const std::uint32_t* v, std::size_t k) {
    std::uint8_t run[kBlock / 2];  // 8 groups of at most 4 bytes
    std::size_t used = 0;
    for (std::size_t j = 0; j < k; ++j) {
      group |= std::uint32_t{index_of[v[j] >> 24]} << (filled * bits);
      if (++filled < 8) continue;
      for (int b = 0; b < bits; ++b) {
        run[used++] = static_cast<std::uint8_t>(group >> (8 * b));
      }
      group = 0;
      filled = 0;
    }
    write_raw_array(out, run, used);
  });
  std::uint8_t tail[4];
  const int tail_bytes = (filled * bits + 7) / 8;
  for (int b = 0; b < tail_bytes; ++b) {
    tail[b] = static_cast<std::uint8_t>(group >> (8 * b));
  }
  write_raw_array(out, tail, static_cast<std::size_t>(tail_bytes));
}

/// Appends `t` in the compact coding `plan` describes into the frame
/// encode reserved: the header, the bitmap, the palette size, then either
/// the kept floats or the palette, the index run and the low-byte run.
void write_compact(std::string& out, const Tensor& t, const CompactPlan& plan) {
  write_raw(out, checked_narrow<std::uint32_t>(t.rank()) | kCompactRank);
  for (std::int64_t d = 0; d < t.rank(); ++d) write_raw(out, t.dim(d));
  const float* x = t.data();
  const std::int64_t n = t.numel();
  std::uint8_t map[kBlock];  // the bitmap of 8 * kBlock elements per append
  std::size_t bytes = 0;
  for (std::int64_t i = 0; i < n; i += 8) {
    map[bytes++] = kept_byte(x + i, std::min<std::int64_t>(8, n - i));
    if (bytes == sizeof map) {
      write_raw_array(out, map, bytes);
      bytes = 0;
    }
  }
  write_raw_array(out, map, bytes);
  write_raw(out, static_cast<std::uint8_t>(plan.p));
  if (plan.p == 0) {
    for_each_kept(t, [&out](const std::uint32_t* v, std::size_t k) {
      write_raw_array(out, v, k);
    });
    return;
  }
  write_raw_array(out, plan.palette, static_cast<std::size_t>(plan.p));
  if (const int bits = index_bits(plan.p); bits > 0) {
    write_indices(out, t, plan, bits);
  }
  for_each_kept(t, [&out](const std::uint32_t* v, std::size_t k) {
    std::uint8_t low[3 * kBlock];
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint32_t bits = v[j];
      low[3 * j] = static_cast<std::uint8_t>(bits);
      low[3 * j + 1] = static_cast<std::uint8_t>(bits >> 8);
      low[3 * j + 2] = static_cast<std::uint8_t>(bits >> 16);
    }
    write_raw_array(out, low, 3 * k);
  });
}

/// Reads `bits`-bit fields LSB first from a byte run; bits <= 8, so one
/// byte refills it, and it never reads a byte past the last field's.
class IndexReader {
 public:
  IndexReader(const char* run, int bits) : run_(run), bits_(bits) {}

  unsigned next() {
    if (have_ < bits_) {
      acc_ |= static_cast<unsigned>(static_cast<std::uint8_t>(*run_++)) << have_;
      have_ += 8;
    }
    const unsigned index = acc_ & ((1u << bits_) - 1);
    acc_ >>= bits_;
    have_ -= bits_;
    return index;
  }

 private:
  const char* run_;
  int bits_;
  unsigned acc_ = 0;
  int have_ = 0;
};

/// Reads a compact tensor from its dims on; `rank` is its rank word with
/// the flag cleared. The bitmap, the palette and every byte count they
/// claim are checked against the frame before the tensor is allocated.
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
  // The bitmap word of elements [i, i + kBlock): only its own bytes.
  const char* map = in.data() + offset;
  const auto word = [map, n](std::size_t i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, map + i / 8,
                (std::min<std::size_t>(kBlock, n - i) + 7) / 8);
    return bits;
  };
  std::size_t kept = 0;
  std::uint64_t last = 0;
  for (std::size_t i = 0; i < n; i += kBlock) {
    last = word(i);
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
  const auto top = [palette](unsigned i) {
    return static_cast<std::uint8_t>(palette[i]);
  };
  for (int i = 1; i < p; ++i) {
    if (top(i - 1) >= top(i)) {
      throw SerializationError("compact tensor palette not ascending");
    }
  }
  if (const std::size_t tail = kept * static_cast<std::size_t>(bits) % 8;
      tail != 0 && static_cast<std::uint8_t>(run[run_bytes - 1]) >> tail != 0) {
    throw SerializationError("compact tensor index run sets a padding bit");
  }
  if (p > 0 && (1 << bits) > p) {  // a field can hold an index past p
    IndexReader indices(run, bits);
    for (std::size_t i = 0; i < kept; ++i) {
      if (indices.next() >= static_cast<unsigned>(p)) {
        throw SerializationError("compact tensor palette index out of range");
      }
    }
  }
  // Zeros everywhere, then each kept element to the set bit it belongs
  // to, a bitmap word at a time.
  Tensor t(std::move(shape));
  float* x = t.data();
  if (p == 0) {
    const char* value = in.data() + offset;
    for (std::size_t i = 0; i < n; i += kBlock) {
      for (std::uint64_t set = word(i); set != 0; set &= set - 1) {
        std::memcpy(x + i + std::countr_zero(set), value, sizeof(float));
        value += sizeof(float);
      }
    }
  } else {
    IndexReader indices(run, bits);
    const char* low = run + run_bytes;
    const auto byte = [&low](int b) {
      return static_cast<std::uint32_t>(static_cast<std::uint8_t>(low[b]));
    };
    for (std::size_t i = 0; i < n; i += kBlock) {
      for (std::uint64_t set = word(i); set != 0; set &= set - 1) {
        const std::uint32_t v = std::uint32_t{top(indices.next())} << 24 |
                                byte(2) << 16 | byte(1) << 8 | byte(0);
        low += 3;
        std::memcpy(x + i + std::countr_zero(set), &v, sizeof v);
      }
    }
  }
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
    const auto plan = coding == TensorCoding::compact
                          ? compact_plan(t)
                          : std::optional<CompactPlan>();
    if (plan) {
      write_compact(out, t, *plan);
    } else {
      nn::write_tensor(out, t);
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
