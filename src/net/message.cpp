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

/// Whether `v` is exactly +0.0f, the one bit pattern the compact coding
/// leaves out.
bool plus_zero(float v) { return std::bit_cast<std::uint32_t>(v) == 0; }

std::int64_t dense_bytes(const Tensor& t) {
  return t.numel() * static_cast<std::int64_t>(sizeof(float));
}

/// Bytes of `t`'s bitmap and kept elements when that is strictly fewer
/// than its dense elements take; nullopt when the dense form wins.
std::optional<std::int64_t> compact_bytes(const Tensor& t) {
  std::int64_t kept = 0;
  for (const float v : t.values()) kept += plus_zero(v) ? 0 : 1;
  const std::int64_t packed =
      (t.numel() + 7) / 8 + kept * static_cast<std::int64_t>(sizeof(float));
  if (packed < dense_bytes(t)) return packed;
  return std::nullopt;
}

/// Elements per bitmap word: the compact codec's step.
constexpr std::int64_t kBlock = 64;

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

/// Appends `t` in the compact coding into the frame encode reserved: the
/// header, the bitmap, then the kept elements, each gathered into a
/// block buffer without a branch per element and appended a block at a
/// time.
void write_compact(std::string& out, const Tensor& t) {
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
  float kept[kBlock];
  for (std::int64_t i = 0; i < n; i += kBlock) {
    const std::int64_t count = std::min(kBlock, n - i);
    std::size_t k = 0;
    for (std::int64_t j = 0; j < count; ++j) {
      kept[k] = x[i + j];
      k += plus_zero(x[i + j]) ? 0 : 1;
    }
    write_raw_array(out, kept, k);
  }
}

/// Reads a compact tensor from its dims on; `rank` is its rank word with
/// the flag cleared. The bitmap and the element count it claims are
/// checked against the frame before the tensor is allocated.
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
  if ((in.size() - offset) / sizeof(float) < kept) {
    throw SerializationError("truncated buffer: compact tensor data");
  }
  // Zeros everywhere, then each kept element to the set bit it belongs
  // to, a bitmap word at a time.
  Tensor t(std::move(shape));
  float* x = t.data();
  const char* value = in.data() + offset;
  for (std::size_t i = 0; i < n; i += kBlock) {
    for (std::uint64_t bits = word(i); bits != 0; bits &= bits - 1) {
      std::memcpy(x + i + std::countr_zero(bits), value, sizeof(float));
      value += sizeof(float);
    }
  }
  offset += kept * sizeof(float);
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
    if (coding == TensorCoding::compact && compact_bytes(t)) {
      write_compact(out, t);
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
    size += coding == TensorCoding::compact
                ? compact_bytes(t).value_or(dense_bytes(t))
                : dense_bytes(t);
  }
  return size;
}

}  // namespace teamnet::net
