// The decode contract, defined once and driven three ways: by the libFuzzer
// harnesses (fuzz_*.cpp), by the corpus-replay ctest binaries
// (replay_main.cpp, built with every compiler), and by the hand-rolled
// mutation loops in tests/serialize_fuzz_test.cpp. Keeping one definition
// means ctest and libFuzzer can never drift apart on what "robust decode"
// means.
//
// Contract for every target: an ARBITRARY input byte string either decodes
// successfully (returns true) or is rejected with a teamnet::Error
// (returns false). Any other outcome is a bug:
//   * crash / sanitizer report / std::bad_alloc from a wild length,
//   * a non-teamnet exception escaping,
//   * a violated postcondition — reported as std::logic_error, which no
//     caller catches, so libFuzzer (and gtest) flag it loudly.
#pragma once

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/gate_policy.hpp"
#include "net/message.hpp"
#include "nn/serialize.hpp"

namespace teamnet::fuzz {

/// Wire-message decoder (net::Message::decode — the bytes every Channel
/// carries).
inline bool message_decode(const std::string& bytes) {
  try {
    (void)net::Message::decode(bytes);
    return true;
  } catch (const Error&) {
    return false;
  }
}

/// A compact-coded Infer (net::TensorCoding::compact) over a [1, 60] input
/// whose only non-zero elements are 3, 17 and 50: the valid frame the
/// compact seeds and tests mutate from. Its rank word is at byte
/// kCompactRankAt and its 8-byte bitmap at kCompactBitmapAt (60 bits, then
/// 4 padding bits).
inline constexpr std::size_t kCompactRankAt = 4 + 4 + 3 * 8 + 4;
inline constexpr std::size_t kCompactBitmapAt = kCompactRankAt + 4 + 2 * 8;

inline std::string compact_infer_frame() {
  net::Message msg;
  msg.type = net::MsgType::Infer;
  net::set_infer_info(msg, {7, 1'000'000, false});
  Tensor x({1, 60});
  x[3] = 0.5f;
  x[17] = -1.25f;
  x[50] = 3.0f;
  msg.tensors = {x};
  return msg.encode(net::TensorCoding::compact);
}

/// compact_infer_frame() broken in each way the decoder must reject with
/// SerializationError before it allocates the tensor: a truncated bitmap,
/// a set padding bit, a flagged rank above 8, and a bitmap claiming more
/// floats than remain.
inline std::vector<std::string> malformed_compact_frames() {
  const std::string valid = compact_infer_frame();
  // Element 50's bit moved to padding bit 63: the bitmap still claims the
  // three floats the frame holds, so only the padding check rejects it.
  std::string padding = valid;
  padding[kCompactBitmapAt + 6] = static_cast<char>(
      static_cast<unsigned char>(padding[kCompactBitmapAt + 6]) ^ 0x04);
  padding[kCompactBitmapAt + 7] = static_cast<char>(
      static_cast<unsigned char>(padding[kCompactBitmapAt + 7]) | 0x80);
  std::string rank = valid;
  rank[kCompactRankAt] = 9;  // the flag byte (kCompactRankAt + 3) stays set
  std::string overclaim = valid;
  for (std::size_t b = 0; b < 7; ++b) overclaim[kCompactBitmapAt + b] = '\xff';
  overclaim[kCompactBitmapAt + 7] = '\x0f';
  return {valid.substr(0, kCompactBitmapAt + 4), padding, rank, overclaim};
}

/// A compact Infer over a [1, 60] input whose 45 kept elements (every
/// fourth element is +0.0) take three top bytes, 0x3f, 0x40 and 0xbf: the
/// palette frame the seeds and tests mutate from. Its palette size byte is
/// at kPaletteSizeAt, then the 3-byte palette, the 12-byte index run (90
/// bits of 2-bit indices, then 6 padding bits) and 135 low bytes.
inline constexpr std::size_t kPaletteSizeAt = kCompactBitmapAt + 8;
inline constexpr std::size_t kIndexRunAt = kPaletteSizeAt + 1 + 3;

inline std::string palette_infer_frame() {
  net::Message msg;
  msg.type = net::MsgType::Infer;
  net::set_infer_info(msg, {8, 1'000'000, false});
  Tensor x({1, 60});
  for (std::int64_t i = 0; i < 60; ++i) {
    if (i % 4 == 3) continue;
    const float step = static_cast<float>(i) / 128.0f;
    x[i] = i % 3 == 0 ? 0.5f + step : i % 3 == 1 ? 2.0f + 4 * step : -0.5f - step;
  }
  msg.tensors = {x};
  return msg.encode(net::TensorCoding::compact);
}

/// palette_infer_frame() broken in each way the decoder must reject with
/// SerializationError before it allocates the tensor: a palette of 17, an
/// index equal to p, a set padding bit in the index run, a truncated
/// low-byte run, a palette that is not ascending, and a palette with no
/// kept element.
inline std::vector<std::string> malformed_palette_frames() {
  const std::string valid = palette_infer_frame();
  const auto with_bits = [&valid](std::size_t at, unsigned char bits) {
    std::string bytes = valid;
    bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) | bits);
    return bytes;
  };
  std::string wide = valid;
  wide[kPaletteSizeAt] = 17;
  std::string unordered = valid;
  std::swap(unordered[kPaletteSizeAt + 1], unordered[kPaletteSizeAt + 2]);
  // An all-zero input codes as a bare bitmap and p = 0; claim a palette.
  net::Message zeros;
  zeros.type = net::MsgType::Infer;
  net::set_infer_info(zeros, {9, 1'000'000, false});
  zeros.tensors = {Tensor({1, 60})};
  std::string empty = zeros.encode(net::TensorCoding::compact);
  empty[kPaletteSizeAt] = 1;
  empty += '\x3f';
  return {wide,
          with_bits(kIndexRunAt, 0x03),       // element 0's index is 3
          with_bits(kIndexRunAt + 11, 0x80),  // padding bit 95
          valid.substr(0, valid.size() - 4),
          unordered,
          empty};
}

/// Checkpoint decoder (nn::load_tensors — model snapshots and the weight
/// deployment path).
inline bool checkpoint_decode(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  try {
    (void)nn::load_tensors(is);
    return true;
  } catch (const Error&) {
    return false;
  }
}

/// Gate-policy robustness. Input layout: byte 0 selects the expert count
/// (1..8), byte 1 the policy kind, byte 2 the batch size (1..32); the rest
/// is reinterpreted as raw little-endian floats — deliberately including
/// NaN/Inf/denormal bit patterns, which garbage expert probabilities can
/// produce as entropies at runtime. decide() must return a well-formed
/// assignment (one expert index per row, each in [0, K)) or throw a
/// teamnet::Error.
inline bool gate_policy_decide(const std::string& bytes) {
  if (bytes.size() < 3) return false;
  const auto byte_at = [&bytes](std::size_t i) {
    return static_cast<unsigned char>(bytes[i]);
  };
  const int k = 1 + byte_at(0) % 8;
  const auto kind = static_cast<core::GateKind>(byte_at(1) % 4);
  const std::int64_t n = 1 + byte_at(2) % 32;

  std::vector<float> entropies(static_cast<std::size_t>(n * k), 0.5f);
  const std::size_t available = (bytes.size() - 3) / sizeof(float);
  const std::size_t n_floats = std::min(entropies.size(), available);
  if (n_floats > 0) {
    std::memcpy(entropies.data(), bytes.data() + 3, n_floats * sizeof(float));
  }
  Tensor entropy({n, static_cast<std::int64_t>(k)}, std::move(entropies));

  core::GateTrainerConfig config;
  config.max_iterations = 8;  // keep the learned gate's inner loop fuzz-fast
  const std::uint64_t seed = static_cast<std::uint64_t>(byte_at(0)) |
                             static_cast<std::uint64_t>(byte_at(1)) << 8 |
                             static_cast<std::uint64_t>(byte_at(2)) << 16;
  try {
    auto policy = core::make_gate_policy(kind, k, config, Rng(seed));
    const core::GateDecision decision = policy->decide(entropy);
    if (decision.assignment.size() != static_cast<std::size_t>(n)) {
      throw std::logic_error("gate contract: assignment size != batch rows");
    }
    for (const int a : decision.assignment) {
      if (a < 0 || a >= k) {
        throw std::logic_error("gate contract: expert index out of range");
      }
    }
    return true;
  } catch (const Error&) {
    return false;
  }
}

}  // namespace teamnet::fuzz
