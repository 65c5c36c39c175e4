// Wire message: a small typed envelope carrying tensors and integers.
//
// Encoding (little-endian):
//   u32 type | u32 n_ints | i64 ints[] | u32 n_tensors | tensor[]
// The byte string produced here is what flows through every Channel
// implementation (in-proc, TCP, simulated), so byte counts seen by the
// virtual clock equal real serialized sizes.
//
// A tensor has two codings (DESIGN.md §9). The dense one is the nn
// checkpoint format, `u32 rank | i64 dims[rank] | f32 data[numel]`, and is
// the paper's raw-float wire. The compact one is lossless and skips exact
// +0.0f elements:
//   u32 rank | 0x80000000 | i64 dims[rank] | u8 bitmap[ceil(numel / 8)] |
//   u8 p | payload
// Bit i of the bitmap (LSB first) is set when element i's bit pattern is
// not +0.0f, padding bits are 0, and the payload holds the marked ("kept")
// elements in index order. With p = 0 it is `f32 kept[popcount(bitmap)]`.
// With 1 <= p <= 16 it splits each kept float into its top byte (the sign
// and the 7 high exponent bits) and its low three bytes:
//   u8 palette[p] | index run | u8 low[3 * popcount(bitmap)]
// where the palette lists the distinct top bytes in ascending order and
// the index run holds each kept element's palette index in ceil(log2 p)
// bits, LSB first, its last byte zero-padded. Every bit pattern survives,
// so -0.0f, NaN payloads, infinities and denormals round-trip bit for bit.
// encode(TensorCoding::compact) writes whichever of dense, raw-payload
// compact and palette compact is smallest, compact only when strictly
// smaller than dense and the palette only when strictly smaller than raw;
// decode reads every form.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace teamnet::net {

/// Protocol message types for the collaborative-inference protocol
/// (Figure 1) and the message-passing runtime.
///
/// Query identity: `Infer` carries the master's query sequence number in
/// `ints[0]` and workers echo the request's `ints` back on the matching
/// `Result` (and `Pong`). The master's gather discards replies whose id
/// does not match the in-flight query, so a late reply from a timed-out
/// worker — or an injected duplicate — can never be consumed as the answer
/// to a later query.
///
/// Deadline budget (DESIGN.md §13): an `Infer` may carry two more ints
/// after the query id —
///   ints[1] = the query's absolute deadline in microseconds on the
///             sender's monotonic clock (kNoDeadlineUs = unbounded). An
///             absolute stamp survives queueing: a worker that dequeues the
///             frame late sees it already expired, which a re-anchored
///             relative budget would hide. It is comparable on the worker
///             because the clock domain is shared in-process and
///             Lamport-synced under simulation (a receive never lands
///             before its send left the sender's clock).
///   ints[2] = dispatch flags (bit kHedgedFlag: this frame is a hedged
///             re-issue to a backup replica).
/// Decoding is tolerant: legacy one-int frames read as unbounded/unhedged,
/// so the extension is backward compatible on the wire.
enum class MsgType : std::uint32_t {
  Infer = 1,       ///< master -> worker: input tensor broadcast (Step 2)
  Result = 2,      ///< worker -> master: probs + entropy (Step 4)
  Shutdown = 3,    ///< master -> worker: terminate the serving loop
  Weights = 4,     ///< model deployment: serialized expert parameters
  Collective = 5,  ///< payload of an MPI-style collective
  Ack = 6,
  Ping = 7,        ///< master -> worker: probation probe (ints[0] = probe id)
  Pong = 8,        ///< worker -> master: probe answer (echoes the Ping ints)
};

/// How encode writes each tensor: always dense, or compact wherever that
/// is strictly smaller, with the smaller of its two payloads (layouts
/// above).
enum class TensorCoding { dense, compact };

struct Message {
  MsgType type = MsgType::Ack;
  std::vector<std::int64_t> ints;
  std::vector<Tensor> tensors;

  std::string encode(TensorCoding coding = TensorCoding::dense) const;
  /// Reads both tensor codings. A header whose payload the frame cannot
  /// hold, and a compact tensor whose palette, indices or padding bits
  /// break the layout, are rejected (SerializationError) before the tensor
  /// is allocated.
  static Message decode(const std::string& bytes);

  /// Serialized size in bytes without materializing the string.
  std::int64_t encoded_size(TensorCoding coding = TensorCoding::dense) const;
};

/// `Infer` ints[1] value meaning "no deadline": the gather is unbounded.
inline constexpr std::int64_t kNoDeadlineUs = -1;
/// `Infer` ints[2] flag bit: the frame is a hedged re-issue to a backup.
inline constexpr std::int64_t kHedgedFlag = 1;

/// Decoded view of an Infer frame's ints (layout documented on MsgType).
struct InferInfo {
  std::int64_t qid = -1;
  std::int64_t deadline_us = kNoDeadlineUs;  ///< absolute, sender's clock
  bool hedged = false;
};

/// Tolerant read of `msg.ints` in the Infer layout: missing or negative
/// fields fall back to the defaults (qid -1, unbounded, unhedged), so
/// legacy and fuzzed frames stay servable.
InferInfo infer_info(const Message& msg);

/// Writes `info` into `msg.ints` in the Infer layout (always three ints).
void set_infer_info(Message& msg, const InferInfo& info);

}  // namespace teamnet::net
