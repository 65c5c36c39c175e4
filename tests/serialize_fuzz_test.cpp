// Fuzz-ish robustness tests for the byte-level decoders: every truncation,
// a sweep of single-byte corruptions, and random garbage must surface as a
// clean teamnet::Error — never UB. Run these under -DTEAMNET_SANITIZE=asan+ubsan
// to give the checks teeth.
//
// The mutation loops drive the SAME entry points as the libFuzzer harnesses
// (fuzz/decode_targets.hpp): each target returns true (decoded) or false
// (rejected with teamnet::Error), and anything else — a crash, a foreign
// exception, a std::logic_error postcondition violation — escapes and fails
// the test. One decode-contract definition, shared by ctest and libFuzzer.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/raw_bytes.hpp"
#include "common/rng.hpp"
#include "decode_targets.hpp"
#include "net/message.hpp"
#include "nn/serialize.hpp"

namespace teamnet {
namespace {

net::Message sample_message() {
  Rng rng(99);
  net::Message msg;
  msg.type = net::MsgType::Result;
  msg.ints = {1, -2, 3'000'000'000LL};
  msg.tensors = {Tensor::randn({3, 5}, rng), Tensor::randn({7}, rng)};
  return msg;
}

/// Drives one decode-contract target through every truncation, a sweep of
/// single-byte corruptions, and random garbage. The pristine input must
/// decode; everything else must decode or cleanly reject.
void exhaust_mutations(bool (*target)(const std::string&),
                       const std::string& pristine, std::uint64_t seed) {
  EXPECT_TRUE(target(pristine)) << "pristine input must decode";
  for (std::size_t len = 0; len < pristine.size(); ++len) {
    EXPECT_NO_THROW((void)target(pristine.substr(0, len)))
        << "truncation to " << len << " of " << pristine.size() << " bytes";
  }
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    for (const unsigned char flip : {0x01u, 0x80u, 0xFFu}) {
      std::string bytes = pristine;
      bytes[pos] = static_cast<char>(static_cast<unsigned char>(bytes[pos]) ^
                                     flip);
      EXPECT_NO_THROW((void)target(bytes)) << "corruption at byte " << pos;
    }
  }
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes(static_cast<std::size_t>(rng.randint(0, 64)), '\0');
    for (auto& c : bytes) c = static_cast<char>(rng.randint(0, 255));
    EXPECT_NO_THROW((void)target(bytes)) << "garbage trial " << trial;
  }
}

TEST(MessageFuzz, MutationSweepHoldsDecodeContract) {
  exhaust_mutations(fuzz::message_decode, sample_message().encode(), 7);
}

/// A fully-loaded Infer frame (qid + deadline + hedge flag, DESIGN.md §13)
/// through the same truncation/corruption/garbage sweep.
TEST(MessageFuzz, DeadlineInferFrameHoldsDecodeContract) {
  Rng rng(101);
  net::Message msg;
  msg.type = net::MsgType::Infer;
  net::InferInfo info;
  info.qid = 41;
  info.deadline_us = 1'234'567;
  info.hedged = true;
  net::set_infer_info(msg, info);
  msg.tensors = {Tensor::randn({1, 6}, rng)};
  exhaust_mutations(fuzz::message_decode, msg.encode(), 29);
}

TEST(MessageFuzz, InferInfoRoundTrips) {
  for (const auto& original :
       {net::InferInfo{0, net::kNoDeadlineUs, false},
        net::InferInfo{7, 0, false},
        net::InferInfo{-3, 9'000'000'000'000LL, true},
        net::InferInfo{std::numeric_limits<std::int64_t>::max(), 1, true}}) {
    net::Message msg;
    msg.type = net::MsgType::Infer;
    net::set_infer_info(msg, original);
    const net::Message decoded = net::Message::decode(msg.encode());
    const net::InferInfo back = net::infer_info(decoded);
    EXPECT_EQ(back.qid, original.qid);
    EXPECT_EQ(back.deadline_us, original.deadline_us);
    EXPECT_EQ(back.hedged, original.hedged);
  }
}

/// Frames from peers that predate the deadline plane carry only the query
/// id; they must decode as unbounded and unhedged — and weird int payloads
/// must degrade the same way rather than misread garbage as a budget.
TEST(MessageFuzz, LegacyAndForeignInferFramesDecodeTolerantly) {
  net::Message legacy;
  legacy.type = net::MsgType::Infer;
  legacy.ints = {17};  // the pre-deadline wire layout
  net::InferInfo info = net::infer_info(net::Message::decode(legacy.encode()));
  EXPECT_EQ(info.qid, 17);
  EXPECT_EQ(info.deadline_us, net::kNoDeadlineUs);
  EXPECT_FALSE(info.hedged);

  net::Message empty;
  empty.type = net::MsgType::Infer;
  info = net::infer_info(empty);
  EXPECT_EQ(info.qid, -1);
  EXPECT_EQ(info.deadline_us, net::kNoDeadlineUs);

  // A negative stamp other than the sentinel means "no budget", never a
  // bogus deadline in the past that would shed every request.
  net::Message negative;
  negative.type = net::MsgType::Infer;
  negative.ints = {5, -12345, 0};
  info = net::infer_info(negative);
  EXPECT_EQ(info.deadline_us, net::kNoDeadlineUs);

  // Unknown future flag bits must not read as hedged.
  net::Message flags;
  flags.type = net::MsgType::Infer;
  flags.ints = {5, 1000, 6};  // bits 1|2 set, kHedgedFlag (1) clear
  EXPECT_FALSE(net::infer_info(flags).hedged);
}

TEST(MessageFuzz, EveryTruncationIsRejected) {
  const std::string bytes = sample_message().encode();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(fuzz::message_decode(bytes.substr(0, len)))
        << "truncation to " << len << " of " << bytes.size()
        << " bytes must not decode";
  }
}

/// The airtime-first wire's compact Infer (DESIGN.md §9) through the same
/// sweep; each of its truncations and malformed variants is rejected with
/// SerializationError.
TEST(MessageFuzz, CompactInferFrameHoldsDecodeContract) {
  const std::string bytes = fuzz::compact_infer_frame();
  exhaust_mutations(fuzz::message_decode, bytes, 31);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(net::Message::decode(bytes.substr(0, len)),
                 SerializationError)
        << "truncation to " << len << " of " << bytes.size();
  }
  for (const std::string& bad : fuzz::malformed_compact_frames()) {
    EXPECT_THROW(net::Message::decode(bad), SerializationError);
  }
}

/// The compact palette payload through the same sweep; each truncation and
/// each malformed palette, index run or low-byte run is rejected with
/// SerializationError.
TEST(MessageFuzz, PaletteInferFrameHoldsDecodeContract) {
  const std::string bytes = fuzz::palette_infer_frame();
  ASSERT_EQ(bytes.at(fuzz::kPaletteSizeAt), 3);
  exhaust_mutations(fuzz::message_decode, bytes, 37);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(net::Message::decode(bytes.substr(0, len)),
                 SerializationError)
        << "truncation to " << len << " of " << bytes.size();
  }
  for (const std::string& bad : fuzz::malformed_palette_frames()) {
    EXPECT_THROW(net::Message::decode(bad), SerializationError);
  }
}

TEST(CheckpointFuzz, MutationSweepHoldsDecodeContract) {
  Rng rng(3);
  std::ostringstream os(std::ios::binary);
  nn::save_tensors(os, {Tensor::randn({4, 4}, rng), Tensor::randn({2}, rng)});
  exhaust_mutations(fuzz::checkpoint_decode, os.str(), 11);
}

TEST(CheckpointFuzz, EveryTruncationIsRejected) {
  Rng rng(3);
  std::ostringstream os(std::ios::binary);
  nn::save_tensors(os, {Tensor::randn({4, 4}, rng), Tensor::randn({2}, rng)});
  const std::string full = os.str();
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(fuzz::checkpoint_decode(full.substr(0, len)))
        << "at truncation length " << len;
  }
  EXPECT_TRUE(fuzz::checkpoint_decode(full));
}

TEST(CheckpointFuzz, OverflowingShapeProductIsRejected) {
  // rank 8 x dims 2^28: each dim passes the per-dim bound but the product
  // overflows int64 — shape_numel would be UB; the decoder must reject it
  // (and must do so BEFORE allocating for the phantom payload).
  std::ostringstream os(std::ios::binary);
  write_raw_array(os, "TNET", 4);
  write_raw(os, std::uint32_t{2});            // version
  write_raw(os, std::uint64_t{1});            // tensor count
  write_raw(os, std::uint32_t{8});            // rank
  for (int d = 0; d < 8; ++d) write_raw(os, std::int64_t{1} << 28);
  EXPECT_FALSE(fuzz::checkpoint_decode(os.str()));
}

TEST(GatePolicyFuzz, MutationSweepHoldsDecodeContract) {
  // K=4, learned gate, n=8, finite entropies — then mutated every which way.
  std::string bytes("\x03\x00\x07", 3);
  Rng rng(17);
  for (int i = 0; i < 32; ++i) write_raw(bytes, rng.uniform(0.0f, 2.3f));
  exhaust_mutations(fuzz::gate_policy_decide, bytes, 19);
}

TEST(GatePolicyFuzz, NonFiniteEntropiesHoldContract) {
  for (unsigned char kind = 0; kind < 4; ++kind) {
    std::string bytes;
    bytes.push_back('\x05');                  // K = 6
    bytes.push_back(static_cast<char>(kind));
    bytes.push_back('\x0f');                  // n = 16
    Rng rng(23);
    for (int i = 0; i < 96; ++i) {
      switch (rng.randint(0, 3)) {
        case 0: write_raw(bytes, std::numeric_limits<float>::quiet_NaN()); break;
        case 1: write_raw(bytes, std::numeric_limits<float>::infinity()); break;
        case 2: write_raw(bytes, -std::numeric_limits<float>::infinity()); break;
        default: write_raw(bytes, rng.uniform(-1e38f, 1e38f)); break;
      }
    }
    EXPECT_NO_THROW((void)fuzz::gate_policy_decide(bytes))
        << "gate kind " << static_cast<int>(kind);
  }
}

TEST(RawBytes, RoundTripAndCursor) {
  std::string buf;
  write_raw(buf, std::uint32_t{0xDEADBEEF});
  write_raw(buf, -1.5);
  write_raw(buf, std::int64_t{-42});
  std::size_t offset = 0;
  EXPECT_EQ(read_raw<std::uint32_t>(buf, offset), 0xDEADBEEFu);
  EXPECT_EQ(read_raw<double>(buf, offset), -1.5);
  EXPECT_EQ(read_raw<std::int64_t>(buf, offset), -42);
  EXPECT_EQ(offset, buf.size());
  EXPECT_THROW((void)read_raw<char>(buf, offset), SerializationError);
}

TEST(RawBytes, ReadPastEndThrowsEvenAtHugeOffsets) {
  const std::string buf(8, 'x');
  // A cursor beyond the buffer must not wrap around in the bounds check.
  std::size_t offset = static_cast<std::size_t>(-4);
  EXPECT_THROW((void)read_raw<std::int64_t>(buf, offset), SerializationError);
  offset = 6;
  EXPECT_THROW((void)read_raw<std::int64_t>(buf, offset), SerializationError);
}

TEST(RawBytes, ArrayBoundsChecked) {
  std::string buf;
  const float values[3] = {1.0f, 2.0f, 3.0f};
  write_raw_array(buf, values, 3);
  float back[3] = {};
  std::size_t offset = 0;
  read_raw_array(buf, offset, back, 3);
  EXPECT_EQ(back[2], 3.0f);
  offset = 4;
  EXPECT_THROW(read_raw_array(buf, offset, back, 3), SerializationError);
}

TEST(RawBytes, CheckedNarrowAcceptsFittingValues) {
  EXPECT_EQ(checked_narrow<std::uint32_t>(std::size_t{12}), 12u);
  EXPECT_EQ(checked_narrow<std::int64_t>(std::uint32_t{7}), 7);
  EXPECT_EQ(checked_narrow<std::uint32_t>((std::uint64_t{1} << 32) - 1),
            0xFFFFFFFFu);
}

TEST(RawBytes, CheckedNarrowRejectsOverflowAndSignLoss) {
  EXPECT_THROW((void)checked_narrow<std::uint32_t>(std::uint64_t{1} << 32),
               SerializationError);
  EXPECT_THROW((void)checked_narrow<std::uint32_t>(std::int64_t{-1}),
               SerializationError);
  EXPECT_THROW((void)checked_narrow<std::int32_t>(
                   std::uint64_t{0x8000'0000}),
               SerializationError);
}

}  // namespace
}  // namespace teamnet
