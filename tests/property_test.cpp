// Property-based sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P) over the
// mathematical invariants the system relies on: entropy bounds, softmax
// normalization, gate bookkeeping, controller-target feasibility, autograd
// linearity, serialization robustness under random corruption, and the
// wire's lossless compact tensor coding.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <sstream>

#include "core/entropy.hpp"
#include "core/gate.hpp"
#include "core/soft_ops.hpp"
#include "net/message.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "tensor/autograd.hpp"
#include "tensor/ops.hpp"

namespace teamnet {
namespace {

// ---- entropy / softmax invariants -------------------------------------------

class RandomLogitsSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLogitsSweep, EntropyBounded) {
  Rng rng(GetParam());
  const std::int64_t n = 1 + rng.randint(1, 40);
  const std::int64_t c = 2 + rng.randint(0, 10);
  Tensor logits = Tensor::randn({n, c}, rng, 0.0f, rng.uniform(0.1f, 8.0f));
  Tensor h = core::entropy_from_logits(logits);
  const float max_entropy = std::log(static_cast<float>(c));
  for (float v : h.values()) {
    EXPECT_GE(v, -1e-6f);
    EXPECT_LE(v, max_entropy + 1e-5f);
  }
}

TEST_P(RandomLogitsSweep, SoftmaxRowsAreDistributions) {
  Rng rng(GetParam() + 1000);
  const std::int64_t n = 1 + rng.randint(1, 40);
  const std::int64_t c = 2 + rng.randint(0, 10);
  Tensor p = ops::softmax_rows(
      Tensor::randn({n, c}, rng, 0.0f, rng.uniform(0.1f, 20.0f)));
  for (std::int64_t i = 0; i < n; ++i) {
    float sum = 0.0f;
    for (std::int64_t j = 0; j < c; ++j) {
      EXPECT_GE(p[i * c + j], 0.0f);
      sum += p[i * c + j];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST_P(RandomLogitsSweep, SoftArgminStaysInIndexRange) {
  Rng rng(GetParam() + 2000);
  const std::int64_t n = 1 + rng.randint(1, 30);
  const std::int64_t k = 2 + rng.randint(0, 6);
  Tensor scores = Tensor::uniform({n, k}, rng, 0.0f, 3.0f);
  ag::Var g = core::soft_argmin_rows(ag::constant(scores),
                                     rng.uniform(0.5f, 50.0f));
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_GE(g.value()[i], -1e-4f);
    EXPECT_LE(g.value()[i], static_cast<float>(k - 1) + 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLogitsSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- gate bookkeeping invariants --------------------------------------------

class GateInvariantSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GateInvariantSweep, ProportionsSumToOneAndPartitionIsExact) {
  Rng rng(GetParam());
  const int n = 16 + rng.randint(0, 200);
  const int k = 2 + rng.randint(0, 6);
  Tensor h = Tensor::uniform({n, k}, rng, 0.01f, 2.0f);
  std::vector<float> delta(static_cast<std::size_t>(k));
  for (auto& d : delta) d = rng.uniform(0.1f, 5.0f);

  const auto assignment = core::gate_assign(h, delta);
  const auto gamma = core::assignment_proportions(assignment, k);
  float sum = 0.0f;
  for (float g : gamma) sum += g;
  EXPECT_NEAR(sum, 1.0f, 1e-5f);

  const auto parts = core::partition_by_assignment(assignment, k);
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  EXPECT_EQ(total, assignment.size());
  for (int i = 0; i < k; ++i) {
    for (int row : parts[static_cast<std::size_t>(i)]) {
      EXPECT_EQ(assignment[static_cast<std::size_t>(row)], i);
    }
  }
}

TEST_P(GateInvariantSweep, ControllerTargetIsFeasibleDistribution) {
  Rng rng(GetParam() + 500);
  const int k = 2 + rng.randint(0, 6);
  // Random gamma on the simplex.
  std::vector<float> gamma(static_cast<std::size_t>(k));
  float norm = 0.0f;
  for (auto& g : gamma) {
    g = rng.uniform(0.0f, 1.0f);
    norm += g;
  }
  for (auto& g : gamma) g /= norm;

  const float gain = rng.uniform(0.05f, 0.95f);
  const auto target = core::controller_target(gamma, gain);
  float sum = 0.0f;
  for (float t : target) {
    EXPECT_GE(t, 0.0f) << "targets must be achievable proportions";
    sum += t;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST_P(GateInvariantSweep, ControllerPushesAgainstBias) {
  Rng rng(GetParam() + 900);
  const int k = 2 + rng.randint(0, 4);
  std::vector<float> gamma(static_cast<std::size_t>(k),
                           1.0f / static_cast<float>(k));
  // Perturb one expert upward, renormalize.
  gamma[0] += 0.3f;
  float norm = 0.0f;
  for (float g : gamma) norm += g;
  for (auto& g : gamma) g /= norm;
  const auto target = core::controller_target(gamma, 0.5f);
  EXPECT_LT(target[0], gamma[0])
      << "over-served expert must be assigned a smaller share";
}

INSTANTIATE_TEST_SUITE_P(Seeds, GateInvariantSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- autograd linearity ------------------------------------------------------

class AutogradLinearitySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AutogradLinearitySweep, GradientOfSumIsSumOfGradients) {
  // d(f + g)/dx == df/dx + dg/dx for random small graphs.
  Rng rng(GetParam());
  Tensor x0 = Tensor::randn({4, 3}, rng);
  Tensor w = Tensor::randn({3, 2}, rng);

  auto grad_of = [&](auto builder) {
    ag::Var x(x0.clone(), true);
    ag::backward(builder(x));
    return x.grad().clone();
  };
  auto f = [&](const ag::Var& x) {
    return ag::sum_all(ag::matmul(x, ag::constant(w.clone())));
  };
  auto g = [&](const ag::Var& x) { return ag::sum_all(ag::tanh(x)); };
  auto fg = [&](const ag::Var& x) { return ag::add(f(x), g(x)); };

  Tensor expected = ops::add(grad_of(f), grad_of(g));
  EXPECT_TRUE(grad_of(fg).allclose(expected, 1e-4f));
}

TEST_P(AutogradLinearitySweep, ScalingInputScalesGradient) {
  Rng rng(GetParam() + 77);
  Tensor x0 = Tensor::randn({5}, rng);
  const float c = rng.uniform(0.5f, 3.0f);

  ag::Var a(x0.clone(), true);
  ag::backward(ag::sum_all(ag::mul_scalar(ag::square(a), c)));
  ag::Var b(x0.clone(), true);
  ag::backward(ag::sum_all(ag::square(b)));
  EXPECT_TRUE(a.grad().allclose(ops::mul_scalar(b.grad(), c), 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutogradLinearitySweep,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---- serialization corruption robustness ------------------------------------

class CorruptionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorruptionSweep, TruncatedCheckpointsThrowNotCrash) {
  Rng rng(GetParam());
  nn::MlpConfig cfg;
  cfg.in_features = 6;
  cfg.depth = 2;
  cfg.hidden = 4;
  nn::MlpNet model(cfg, rng);
  const std::string bytes = nn::serialize_parameters(model);

  // Truncation at a random point must throw a typed error.
  const std::size_t cut = 1 + static_cast<std::size_t>(rng.randint(
                                  0, static_cast<int>(bytes.size()) - 2));
  nn::MlpNet target(cfg, rng);
  EXPECT_THROW(nn::deserialize_parameters(bytes.substr(0, cut), target), Error);
}

TEST_P(CorruptionSweep, HeaderCorruptionIsRejected) {
  Rng rng(GetParam() + 40);
  nn::MlpConfig cfg;
  cfg.in_features = 6;
  cfg.depth = 2;
  cfg.hidden = 4;
  nn::MlpNet model(cfg, rng);
  std::string bytes = nn::serialize_parameters(model);
  // Flip a byte in the header region (magic/version/count/rank/dims).
  const std::size_t pos = static_cast<std::size_t>(rng.randint(0, 16));
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0xFF);
  nn::MlpNet target(cfg, rng);
  EXPECT_THROW(nn::deserialize_parameters(bytes, target), Error);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionSweep,
                         ::testing::Range<std::uint64_t>(1, 17));

// ---- compact tensor coding ---------------------------------------------------

class CompactCodingSweep : public ::testing::TestWithParam<std::uint64_t> {};

/// A random tensor of rank 0-4 (dims 0-9) whose elements mix +0.0, other
/// special bit patterns and normal values in a seeded proportion.
Tensor random_wire_tensor(Rng& rng) {
  Shape shape(static_cast<std::size_t>(rng.randint(0, 4)));
  for (auto& d : shape) d = rng.randint(0, 9);
  Tensor t(shape);
  const float zero_share = rng.uniform(0.0f, 1.0f);
  const std::uint32_t specials[] = {0x80000000u, 0x7fc00123u, 0xff800000u,
                                    0x00000003u, 0x7f800000u};
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (rng.uniform(0.0f, 1.0f) < zero_share) continue;  // stays +0.0
    t[i] = rng.uniform(0.0f, 1.0f) < 0.2f
               ? std::bit_cast<float>(specials[rng.randint(0, 4)])
               : rng.uniform(-2.0f, 2.0f);
  }
  return t;
}

TEST_P(CompactCodingSweep, RoundTripIsBitExactAndSizesAgree) {
  Rng rng(GetParam());
  net::Message msg;
  msg.type = net::MsgType::Infer;
  msg.ints = {static_cast<std::int64_t>(GetParam())};
  for (int i = rng.randint(1, 3); i > 0; --i) {
    msg.tensors.push_back(random_wire_tensor(rng));
  }
  for (const auto coding :
       {net::TensorCoding::dense, net::TensorCoding::compact}) {
    const std::string bytes = msg.encode(coding);
    ASSERT_EQ(static_cast<std::int64_t>(bytes.size()),
              msg.encoded_size(coding));
    const net::Message back = net::Message::decode(bytes);
    ASSERT_EQ(back.tensors.size(), msg.tensors.size());
    for (std::size_t i = 0; i < msg.tensors.size(); ++i) {
      const Tensor& want = msg.tensors[i];
      ASSERT_EQ(back.tensors[i].shape(), want.shape());
      if (want.numel() > 0) {
        EXPECT_EQ(std::memcmp(back.tensors[i].data(), want.data(),
                              static_cast<std::size_t>(want.numel()) * 4),
                  0);
      }
    }
  }
}

/// The compact payload of `t` by the layout's arithmetic: the bitmap, the
/// palette size byte and the smaller of raw kept floats and, with 1-16
/// distinct top bytes, the palette, the ceil(log2 p)-bit indices and three
/// low bytes per kept float.
std::int64_t compact_payload(const Tensor& t) {
  std::int64_t kept = 0;
  bool top[256] = {};
  for (const float v : t.values()) {
    const auto bits = std::bit_cast<std::uint32_t>(v);
    if (bits == 0) continue;
    ++kept;
    top[bits >> 24] = true;
  }
  const int p = static_cast<int>(std::count(std::begin(top), std::end(top), true));
  std::int64_t payload = 4 * kept;
  if (p >= 1 && p <= 16) {
    int index_bits = 0;
    while ((1 << index_bits) < p) ++index_bits;
    payload = std::min(payload, p + (kept * index_bits + 7) / 8 + 3 * kept);
  }
  return (t.numel() + 7) / 8 + 1 + payload;
}

TEST_P(CompactCodingSweep, CompactExactlyWhenStrictlySmaller) {
  Rng rng(GetParam() + 100);
  net::Message msg;
  msg.tensors = {random_wire_tensor(rng)};
  const Tensor& t = msg.tensors[0];
  const bool smaller = compact_payload(t) < 4 * t.numel();
  const std::string bytes = msg.encode(net::TensorCoding::compact);
  // The rank word follows type and the two counts; its top bit flags the
  // compact form.
  EXPECT_EQ((static_cast<unsigned char>(bytes.at(15)) & 0x80) != 0, smaller);
  EXPECT_EQ(bytes.size() < msg.encode().size(), smaller);
  if (smaller) {
    EXPECT_EQ(static_cast<std::int64_t>(bytes.size()),
              16 + 8 * t.rank() + compact_payload(t));
  }
}

TEST_P(CompactCodingSweep, EveryTruncationThrowsSerializationError) {
  Rng rng(GetParam() + 200);
  net::Message msg;
  msg.type = net::MsgType::Infer;
  msg.tensors = {random_wire_tensor(rng), random_wire_tensor(rng)};
  const std::string bytes = msg.encode(net::TensorCoding::compact);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(net::Message::decode(bytes.substr(0, len)),
                 SerializationError)
        << "truncation to " << len << " of " << bytes.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactCodingSweep,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---- compact palette payload -------------------------------------------------

/// Tensors whose kept elements take exactly GetParam() distinct top bytes.
class PaletteSweep : public ::testing::TestWithParam<int> {};

/// 203 elements, a third of them +0.0, the rest cycling through
/// `distinct` top bytes with seeded low bytes. The first four top bytes
/// are the special patterns' own, and the first kept elements are those
/// patterns exactly: -0.0f (0x80), a NaN payload and +inf (0x7f), -inf
/// (0xff) and a denormal (0x00).
Tensor palette_tensor(int distinct, Rng& rng) {
  const std::uint32_t specials[] = {0x80000000u, 0x7fc00123u, 0xff800000u,
                                    0x00000003u};
  const auto top_of = [](int slot) {
    constexpr std::uint32_t kSpecialTops[] = {0x80, 0x7f, 0xff, 0x00};
    return slot < 4 ? kSpecialTops[slot] : 0x30u + static_cast<std::uint32_t>(slot);
  };
  Tensor t({203});
  if (distinct == 0) return t;
  int kept = 0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (i % 3 == 1) continue;  // stays +0.0
    const int slot = kept % distinct;
    std::uint32_t bits =
        top_of(slot) << 24 |
        static_cast<std::uint32_t>(rng.randint(1, (1 << 24) - 1));
    if (kept < std::min(distinct, 4)) bits = specials[kept];  // its own slot
    if (distinct > 1 && kept == distinct + 1) bits = 0x7f800000u;  // slot 1
    t[i] = std::bit_cast<float>(bits);
    ++kept;
  }
  return t;
}

TEST_P(PaletteSweep, RoundTripIsBitExactAndPicksTheSmallerPayload) {
  const int distinct = GetParam();
  Rng rng(static_cast<std::uint64_t>(distinct) + 7);
  net::Message msg;
  msg.type = net::MsgType::Infer;
  msg.tensors = {palette_tensor(distinct, rng)};
  const Tensor& t = msg.tensors[0];
  const std::string bytes = msg.encode(net::TensorCoding::compact);
  ASSERT_EQ(static_cast<std::int64_t>(bytes.size()),
            msg.encoded_size(net::TensorCoding::compact));
  ASSERT_EQ(static_cast<std::int64_t>(bytes.size()), 16 + 8 + compact_payload(t));
  // The palette size byte follows the dims and the 26-byte bitmap: a
  // palette of every distinct top byte up to 16, raw floats past that.
  const auto p = static_cast<unsigned char>(bytes.at(16 + 8 + 26));
  EXPECT_EQ(p, distinct <= 16 ? distinct : 0);
  const net::Message back = net::Message::decode(bytes);
  ASSERT_EQ(back.tensors.size(), 1u);
  ASSERT_EQ(back.tensors[0].shape(), t.shape());
  EXPECT_EQ(std::memcmp(back.tensors[0].data(), t.data(),
                        static_cast<std::size_t>(t.numel()) * sizeof(float)),
            0);
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    EXPECT_THROW(net::Message::decode(bytes.substr(0, len)),
                 SerializationError)
        << "truncation to " << len << " of " << bytes.size();
  }
}

INSTANTIATE_TEST_SUITE_P(DistinctTopBytes, PaletteSweep,
                         ::testing::Values(0, 1, 2, 16, 17));

}  // namespace
}  // namespace teamnet
