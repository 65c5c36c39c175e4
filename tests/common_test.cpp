// Tests for the common utilities: error macros, logging levels, seeded RNG
// (fork independence, its stream and draws pinned bit for bit to
// std::mt19937_64 and libstdc++'s distributions, and the walk that skips
// normals at every scan width), the table printer, the
// fork-join helpers (each half exactly once, the inline fallback, a
// helper's exception in the caller), and step_off and CoreMark, which move
// a waiter off a core another thread is using.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/error.hpp"
#include "common/fork_join.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/spin.hpp"
#include "common/table.hpp"

namespace teamnet {
namespace {

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    TEAMNET_CHECK_MSG(1 == 2, "value was " << 42);
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("value was 42"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchable) {
  EXPECT_THROW(throw InvalidArgument("x"), Error);
  EXPECT_THROW(throw NetworkError("x"), Error);
  EXPECT_THROW(throw SerializationError("x"), Error);
  EXPECT_THROW(throw InvariantError("x"), std::runtime_error);
}

TEST(Error, CheckPassesSilently) {
  TEAMNET_CHECK(2 + 2 == 4);
  TEAMNET_CHECK_MSG(true, "never rendered");
}

TEST(Logging, ThresholdGatesEmission) {
  const auto saved = log::threshold().load();
  log::set_level(log::Level::Warn);
  EXPECT_FALSE(log::enabled(log::Level::Debug));
  EXPECT_FALSE(log::enabled(log::Level::Info));
  EXPECT_TRUE(log::enabled(log::Level::Warn));
  EXPECT_TRUE(log::enabled(log::Level::Error));
  log::set_level(log::Level::Off);
  EXPECT_FALSE(log::enabled(log::Level::Error));
  log::set_level(saved);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.randint(0, 1000), b.randint(0, 1000));
  }
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(Rng, NormalHasRoughlyRightMoments) {
  Rng rng(9);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(5.0f, 2.0f);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ForksAreDecorrelated) {
  Rng parent(10);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.randint(0, 1000000) == b.randint(0, 1000000)) ++equal;
  }
  EXPECT_LE(equal, 2) << "sibling forks should not track each other";
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(11);
  auto perm = rng.permutation(50);
  std::set<int> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 50u);
  EXPECT_EQ(*unique.begin(), 0);
  EXPECT_EQ(*unique.rbegin(), 49);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(12);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// --- The stream is std::mt19937_64's, and each draw libstdc++'s value ---

/// A generator that returns one fixed word, to feed std::generate_canonical
/// a chosen input.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return word; }
  std::uint64_t word;
};

/// Rng::fork's seed mix, applied to a std::mt19937_64 twin.
std::uint64_t twin_fork_seed(std::mt19937_64& twin, std::uint64_t salt) {
  std::uint64_t x = twin() ^ (salt + 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

template <typename T>
std::uint64_t bits_of(T value) {
  if constexpr (sizeof(T) == 4) return std::bit_cast<std::uint32_t>(value);
  else return std::bit_cast<std::uint64_t>(value);
}

TEST(Rng, EngineWordsEqualMt19937_64AcrossBlocks) {
  // 1,000 words run past three 312-word blocks.
  const std::uint64_t seeds[] = {0x5eed'c0de'1234'5678ULL, 0, ~std::uint64_t{0}};
  for (const std::uint64_t seed : seeds) {
    Rng rng(seed);
    std::mt19937_64 twin(seed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(rng.engine()(), twin()) << "seed " << seed << " word " << i;
    }
  }
}

/// The refill built for `lanes` words per vector against
/// std::mt19937_64 over three blocks of three seeds; skips if this CPU
/// cannot run it.
void check_refill_width(int lanes) {
  const detail::Mt64Refill refill = detail::mt64_refill(lanes);
  if (refill == nullptr) {
    GTEST_SKIP() << lanes << "-lane refill needs "
                 << (lanes == 8 ? "AVX-512F" : "AVX2");
  }
  for (const std::uint64_t seed : {std::uint64_t{5}, std::uint64_t{0},
                                   ~std::uint64_t{0}}) {
    // std::mt19937_64's seeding.
    std::array<std::uint64_t, Mt64Engine::kBlockWords> state{}, block{};
    state[0] = seed;
    for (std::size_t i = 1; i < state.size(); ++i) {
      const std::uint64_t prev = state[i - 1];
      state[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
    std::mt19937_64 twin(seed);
    for (int b = 0; b < 3; ++b) {
      refill(state.data(), block.data());
      for (std::size_t i = 0; i < block.size(); ++i) {
        ASSERT_EQ(block[i], twin()) << "seed " << seed << " block " << b
                                    << " word " << i;
      }
    }
  }
}

TEST(Rng, TwoLaneRefillEqualsMt19937_64) { check_refill_width(2); }

TEST(Rng, FourLaneRefillEqualsMt19937_64) { check_refill_width(4); }

TEST(Rng, EightLaneRefillEqualsMt19937_64) { check_refill_width(8); }

TEST(Rng, ForkedEngineWordsEqualMt19937_64) {
  Rng parent(21);
  std::mt19937_64 twin(21);
  for (int i = 0; i < 400; ++i) ASSERT_EQ(parent.engine()(), twin());
  Rng child = parent.fork(7);
  std::mt19937_64 twin_child(twin_fork_seed(twin, 7));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(child.engine()(), twin_child()) << "child word " << i;
    ASSERT_EQ(parent.engine()(), twin()) << "parent word " << i;
  }
}

TEST(Rng, CanonicalsEqualGenerateCanonical) {
  auto expect_equal = [](std::uint64_t w) {
    FixedWord word{w};
    ASSERT_EQ(bits_of(canonical_float(w)),
              bits_of(std::generate_canonical<float, 24>(word)))
        << "float, word " << w;
    ASSERT_EQ(bits_of(canonical_double(w)),
              bits_of(std::generate_canonical<double, 53>(word)))
        << "double, word " << w;
  };
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  // Zero, the smallest words, the 24-bit rounding edge, both sides of the
  // top bit, and the words float and double round up to 1 (held below it).
  constexpr std::uint64_t kOne = 1;
  const std::uint64_t edges[] = {
      0,          1,          (kOne << 25) - 1,          kOne << 25,
      (kOne << 25) + 1,       (kOne << 63) - 1,          kOne << 63,
      kTop - (kOne << 39),    kTop - (kOne << 39) + 1,   kTop - (kOne << 10),
      kTop - (kOne << 10) + 1, kTop};
  for (const std::uint64_t w : edges) expect_equal(w);
  // A third of the random words are shifted down, so every magnitude shows.
  std::mt19937_64 words(5);
  for (int i = 0; i < 1'000'000; ++i) {
    std::uint64_t w = words();
    if (i % 3 == 0) w >>= (w & 63);
    expect_equal(w);
  }
}

#ifdef __GLIBCXX__
TEST(Rng, DrawsEqualStdDistributionsOnATwinEngine) {
  // Kinds interleaved, so a draw that takes a word too many or too few
  // shifts every later one. Each std draw uses a fresh object, as Rng does.
  Rng rng(33);
  std::mt19937_64 twin(33);
  for (int i = 0; i < 20'000; ++i) {
    switch (i % 6) {
      case 0: {
        std::normal_distribution<float> d(0.5f, 0.08f);
        ASSERT_EQ(bits_of(rng.normal(0.5f, 0.08f)), bits_of(d(twin))) << i;
        break;
      }
      case 1: {
        std::normal_distribution<float> d;
        ASSERT_EQ(bits_of(rng.normal()), bits_of(d(twin))) << i;
        break;
      }
      case 2: {
        std::uniform_real_distribution<float> d(-0.12f, 0.12f);
        ASSERT_EQ(bits_of(rng.uniform(-0.12f, 0.12f)), bits_of(d(twin))) << i;
        break;
      }
      case 3: {
        std::bernoulli_distribution d(0.3);
        ASSERT_EQ(rng.bernoulli(0.3), d(twin)) << i;
        break;
      }
      case 4: {
        std::uniform_int_distribution<int> d(-3, 1000);
        ASSERT_EQ(rng.randint(-3, 1000), d(twin)) << i;
        break;
      }
      default: {
        std::vector<int> a(37);
        std::iota(a.begin(), a.end(), 0);
        std::vector<int> b = a;
        rng.shuffle(a);
        std::shuffle(b.begin(), b.end(), twin);
        ASSERT_EQ(a, b) << i;
      }
    }
  }
  EXPECT_EQ(rng.engine()(), twin());
}
#endif

// The first 64 values of each draw kind from a fresh Rng(42), taken from
// std::mt19937_64 and libstdc++ 12's distributions.
TEST(Rng, FirstDrawsArePinned) {
  const std::uint64_t kWords[64] = {
      0xc151df7d6ee5e2d6ULL, 0xa3978fb9b92502a8ULL, 0xc08c967f0e5e7b0aULL,
      0x22e2c43f8a1ad34eULL, 0xe73ca28e4d361955ULL, 0x1814dc629c7f4f7cULL,
      0x93170a1965d42420ULL, 0x5f75917a3eb7b900ULL, 0x461c9cf62eb9fcb6ULL,
      0x63e8cae041677d61ULL, 0x032b846d0bbd3f4bULL, 0x861191c96090b446ULL,
      0xaf6df0655c6891d8ULL, 0xa32897ae188a782eULL, 0xd398c3c9b02b56cdULL,
      0xf2194bc7d5976b28ULL, 0xc0d2eda553d1bc36ULL, 0x72ec29f7fc409872ULL,
      0x0bfb48552d60ec21ULL, 0x10894433f9475527ULL, 0xbf62e22b9623fb4bULL,
      0x2639bc290a9eeb52ULL, 0x6cdd812c68f90519ULL, 0x199cad8504e80ac9ULL,
      0x24d78d1d1b2520c5ULL, 0x181baef38522f794ULL, 0x87b8a689f6b57129ULL,
      0x7239f67bad2506ecULL, 0xc5e48fc8e6f31d96ULL, 0x1f5d587b2a99fb54ULL,
      0xbec32aaf5dd5e327ULL, 0x52e1d21451942857ULL, 0xc03f877c1570460aULL,
      0xcde8baa8d4b7aafcULL, 0x0b23f634f6408decULL, 0xed150d8debe66847ULL,
      0xbe5fc1f88f25ea10ULL, 0x6a82296420640d5eULL, 0x4c317a47961d9218ULL,
      0x04f0dca8b02d0c43ULL, 0xb32a05a58b5024d7ULL, 0x759dddab6e391eb0ULL,
      0x897443c2f9f697f5ULL, 0x7d261409f88748f9ULL, 0x36316c73bfff2278ULL,
      0x9b703d3ea8a33821ULL, 0x7e3a388ffa85872eULL, 0x624a46bcb0932aa3ULL,
      0xaac752b8d69267d9ULL, 0x6a7d9e89a2a8dfbeULL, 0x6f3c8ecd3d54bc48ULL,
      0x1773cba004ec6d5fULL, 0x1301665790d975c4ULL, 0xd20d5cd7b0d1e499ULL,
      0x7a3e0cb3db38f9f3ULL, 0x71850568e494f356ULL, 0xfed5bb629d4922f1ULL,
      0x984e0108fb06303dULL, 0x9e795eeb3d4ad1fbULL, 0x93a9703bf5ddf9c8ULL,
      0xdc7bfdac74d42c55ULL, 0x79c8bd3b7c5667ecULL, 0xd2e2ae0d1a3eb2b1ULL,
      0x7de5b97a534feed7ULL};
  const float kNormal[64] = {
      0x1.68f44p-1f, -0x1.25efc2p-1f, -0x1.e81c8ap+0f, -0x1.72c03ep-1f,
      0x1.ebf076p-7f, 0x1.0c363cp+0f, -0x1.49206p-2f, -0x1.46a798p-1f,
      -0x1.c8f64ap-1f, -0x1.43087ap+1f, -0x1.b943dep-2f, -0x1.a87dep-1f,
      0x1.80a994p-1f, -0x1.0f9342p-1f, -0x1.81bbd8p-2f, -0x1.d9439ap-1f,
      0x1.f16e7ep-2f, -0x1.34a5b4p+1f, -0x1.c823fcp-1f, -0x1.b85e16p-1f,
      -0x1.593534p+1f, 0x1.37b94p+0f, -0x1.38151ep-4f, -0x1.11cd2ep-5f,
      -0x1.d93c1p+0f, 0x1.b08ee2p-3f, 0x1.4986bap+0f, 0x1.167f66p+0f,
      0x1.b42d66p-1f, 0x1.112224p-1f, 0x1.242b1cp+0f, 0x1.4d5a44p-1f,
      -0x1.51c7b4p+0f, 0x1.334f6cp-1f, -0x1.d81e3cp-1f, 0x1.4a57ecp+0f,
      0x1.30d96ep+1f, -0x1.53a974p-3f, 0x1.62aa18p-1f, 0x1.546936p-1f,
      -0x1.b31cf2p-1f, -0x1.0ee794p+0f, -0x1.57fd76p-1f, -0x1.014d02p+0f,
      -0x1.7d311ep-1f, 0x1.74f4f4p-1f, 0x1.3d3dacp+0f, -0x1.963b8ep+0f,
      0x1.016c5ep-1f, 0x1.98880ap-1f, -0x1.879858p-3f, -0x1.586bfcp-1f,
      0x1.bbea48p-3f, -0x1.dc5b68p+0f, -0x1.2391f8p-2f, 0x1.b2a504p-4f,
      -0x1.6fb1ap-3f, 0x1.13e3d8p-1f, -0x1.ee082ap+0f, 0x1.5d8b82p+0f,
      0x1.390c6ep+0f, 0x1.d169c8p-2f, -0x1.6e7756p-3f, 0x1.0d857cp-2f};
  const float kUniform[64] = {  // uniform(-1, 3)
      0x1.02a3bep+1f, 0x1.8e5e4p+0f, 0x1.01192cp+1f, -0x1.d1d3bcp-2f,
      0x1.4e7946p+1f, -0x1.3f591cp-1f, 0x1.4c5c28p+0f, 0x1.f75918p-2f,
      0x1.87274p-4f, 0x1.1f4658p-1f, -0x1.e6a3dcp-1f, 0x1.184648p+0f,
      0x1.bdb7cp+0f, 0x1.8ca26p+0f, 0x1.273188p+1f, 0x1.643298p+1f,
      0x1.01a5dcp+1f, 0x1.97615p-1f, -0x1.a025bep-1f, -0x1.7bb5dep-1f,
      0x1.fd8b88p+0f, -0x1.9c643cp-2f, 0x1.66ec08p-1f, -0x1.331a94p-1f,
      -0x1.b2873p-2f, -0x1.3f2288p-1f, 0x1.1ee29cp+0f, 0x1.91cfb4p-1f,
      0x1.0bc92p+1f, -0x1.05153cp-1f, 0x1.fb0cacp+0f, 0x1.2e1d2p-2f,
      0x1.007f0ep+1f, 0x1.1bd176p+1f, -0x1.a6e04ep-1f, 0x1.5a2a1cp+1f,
      0x1.f97f08p+0f, 0x1.54114cp-1f, 0x1.862f5p-3f, -0x1.d8791ap-1f,
      0x1.cca818p+0f, 0x1.aceeecp-1f, 0x1.25d11p+0f, 0x1.e930ap-1f,
      -0x1.39d27p-3f, 0x1.6dc0f4p+0f, 0x1.f1d1c4p-1f, 0x1.125234p-1f,
      0x1.ab1d4cp+0f, 0x1.53ecf4p-1f, 0x1.79e478p-1f, -0x1.4461a4p-1f,
      -0x1.67f4ccp-1f, 0x1.241abap+1f, 0x1.d1f064p-1f, 0x1.8c282cp-1f,
      0x1.7dab76p+1f, 0x1.613804p+0f, 0x1.79e57cp+0f, 0x1.4ea5cp+0f,
      0x1.38f7fcp+1f, 0x1.ce45e8p-1f, 0x1.25c55cp+1f, 0x1.ef2dccp-1f};
  const std::uint64_t kBernoulliMask = 0x001810c423ac0528ULL;  // p = 0.3

  Rng words(42), normals(42), uniforms(42), coins(42);
  std::uint64_t mask = 0;
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(words.engine()(), kWords[i]) << i;
    EXPECT_EQ(bits_of(normals.normal()), bits_of(kNormal[i])) << i;
    EXPECT_EQ(bits_of(uniforms.uniform(-1.0f, 3.0f)), bits_of(kUniform[i])) << i;
    if (coins.bernoulli(0.3)) mask |= std::uint64_t{1} << i;
  }
  EXPECT_EQ(mask, kBernoulliMask);

#ifdef __GLIBCXX__
  // randint and shuffle run the standard library's own algorithms over the
  // engine's words, so these two pins hold for libstdc++ only.
  const int kRandint[64] = {  // randint(0, 99)
      75, 63, 75, 13, 90, 9,  57, 37, 27, 39, 1,  52, 68, 63, 82, 94,
      75, 44, 4,  6,  74, 14, 42, 10, 14, 9,  53, 44, 77, 12, 74, 32,
      75, 80, 4,  92, 74, 41, 29, 1,  69, 45, 53, 48, 21, 60, 49, 38,
      66, 41, 43, 9,  7,  82, 47, 44, 99, 59, 61, 57, 86, 47, 82, 49};
  const std::vector<int> kShuffled = {  // shuffle of 0..63
      20, 36, 49, 57, 50, 53, 45, 58, 19, 15, 31, 17, 22, 59, 3,  34,
      5,  26, 43, 44, 62, 14, 7,  28, 54, 63, 24, 41, 61, 33, 55, 9,
      6,  47, 2,  4,  23, 21, 1,  11, 29, 51, 13, 12, 56, 60, 16, 30,
      18, 38, 46, 37, 10, 27, 32, 40, 8,  25, 48, 0,  42, 52, 39, 35};
  Rng ints(42), shuffler(42);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(ints.randint(0, 99), kRandint[i]) << i;
  std::vector<int> order(64);
  std::iota(order.begin(), order.end(), 0);
  shuffler.shuffle(order);
  EXPECT_EQ(order, kShuffled);
#endif
}

// skip_normals(n) against n calls of normal(): the walks run from zero
// normals to several blocks' worth, after an even and an odd number of
// words (so pairs also straddle refills), and must leave the engine at the
// same word of the same block.
TEST(Rng, SkipNormalsLeavesTheEngineWhereNormalsDo) {
  const std::uint64_t seeds[] = {0x5eed'c0de'1234'5678ULL, 0,
                                 ~std::uint64_t{0}};
  bool ended_spent = false;    // every word of a block drawn, no refill yet
  bool ended_refilled = false;  // the last pair came from a fresh block
  for (const std::uint64_t seed : seeds) {
    for (const int offset : {0, 1}) {
      for (int count = 0; count <= 1300; count += count < 400 ? 1 : 97) {
        Rng drawn(seed), walked(seed);
        for (int i = 0; i < offset; ++i) {
          drawn.uniform();
          walked.uniform();
        }
        for (int i = 0; i < count; ++i) drawn.normal();
        walked.skip_normals(count);
        const std::size_t left = drawn.engine().unread().size();
        ended_spent = ended_spent || (count > 0 && left == 0);
        ended_refilled = ended_refilled || (count > 0 && left >= 310);
        ASSERT_EQ(walked.engine().unread().size(), left)
            << "seed " << seed << " offset " << offset << " count " << count;
        for (int w = 0; w < 400; ++w) {
          ASSERT_EQ(walked.engine()(), drawn.engine()())
              << "seed " << seed << " offset " << offset << " count " << count
              << " word " << w;
        }
      }
    }
  }
  EXPECT_TRUE(ended_spent);
  EXPECT_TRUE(ended_refilled);
}

/// Word pairs that put the polar method's accept test on its edges: random
/// words, words shifted down so x and y sit near −1, pairs whose r2 lies
/// within a few float steps of 1, and pairs near the origin.
std::vector<std::uint64_t> polar_edge_words() {
  std::mt19937_64 gen(5);
  // The word whose canonical is (v + 1) / 2, clamped to the word range.
  const auto word_for = [](long double v) {
    const long double t = (v + 1.0L) / 2.0L * 0x1p64L;
    if (t <= 0.0L) return std::uint64_t{0};
    if (t >= 0x1p64L - 1.0L) return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(t);
  };
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 200'000; ++i) {
    std::uint64_t a = gen(), b = gen();
    switch (i % 4) {
      case 1:
        a >>= (a & 63);
        b >>= (b & 63);
        break;
      case 2: {
        const long double x = static_cast<long double>(a) * 0x1p-63L - 1.0L;
        const long double y = std::sqrt(std::max(0.0L, 1.0L - x * x));
        const auto nudge =
            static_cast<std::int64_t>(b % (1u << 16)) - (1 << 15);
        b = word_for(b & 1 ? y : -y) + static_cast<std::uint64_t>(nudge << 24);
        break;
      }
      case 3:
        a = (std::uint64_t{1} << 63) + (a >> 22) - (std::uint64_t{1} << 41);
        b = (std::uint64_t{1} << 63) + (b >> 22) - (std::uint64_t{1} << 41);
        break;
      default:
        break;
    }
    words.push_back(a);
    words.push_back(b);
  }
  return words;
}

/// The `lanes`-pair scan against PolarTry one pair at a time, over spans
/// of every length and alignment and every `need` up to past the span.
void check_polar_scan_width(int lanes) {
  const detail::PolarScan scan = detail::polar_scan(lanes);
  if (scan == nullptr) {
    GTEST_SKIP() << lanes << "-lane scan needs "
                 << (lanes == 8 ? "AVX-512F" : "AVX2");
  }
  const std::vector<std::uint64_t> words = polar_edge_words();
  const std::size_t pairs = words.size() / 2;
  std::vector<int> accepted(pairs);
  int near_one = 0;
  for (std::size_t k = 0; k < pairs; ++k) {
    const PolarTry t = polar_try(words[2 * k], words[2 * k + 1]);
    accepted[k] = t.accepted();
    near_one += std::abs(t.r2 - 1.0f) < 0x1p-16f;
  }
  ASSERT_GT(near_one, 1000) << "the edge words miss r2 = 1";
  std::mt19937_64 pick(9);
  for (int trial = 0; trial < 50'000; ++trial) {
    const std::size_t start = pick() % pairs;
    const std::size_t span = std::min<std::size_t>(pairs - start, pick() % 400);
    const auto need = static_cast<std::int64_t>(pick() % 320);
    std::size_t want_pairs = 0;
    std::int64_t want_need = need;
    while (want_pairs < span && want_need > 0) {
      want_need -= accepted[start + want_pairs++];
    }
    std::int64_t got_need = need;
    const std::size_t got_pairs =
        scan(words.data() + 2 * start, span, got_need);
    ASSERT_EQ(got_pairs, want_pairs)
        << "start " << start << " span " << span << " need " << need;
    ASSERT_EQ(got_need, want_need)
        << "start " << start << " span " << span << " need " << need;
  }
}

TEST(Rng, OnePairPolarScanAgreesWithPolarTry) { check_polar_scan_width(1); }

TEST(Rng, TwoLanePolarScanAgreesWithOnePairAtATime) {
  check_polar_scan_width(2);
}

TEST(Rng, FourLanePolarScanAgreesWithOnePairAtATime) {
  check_polar_scan_width(4);
}

TEST(Rng, EightLanePolarScanAgreesWithOnePairAtATime) {
  check_polar_scan_width(8);
}

// libstdc++ asserts these preconditions only under _GLIBCXX_ASSERTIONS;
// Rng checks them in every build.
TEST(Rng, UniformRejectsAReversedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(1.0f, 0.0f), InvariantError);
  EXPECT_EQ(rng.uniform(2.5f, 2.5f), 2.5f);
}

TEST(Rng, NormalRejectsANonPositiveStddev) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0.0f, 0.0f), InvariantError);
  EXPECT_THROW(rng.normal(0.0f, -1.0f), InvariantError);
}

TEST(Rng, BernoulliRejectsAProbabilityOutsideZeroOne) {
  Rng rng(1);
  EXPECT_THROW(rng.bernoulli(-0.1), InvariantError);
  EXPECT_THROW(rng.bernoulli(1.5), InvariantError);
}

TEST(Table, AlignsColumnsAndValidatesRows) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2.5"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 2.5"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-cell"}), InvariantError);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, NumFormatsDigits) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

/// Spins until `flag` is set or 10 s pass; false on the timeout. A free
/// helper claims an offer within microseconds, so only a broken protocol
/// waits that long.
bool await_flag(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ForkJoin, EachHalfRunsExactlyOnce) {
  std::atomic<int> f_runs{0};
  std::atomic<int> g_runs{0};
  for (int i = 0; i < 2000; ++i) {
    fork_join([&] { f_runs.fetch_add(1); }, [&] { g_runs.fetch_add(1); });
    ASSERT_EQ(f_runs.load(), i + 1);
    ASSERT_EQ(g_runs.load(), i + 1);
  }
  // Four callers contending for the helpers at once.
  constexpr int kCallers = 4;
  constexpr int kRounds = 2000;
  std::vector<std::thread> callers;
  std::vector<std::atomic<int>> f_counts(kCallers);
  std::vector<std::atomic<int>> g_counts(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        fork_join([&] { f_counts[c].fetch_add(1); },
                  [&] { g_counts[c].fetch_add(1); });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(f_counts[c].load(), kRounds) << "caller " << c;
    EXPECT_EQ(g_counts[c].load(), kRounds) << "caller " << c;
  }
}

/// Holds one more helper per level in a g that waits for `release`; with
/// every helper held, forks a probe, records where its g ran, and releases
/// them all.
void fork_with_helpers_held(int level, std::atomic<bool>& release,
                            std::thread::id* probe_ran, bool* claimed_all) {
  if (level == fork_helpers()) {
    fork_join([] {}, [&] { *probe_ran = std::this_thread::get_id(); });
    release = true;
    return;
  }
  std::atomic<bool> held{false};
  fork_join(
      [&] {
        if (await_flag(held)) {
          fork_with_helpers_held(level + 1, release, probe_ran, claimed_all);
        } else {
          *claimed_all = false;  // g is taken back and runs inline
          release = true;
        }
      },
      [&] {
        held = true;
        while (!release.load()) std::this_thread::yield();
      });
}

TEST(ForkJoin, SecondHalfRunsInlineWhenNoHelperIsFree) {
  // With no helper (a one-core affinity mask) the probe runs inline at
  // once; otherwise every helper is first held by a nested fork.
  std::atomic<bool> release{false};
  std::thread::id probe_ran;
  bool claimed_all = true;
  fork_with_helpers_held(0, release, &probe_ran, &claimed_all);
  EXPECT_TRUE(claimed_all) << "a free helper never claimed its offer";
  EXPECT_EQ(probe_ran, std::this_thread::get_id())
      << "with all " << fork_helpers() << " helpers held, g left the caller";
}

TEST(ForkJoin, HelperExceptionIsRethrownAfterTheJoin) {
  const std::thread::id caller = std::this_thread::get_id();
  for (int i = 0; i < 50; ++i) {
    std::atomic<bool> g_started{false};
    std::atomic<bool> g_finished_unwinding{false};
    std::thread::id g_ran;
    bool f_done = false;
    try {
      fork_join(
          [&] {
            // Hold f until g runs, so g throws on a helper when there is one.
            if (fork_helpers() > 0) {
              ASSERT_TRUE(await_flag(g_started));
            }
            f_done = true;
          },
          [&] {
            g_ran = std::this_thread::get_id();
            g_started = true;
            struct Unwound {
              std::atomic<bool>* flag;
              ~Unwound() { *flag = true; }
            } unwound{&g_finished_unwinding};
            throw InvariantError("g failed on purpose " + std::to_string(i));
          });
      FAIL() << "fork_join returned normally";
    } catch (const InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find("g failed on purpose " +
                                           std::to_string(i)),
                std::string::npos);
    }
    EXPECT_TRUE(f_done);
    // The join came first: g had unwound completely before the rethrow.
    EXPECT_TRUE(g_finished_unwinding.load());
    if (fork_helpers() > 0) {
      EXPECT_NE(g_ran, caller) << "g ran inline, not on a helper";
    } else {
      EXPECT_EQ(g_ran, caller);
    }
  }
  // The helper that threw serves the next fork as usual.
  int g_runs = 0;
  fork_join([] {}, [&] { ++g_runs; });
  EXPECT_EQ(g_runs, 1);
}

TEST(ForkJoin, CallerExceptionWaitsForTheClaimedHalf) {
  std::atomic<bool> g_started{false};
  std::atomic<bool> g_done{false};
  EXPECT_THROW(
      fork_join(
          [&] {
            if (fork_helpers() > 0) await_flag(g_started);
            throw InvalidArgument("f failed");
          },
          [&] {
            g_started = true;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            g_done = true;
          }),
      InvalidArgument);
  // g was claimed before f threw, so fork_join waited for it; without a
  // helper it was taken back and never ran.
  EXPECT_EQ(g_done.load(), fork_helpers() > 0);
}

#if defined(__linux__)
TEST(Spin, StepOffLeavesTheCoreAndKeepsTheMask) {
  cpu_set_t full;
  ASSERT_EQ(sched_getaffinity(0, sizeof(full), &full), 0);
  if (usable_cores() < 2) GTEST_SKIP() << "needs two usable cores";
  int stepped = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &full)) continue;
    // Put the thread on c, then widen its mask again: it stays on c until
    // something moves it.
    cpu_set_t only;
    CPU_ZERO(&only);
    CPU_SET(c, &only);
    ASSERT_EQ(sched_setaffinity(0, sizeof(only), &only), 0);
    ASSERT_EQ(current_cpu(), c);
    ASSERT_EQ(sched_setaffinity(0, sizeof(full), &full), 0);
    if (current_cpu() != c) continue;  // the scheduler moved it first
    step_off(c);
    EXPECT_NE(current_cpu(), c) << "still on core " << c;
    cpu_set_t after;
    ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
    EXPECT_TRUE(CPU_EQUAL(&after, &full)) << "mask narrowed after core " << c;
    ++stepped;
  }
  EXPECT_GT(stepped, 0);
}

TEST(Spin, OnlyAnotherThreadsMarkStepsAThreadOff) {
  cpu_set_t full;
  ASSERT_EQ(sched_getaffinity(0, sizeof(full), &full), 0);
  if (usable_cores() < 2) GTEST_SKIP() << "needs two usable cores";
  int checked = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &full)) continue;
    cpu_set_t only;
    CPU_ZERO(&only);
    CPU_SET(c, &only);
    CoreMark mark;
    EXPECT_FALSE(mark.marked_by_other());
    std::thread other([&] {
      ASSERT_EQ(sched_setaffinity(0, sizeof(only), &only), 0);
      mark.mark();
    });
    other.join();
    EXPECT_TRUE(mark.marked_by_other());
    // Another thread marked c: a thread on c leaves it, mask intact.
    ASSERT_EQ(sched_setaffinity(0, sizeof(only), &only), 0);
    ASSERT_EQ(sched_setaffinity(0, sizeof(full), &full), 0);
    if (current_cpu() != c) continue;  // the scheduler moved it first
    mark.step_off_if_on();
    EXPECT_NE(current_cpu(), c) << "still on core " << c;
    cpu_set_t after;
    ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
    EXPECT_TRUE(CPU_EQUAL(&after, &full)) << "mask narrowed after core " << c;
    // This thread's own mark on c keeps it there.
    ASSERT_EQ(sched_setaffinity(0, sizeof(only), &only), 0);
    mark.mark();
    ASSERT_EQ(sched_setaffinity(0, sizeof(full), &full), 0);
    EXPECT_FALSE(mark.marked_by_other());
    if (current_cpu() != c) continue;
    mark.step_off_if_on();
    EXPECT_EQ(current_cpu(), c) << "own mark moved it off core " << c;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}
#endif

}  // namespace
}  // namespace teamnet
