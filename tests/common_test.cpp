// Tests for the common utilities: error macros, logging levels, seeded RNG
// (fork independence), and the table printer.
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
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

}  // namespace
}  // namespace teamnet
