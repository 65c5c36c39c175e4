// HealthTracker units (DESIGN.md §13): EWMA math, the
// closed/half_open/open breaker state machine, and cooldown timing — all
// against a hand-advanced fake TimeSource, so every transition is exact.
#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "net/health.hpp"

namespace teamnet {
namespace {

/// Hand-advanced clock shared with the tracker under test.
struct FakeClock {
  double now = 0.0;
  net::TimeSource source() {
    return [this] { return now; };
  }
};

using Tracker = net::HealthTracker;

TEST(HealthTracker, StartsClosedWithSeedLatency) {
  net::HealthTracker tracker(3);
  for (int w = 0; w < 3; ++w) {
    EXPECT_EQ(tracker.state(w), net::BreakerState::closed);
    EXPECT_TRUE(tracker.allow_dispatch(w));
    EXPECT_DOUBLE_EQ(tracker.expected_latency_s(w),
                     Tracker::kInitialLatencyS);
    EXPECT_DOUBLE_EQ(tracker.failure_rate(w), 0.0);
  }
  EXPECT_EQ(tracker.breaker_opens(), 0);
  EXPECT_EQ(tracker.num_workers(), 3);
}

TEST(HealthTracker, LatencyEwmaSeedsThenSmooths) {
  net::HealthTracker tracker(1);
  tracker.record_success(0, 0.100);
  // First sample seeds the EWMA outright (no pull toward the prior).
  EXPECT_DOUBLE_EQ(tracker.expected_latency_s(0), 0.100);
  tracker.record_success(0, 0.200);
  const double alpha = Tracker::kLatencyAlpha;
  EXPECT_DOUBLE_EQ(tracker.expected_latency_s(0),
                   0.100 + alpha * (0.200 - 0.100));
}

TEST(HealthTracker, OpensAfterThreeConsecutiveFailures) {
  // With failure_alpha 0.4 / threshold 0.7 the score walks 0.4, 0.64,
  // 0.784 — the documented three-strikes default.
  net::HealthTracker tracker(2);
  tracker.record_failure(0);
  EXPECT_EQ(tracker.state(0), net::BreakerState::closed);
  tracker.record_failure(0);
  EXPECT_EQ(tracker.state(0), net::BreakerState::closed);
  tracker.record_failure(0);
  EXPECT_EQ(tracker.state(0), net::BreakerState::open);
  EXPECT_FALSE(tracker.allow_dispatch(0));
  EXPECT_EQ(tracker.breaker_opens(), 1);
  // Per-worker isolation: worker 1 is untouched.
  EXPECT_EQ(tracker.state(1), net::BreakerState::closed);
}

TEST(HealthTracker, SuccessDecaysFailureScore) {
  net::HealthTracker tracker(1);
  tracker.record_failure(0);
  tracker.record_failure(0);
  const double before = tracker.failure_rate(0);
  tracker.record_success(0, 0.01);
  EXPECT_DOUBLE_EQ(tracker.failure_rate(0),
                   before * (1.0 - Tracker::kFailureAlpha));
  // Interleaved successes keep the score under the threshold forever.
  for (int i = 0; i < 50; ++i) {
    tracker.record_failure(0);
    tracker.record_success(0, 0.01);
  }
  EXPECT_EQ(tracker.state(0), net::BreakerState::closed);
  EXPECT_EQ(tracker.breaker_opens(), 0);
}

TEST(HealthTracker, ProbeBeforeCooldownStaysOpen) {
  FakeClock clock;
  net::HealthTracker tracker(1, clock.source());
  for (int i = 0; i < 3; ++i) tracker.record_failure(0);
  ASSERT_EQ(tracker.state(0), net::BreakerState::open);

  clock.now = Tracker::kCooldownS / 2;  // cooldown not yet elapsed
  tracker.record_probe_success(0);
  EXPECT_EQ(tracker.state(0), net::BreakerState::open);
  EXPECT_FALSE(tracker.allow_dispatch(0));

  clock.now = Tracker::kCooldownS;  // exactly the cooldown: half_open
  tracker.record_probe_success(0);
  EXPECT_EQ(tracker.state(0), net::BreakerState::half_open);
  EXPECT_TRUE(tracker.allow_dispatch(0));
}

TEST(HealthTracker, HalfOpenTrialSuccessClosesFailureReopens) {
  FakeClock clock;
  net::HealthTracker tracker(2, clock.source());

  auto open_then_half_open = [&](int w) {
    while (tracker.state(w) != net::BreakerState::open) {
      tracker.record_failure(w);
    }
    clock.now += Tracker::kCooldownS;
    tracker.record_probe_success(w);
    ASSERT_EQ(tracker.state(w), net::BreakerState::half_open);
  };

  open_then_half_open(0);
  tracker.record_success(0, 0.02);
  EXPECT_EQ(tracker.state(0), net::BreakerState::closed);

  open_then_half_open(1);
  const std::int64_t opens_before = tracker.breaker_opens();
  tracker.record_failure(1);  // trial failed: straight back to open
  EXPECT_EQ(tracker.state(1), net::BreakerState::open);
  EXPECT_EQ(tracker.breaker_opens(), opens_before + 1);
}

TEST(HealthTracker, StragglerReplyClosesOpenBreakerEarly) {
  net::HealthTracker tracker(1);
  for (int i = 0; i < 3; ++i) tracker.record_failure(0);
  ASSERT_EQ(tracker.state(0), net::BreakerState::open);
  // A real reply (e.g. a straggler from a pre-failure dispatch) is direct
  // evidence of health and closes the breaker without the probe dance.
  tracker.record_success(0, 0.03);
  EXPECT_EQ(tracker.state(0), net::BreakerState::closed);
}

TEST(HealthTracker, RejectsInvalidConfigAndIndices) {
  net::HealthTracker tracker(2);
  EXPECT_THROW(tracker.state(-1), Error);
  EXPECT_THROW(tracker.record_failure(2), Error);
}

TEST(HealthTracker, BreakerTransitionsAreDeterministicInVirtualTime) {
  // The same scripted event sequence against the same fake clock must land
  // in the same state — the property the DES scenarios lean on.
  auto run_once = [] {
    FakeClock clock;
    net::HealthTracker tracker(1, clock.source());
    for (int i = 0; i < 3; ++i) tracker.record_failure(0);
    clock.now = 1.2 * Tracker::kCooldownS;
    tracker.record_probe_success(0);
    tracker.record_success(0, 0.015);
    return std::make_tuple(tracker.state(0), tracker.failure_rate(0),
                           tracker.expected_latency_s(0),
                           tracker.breaker_opens());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace teamnet
