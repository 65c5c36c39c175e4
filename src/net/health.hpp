// Per-worker health scoring + circuit breaker (DESIGN.md §13).
//
// The master feeds every dispatch outcome into a HealthTracker: a reply
// updates an EWMA of observed latency, a miss/error updates an EWMA of
// failure rate, and the failure score drives a per-worker breaker:
//
//   closed ----failure EWMA >= open_threshold----> open
//   open ----probe answered after cooldown_s-----> half_open
//   half_open --success--> closed      half_open --failure--> open
//
// An open breaker removes the worker from dispatch (the master's broadcast
// skips it and probes it over the existing Ping/Pong probation path), so a
// flapping device stops eating gather budget; half_open readmits it for
// one trial query. The latency EWMA doubles as the hedge-delay estimate
// (CollaborativeMaster::set_hedging).
//
// Time is an injectable TimeSource: a master hands it its channels' clock
// (Channel::now), so under the simulator the cooldown runs on virtual time
// and breaker transitions are deterministic; unit tests use fake clocks.
// All state sits behind one TN-annotated mutex: the tracker is shared
// between a master's query path and any telemetry reader.
#pragma once

#include <cstdint>
#include <vector>

#include "common/annotations.hpp"
#include "net/transport.hpp"

namespace teamnet::net {

enum class BreakerState { closed = 0, half_open = 1, open = 2 };

const char* to_string(BreakerState state);

class HealthTracker {
 public:
  static constexpr double kLatencyAlpha = 0.3;  ///< reply-latency EWMA
  static constexpr double kFailureAlpha = 0.4;  ///< failure-rate EWMA
  /// Failure EWMA that trips closed -> open: three consecutive misses
  /// (0.4, 0.64, 0.784).
  static constexpr double kOpenThreshold = 0.7;
  /// Earliest open -> half_open transition after the breaker opened; until
  /// then even an answered probe leaves the breaker open.
  static constexpr double kCooldownS = 0.02;
  /// expected_latency_s() before any reply has been observed (seeds the
  /// hedge delay on the first queries).
  static constexpr double kInitialLatencyS = 0.01;

  explicit HealthTracker(int num_workers, TimeSource now = {});

  /// A dispatched query got its reply after `latency_s`. Decays the failure
  /// score, folds the latency into the EWMA, and closes the breaker (a
  /// half_open trial that answers is healthy again).
  void record_success(int worker, double latency_s);

  /// A dispatched query missed its deadline or the channel errored. Bumps
  /// the failure score; trips closed -> open past the threshold and any
  /// half_open trial straight back to open.
  void record_failure(int worker);

  /// A probation probe (Ping/Pong) was answered. Decays the failure score;
  /// if the breaker is open and the cooldown has elapsed, admits the worker
  /// to half_open for a trial query. Before the cooldown it stays open.
  void record_probe_success(int worker);

  BreakerState state(int worker) const;
  /// Whether the worker may be dispatched to: closed or half_open.
  bool allow_dispatch(int worker) const;
  /// EWMA of observed reply latency (kInitialLatencyS before any sample) —
  /// the hedge-delay estimate.
  double expected_latency_s(int worker) const;
  /// Current failure EWMA in [0, 1].
  double failure_rate(int worker) const;

  /// Total closed/half_open -> open transitions across all workers.
  std::int64_t breaker_opens() const;

  int num_workers() const { return static_cast<int>(size_); }

 private:
  struct Slot {
    double latency_ewma_s = 0.0;
    bool has_latency = false;
    double failure_ewma = 0.0;
    BreakerState state = BreakerState::closed;
    double opened_at_s = 0.0;  ///< now() when the breaker last opened
  };

  Slot& check_slot(int worker) TN_REQUIRES(mutex_);
  const Slot& check_slot(int worker) const TN_REQUIRES(mutex_);
  void open_locked(Slot& slot) TN_REQUIRES(mutex_);

  TimeSource now_;
  std::size_t size_;
  mutable Mutex mutex_;
  std::vector<Slot> slots_ TN_GUARDED_BY(mutex_);
  std::int64_t opens_ TN_GUARDED_BY(mutex_) = 0;
};

}  // namespace teamnet::net
