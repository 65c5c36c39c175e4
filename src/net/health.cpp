#include "net/health.hpp"

#include <chrono>

#include "common/error.hpp"

namespace teamnet::net {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::closed:
      return "closed";
    case BreakerState::half_open:
      return "half_open";
    case BreakerState::open:
      return "open";
  }
  return "?";
}

HealthTracker::HealthTracker(int num_workers, TimeSource now)
    : now_(now ? std::move(now) : TimeSource(&steady_seconds)),
      size_(static_cast<std::size_t>(num_workers)),
      slots_(size_) {
  TEAMNET_CHECK_MSG(num_workers >= 0, "worker count must be >= 0");
}

const HealthTracker::Slot& HealthTracker::check_slot(int worker) const {
  TEAMNET_CHECK_MSG(worker >= 0 && static_cast<std::size_t>(worker) < size_,
                    "worker index " << worker << " out of range [0, " << size_
                                    << ")");
  return slots_[static_cast<std::size_t>(worker)];
}

HealthTracker::Slot& HealthTracker::check_slot(int worker) {
  return const_cast<Slot&>(
      static_cast<const HealthTracker*>(this)->check_slot(worker));
}

void HealthTracker::open_locked(Slot& slot) {
  slot.state = BreakerState::open;
  slot.opened_at_s = now_();
  ++opens_;
}

void HealthTracker::record_success(int worker, double latency_s) {
  MutexLock lock(mutex_);
  Slot& slot = check_slot(worker);
  slot.failure_ewma *= 1.0 - kFailureAlpha;
  if (slot.has_latency) {
    slot.latency_ewma_s += kLatencyAlpha * (latency_s - slot.latency_ewma_s);
  } else {
    slot.latency_ewma_s = latency_s;
    slot.has_latency = true;
  }
  // Any observed reply is direct evidence of health: a half_open trial that
  // answers closes the breaker, and a straggler reply that lands while the
  // breaker is open closes it early.
  slot.state = BreakerState::closed;
}

void HealthTracker::record_failure(int worker) {
  MutexLock lock(mutex_);
  Slot& slot = check_slot(worker);
  slot.failure_ewma = slot.failure_ewma * (1.0 - kFailureAlpha) + kFailureAlpha;
  if (slot.state == BreakerState::half_open) {
    open_locked(slot);  // trial query failed: straight back to open
  } else if (slot.state == BreakerState::closed &&
             slot.failure_ewma >= kOpenThreshold) {
    open_locked(slot);
  }
}

void HealthTracker::record_probe_success(int worker) {
  MutexLock lock(mutex_);
  Slot& slot = check_slot(worker);
  slot.failure_ewma *= 1.0 - kFailureAlpha;
  if (slot.state == BreakerState::open &&
      now_() - slot.opened_at_s >= kCooldownS) {
    slot.state = BreakerState::half_open;
  }
}

BreakerState HealthTracker::state(int worker) const {
  MutexLock lock(mutex_);
  return check_slot(worker).state;
}

bool HealthTracker::allow_dispatch(int worker) const {
  MutexLock lock(mutex_);
  return check_slot(worker).state != BreakerState::open;
}

double HealthTracker::expected_latency_s(int worker) const {
  MutexLock lock(mutex_);
  const Slot& slot = check_slot(worker);
  return slot.has_latency ? slot.latency_ewma_s : kInitialLatencyS;
}

double HealthTracker::failure_rate(int worker) const {
  MutexLock lock(mutex_);
  return check_slot(worker).failure_ewma;
}

std::int64_t HealthTracker::breaker_opens() const {
  MutexLock lock(mutex_);
  return opens_;
}

}  // namespace teamnet::net
