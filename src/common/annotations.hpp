// Clang thread-safety capability analysis, repo-wide.
//
// Every lock in TeamNet goes through the annotated wrappers below so that
// `-Wthread-safety -Wthread-safety-beta` (the TEAMNET_THREAD_SAFETY build,
// clang only) can prove lock discipline at compile time for ALL paths —
// TSan only sees the interleavings that actually execute. Under GCC the
// macros expand to nothing and the wrappers are zero-cost forwarding shims.
//
// Conventions:
//   * Fields protected by a mutex carry TN_GUARDED_BY(mutex_).
//   * Private helpers that assume the lock is held carry TN_REQUIRES(mutex_)
//     and are named `*_locked` (see DESIGN.md "Concurrency invariants").
//   * Condition waits use CondVar::wait / wait_until inside an explicit
//     `while (!predicate)` loop so the analysis sees the guarded predicate
//     re-checked under the lock — never a bare wait.
//   * Any TN_NO_THREAD_SAFETY_ANALYSIS escape hatch must sit next to a
//     written invariant explaining why the analysis cannot see the proof.
//
// tools/analyze.py (rule `raw-mutex`) enforces the funnel: raw std::mutex /
// std::lock_guard / std::condition_variable are forbidden in src/** outside
// this header.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>  // lint:allow(raw-mutex) — the one place raw primitives live

#if defined(__clang__)
#define TN_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TN_THREAD_ANNOTATION(x)  // GCC: capability analysis unavailable
#endif

#define TN_CAPABILITY(x) TN_THREAD_ANNOTATION(capability(x))
#define TN_SCOPED_CAPABILITY TN_THREAD_ANNOTATION(scoped_lockable)
#define TN_GUARDED_BY(x) TN_THREAD_ANNOTATION(guarded_by(x))
#define TN_PT_GUARDED_BY(x) TN_THREAD_ANNOTATION(pt_guarded_by(x))
#define TN_REQUIRES(...) \
  TN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define TN_ACQUIRE(...) \
  TN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define TN_RELEASE(...) \
  TN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define TN_TRY_ACQUIRE(...) \
  TN_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TN_EXCLUDES(...) TN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define TN_ACQUIRED_BEFORE(...) \
  TN_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define TN_ACQUIRED_AFTER(...) \
  TN_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define TN_RETURN_CAPABILITY(x) TN_THREAD_ANNOTATION(lock_returned(x))
#define TN_NO_THREAD_SAFETY_ANALYSIS \
  TN_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace teamnet {

/// Annotated exclusive mutex (absl-style). Prefer MutexLock over manual
/// lock()/unlock() pairs; the manual form exists for the rare split
/// acquire/release and keeps the capability bookkeeping explicit.
class TN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TN_ACQUIRE() { m_.lock(); }
  void unlock() TN_RELEASE() { m_.unlock(); }
  bool try_lock() TN_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  friend class MutexPairLock;
  std::mutex m_;  // lint:allow(raw-mutex)
};

/// RAII scoped acquisition of one Mutex.
class TN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) TN_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.m_.lock();
  }
  ~MutexLock() TN_RELEASE() { mutex_.m_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// RAII scoped acquisition of two Mutexes, deadlock-free (std::lock order).
/// Used by cross-instance operations (e.g. telemetry copy/assign) where a
/// fixed this-before-other order would deadlock on concurrent a=b; b=a.
class TN_SCOPED_CAPABILITY MutexPairLock {
 public:
  MutexPairLock(Mutex& a, Mutex& b) TN_ACQUIRE(a, b) : a_(a), b_(b) {
    std::lock(a_.m_, b_.m_);
  }
  ~MutexPairLock() TN_RELEASE() {
    a_.m_.unlock();
    b_.m_.unlock();
  }

  MutexPairLock(const MutexPairLock&) = delete;
  MutexPairLock& operator=(const MutexPairLock&) = delete;

 private:
  Mutex& a_;
  Mutex& b_;
};

/// Condition variable bound to the annotated Mutex. Waits require the
/// caller to hold the mutex (TN_REQUIRES), making the guarded-predicate
/// loop visible to the analysis at every call site.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously woken). Callers re-check their
  /// guarded predicate in a loop around this call.
  void wait(Mutex& mutex) TN_REQUIRES(mutex) {
    // The analysis cannot model handing the locked state to
    // std::condition_variable, so adopt the already-held native mutex and
    // release the unique_lock wrapper before it goes out of scope: the
    // caller still holds `mutex` on return, exactly as TN_REQUIRES states.
    std::unique_lock<std::mutex> native(mutex.m_, std::adopt_lock);  // lint:allow(raw-mutex)
    cv_.wait(native);
    native.release();
  }

  /// Blocks until notified or `deadline` passes. Returns false when the
  /// deadline passed without a notification (callers re-check the guarded
  /// predicate either way — a timeout can race a final notify).
  bool wait_until(Mutex& mutex,
                  std::chrono::steady_clock::time_point deadline)
      TN_REQUIRES(mutex) {
    std::unique_lock<std::mutex> native(mutex.m_, std::adopt_lock);  // lint:allow(raw-mutex)
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status == std::cv_status::no_timeout;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;  // lint:allow(raw-mutex)
};

}  // namespace teamnet
