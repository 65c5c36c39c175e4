// Spinning and core placement, shared by the fork-join helpers and TCP reads
// (DESIGN.md §7, "Spinning and core placement").
//
// A thread that expects its event within microseconds polls for it for up
// to kSpinWindow before it sleeps, so a wake-up through the kernel stays
// off the fast path. A thread that slept and was woken onto the core of the
// thread that woke it can only run there while that thread is preempted;
// step_off moves it to another core without narrowing its affinity for
// good, and a CoreMark tells it which core that is.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

namespace teamnet {

/// How long a waiter polls before it sleeps: longer than the gap between
/// one Shake-Shake block's fork and the next, between back-to-back queries,
/// and between a master's own forward and a reply its worker computed
/// beside it.
inline constexpr auto kSpinWindow = std::chrono::microseconds(200);

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Polls `done` for `window` (at most kSpinWindow), calling `between` after
/// every 64 polls; true as soon as `done` holds.
template <class Done, class Between>
bool spin_until(const Done& done, const Between& between,
                std::chrono::steady_clock::duration window = kSpinWindow) {
  const auto until = std::chrono::steady_clock::now() +
                     std::min<std::chrono::steady_clock::duration>(
                         window, kSpinWindow);
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (done()) return true;
      cpu_relax();
    }
    between();
    if (std::chrono::steady_clock::now() >= until) return done();
  }
}

/// Cores the calling thread may run on: its affinity mask's count where
/// there is one, else std::thread::hardware_concurrency().
int usable_cores();

/// The core the calling thread is on, or -1 where that is unknown.
int current_cpu();

/// Moves the calling thread off `cpu`: leaving it out of the thread's
/// affinity mask migrates the thread at once, and the full mask comes
/// straight back. A no-op for cpu < 0, when `cpu` is the mask's only core,
/// or where affinity is unsupported.
void step_off(int cpu);

/// The thread that last handed work on and the core it was on, in one
/// word, so a waiter can tell another thread's mark from its own.
class CoreMark {
 public:
  /// Records the calling thread and its core.
  void mark();

  /// True when the latest mark came from a thread other than the caller.
  bool marked_by_other() const;

  /// Steps the calling thread off the marked core if it sits there and
  /// another thread made the mark. A thread's own mark never moves it.
  void step_off_if_on() const;

 private:
  /// Thread tag (nonzero) << 32 | the core as 32 bits; 0 before a mark.
  std::atomic<std::uint64_t> word_{0};
};

}  // namespace teamnet
