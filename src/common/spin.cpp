#include "common/spin.hpp"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace teamnet {

namespace {

/// A nonzero tag per thread, drawn on its first mark or check.
std::uint64_t thread_tag() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint64_t tag =
      next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

}  // namespace

int usable_cores() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  return static_cast<int>(std::thread::hardware_concurrency());
}

int current_cpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

void step_off(int cpu) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (cpu < 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t others = allowed;
  CPU_CLR(cpu, &others);
  if (CPU_COUNT(&others) == 0) return;
  sched_setaffinity(0, sizeof(others), &others);
  sched_setaffinity(0, sizeof(allowed), &allowed);
#else
  (void)cpu;
#endif
}

void CoreMark::mark() {
  const auto cpu = static_cast<std::uint32_t>(current_cpu());
  word_.store(thread_tag() << 32 | cpu, std::memory_order_relaxed);
}

bool CoreMark::marked_by_other() const {
  const std::uint64_t word = word_.load(std::memory_order_relaxed);
  return word != 0 && word >> 32 != thread_tag();
}

void CoreMark::step_off_if_on() const {
  const std::uint64_t word = word_.load(std::memory_order_relaxed);
  if (word == 0 || word >> 32 == thread_tag()) return;
  const int cpu = current_cpu();
  if (cpu >= 0 && cpu == static_cast<int>(static_cast<std::uint32_t>(word))) {
    step_off(cpu);
  }
}

}  // namespace teamnet
