#include "common/fork_join.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <system_error>
#include <thread>

#include "common/spin.hpp"

namespace teamnet {

namespace {

using detail::ForkTask;

/// Upper bound on helper threads, whatever the core count.
constexpr int kMaxForkHelpers = 63;

// Slot sentinels. A slot holds nullptr (empty), a caller's offered task,
// or one of these. Only the slot's helper stores kTaken, and only the
// pool's destructor stores kStop.
ForkTask g_taken_sentinel;
ForkTask g_stop_sentinel;
ForkTask* const kTaken = &g_taken_sentinel;  // claimed, being run
ForkTask* const kStop = &g_stop_sentinel;    // pool shutting down

/// One helper thread and the words a forking caller shares with it, on a
/// cache line of their own.
struct alignas(64) Helper {
  std::atomic<ForkTask*> slot{nullptr};
  /// 1 while the helper is parked (or about to); a poster that swaps it
  /// back to 0 wakes the helper.
  std::atomic<std::uint32_t> parked{0};
  /// Tasks finished; a caller whose half was claimed sleeps on it.
  std::atomic<std::uint32_t> finished{0};
  /// The thread and core the latest offer came from. A helper that shares
  /// its poster's core can only claim while that caller is preempted, and
  /// its spinning takes the caller's time. The scheduler puts it there
  /// readily (a woken thread lands on its waker's core on hosts whose idle
  /// cores look busy), so it steps off.
  CoreMark poster;
  std::thread thread;

  void wake() {
    if (parked.exchange(0) == 1) parked.notify_one();
  }

  /// The helper thread's loop: claim what is offered, run it, repeat;
  /// park when nothing came for kSpinWindow.
  void serve() {
    for (;;) {
      ForkTask* task = slot.load(std::memory_order_acquire);
      if (task == nullptr) {
        const auto offered = [&] {
          return slot.load(std::memory_order_acquire) != nullptr;
        };
        if (!spin_until(offered, [&] { poster.step_off_if_on(); })) {
          parked.store(1);
          if (slot.load() == nullptr) parked.wait(1);
          parked.store(0, std::memory_order_relaxed);
          poster.step_off_if_on();
        }
        continue;
      }
      if (task == kStop) return;
      // The caller may take the task back first; then the slot is empty or
      // holds someone else's offer, and the loop looks again.
      if (!slot.compare_exchange_strong(task, kTaken)) continue;
      try {
        task->call(task->fn);
      } catch (...) {
        task->error = std::current_exception();
      }
      slot.store(nullptr, std::memory_order_release);
      // The last touch of the task: its caller may return and reuse the
      // stack as soon as `done` reads true.
      task->done.store(true, std::memory_order_release);
      finished.fetch_add(1);
      finished.notify_all();
    }
  }
};

class HelperPool {
 public:
  HelperPool() : size_(std::clamp(usable_cores() - 1, 0, kMaxForkHelpers)) {
    for (int i = 0; i < size_; ++i) {
      Helper& h = helpers_[static_cast<std::size_t>(i)];
      try {
        h.thread = std::thread([&h] { h.serve(); });
      } catch (const std::system_error&) {
        size_ = i;  // fork onto the helpers that did start
        break;
      }
    }
  }

  ~HelperPool() {
    for (int i = 0; i < size_; ++i) {
      Helper& h = helpers_[static_cast<std::size_t>(i)];
      // A slot holding an offer empties when its caller settles.
      ForkTask* expected = nullptr;
      while (!h.slot.compare_exchange_weak(expected, kStop)) {
        expected = nullptr;
        std::this_thread::yield();
      }
      h.wake();
      h.thread.join();
    }
  }

  HelperPool(const HelperPool&) = delete;
  HelperPool& operator=(const HelperPool&) = delete;

  int size() const { return size_; }
  Helper& helper(int i) { return helpers_[static_cast<std::size_t>(i)]; }

 private:
  std::array<Helper, kMaxForkHelpers> helpers_;
  int size_;
};

HelperPool& helper_pool() {
  static HelperPool pool;
  return pool;
}

}  // namespace

int fork_helpers() { return helper_pool().size(); }

namespace detail {

int fork_offer(ForkTask& task) noexcept {
  HelperPool& pool = helper_pool();
  for (int i = 0; i < pool.size(); ++i) {
    Helper& h = pool.helper(i);
    ForkTask* expected = nullptr;
    if (h.slot.load(std::memory_order_relaxed) == nullptr &&
        h.slot.compare_exchange_strong(expected, &task)) {
      h.poster.mark();
      h.wake();
      return i;
    }
  }
  return -1;
}

bool fork_settle(int helper, ForkTask& task) noexcept {
  Helper& h = helper_pool().helper(helper);
  ForkTask* expected = &task;
  if (h.slot.compare_exchange_strong(expected, nullptr)) return true;
  const auto done = [&] { return task.done.load(std::memory_order_acquire); };
  if (spin_until(done, [] {})) return false;
  for (;;) {
    const std::uint32_t seen = h.finished.load();
    if (done()) return false;
    h.finished.wait(seen);
  }
}

}  // namespace detail

}  // namespace teamnet
