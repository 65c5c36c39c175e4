// Two-way fork-join on the host's idle cores (DESIGN.md §7, "Fork-join
// helpers").
//
// fork_join(f, g) offers g to a process-wide helper thread, runs f on the
// calling thread, then takes g back with one compare-and-swap if no helper
// has claimed it yet and runs it inline. A parked, busy or absent helper
// therefore costs the caller a few atomic operations, never a wait: the
// serial code is the fallback, not a second path. The offered task lives on
// the caller's stack, because a helper touches it only after winning the
// claim and the caller returns only after the helper is done with it.
//
// There is one helper per core this process may run on, but one (the
// affinity mask's count, else std::thread::hardware_concurrency(); at most
// 63). The first fork_join in the process starts them and
// they are joined at exit; with none, every fork runs inline. Helpers
// inherit no thread_local state from the caller: g must set up what it
// needs (the serving forward takes an ag::NoGradGuard). Forking does not
// allocate.
#pragma once

#include <atomic>
#include <exception>
#include <memory>
#include <type_traits>

namespace teamnet {

namespace detail {

/// One offered half: a type-erased call of the caller's `g`.
struct ForkTask {
  void (*call)(void* fn) = nullptr;
  void* fn = nullptr;
  std::exception_ptr error;  ///< what g threw on a helper
  std::atomic<bool> done{false};
};

/// Puts `task` into the first empty helper slot, starting the helpers on
/// first use. Returns that helper's index, or -1 when there is no helper or
/// every slot is taken (the caller then runs g inline).
int fork_offer(ForkTask& task) noexcept;

/// After the caller's own half: true when `task` was taken back unclaimed
/// (the caller runs it), false once helper `helper` has finished running it.
bool fork_settle(int helper, ForkTask& task) noexcept;

}  // namespace detail

/// Helper threads this process forks onto (0 means every fork runs inline).
int fork_helpers();

/// Runs f() on the calling thread and g() on a helper if one claims it in
/// time, else on the calling thread after f. Both have returned when
/// fork_join returns. An exception from either is rethrown here; when f
/// throws, g still runs to completion or not at all before f's exception
/// propagates (g's is then dropped).
template <class F, class G>
void fork_join(F&& f, G&& g) {
  using GFn = std::remove_reference_t<G>;
  detail::ForkTask task;
  task.call = [](void* fn) { (*static_cast<GFn*>(fn))(); };
  task.fn = const_cast<std::remove_const_t<GFn>*>(std::addressof(g));
  const int helper = detail::fork_offer(task);
  if (helper < 0) {
    f();
    g();
    return;
  }
  try {
    f();
  } catch (...) {
    detail::fork_settle(helper, task);
    throw;
  }
  if (detail::fork_settle(helper, task)) {
    g();
  } else if (task.error) {
    std::rethrow_exception(task.error);
  }
}

}  // namespace teamnet
