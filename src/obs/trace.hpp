// Span/event tracer emitting Chrome trace-event JSON (Perfetto-loadable).
//
// Model (DESIGN.md §10):
//   * A TRACK is one Perfetto thread row, identified by a small integer —
//     by convention the scenario node id (master = its node id, workers =
//     theirs). Events within a track are stored in emission order.
//   * Each thread BINDS itself to a track with an RAII `TraceTrack`,
//     providing the track id and a `TimeSource` — the clock events on this
//     thread are stamped with. The time-source rule: virtual node time
//     (`SimNet::node_time`) under the simulator, wall time on real TCP,
//     never mixed in one trace.
//   * `TraceSpan` records a balanced B/E pair on the calling thread's
//     bound track; `trace_instant` / `trace_counter` record point events.
//   * Code that already holds a scheduler lock (des::Engine) emits with an
//     explicit track + timestamp via `Tracer::instant_at`; calling a bound
//     TimeSource there would re-enter the engine mutex. Track mutexes are
//     LEAF locks — no other lock is ever taken while one is held.
//
// Zero-overhead-when-disabled contract: every emission entry point is an
// inline check of one relaxed atomic (`Tracer::active()`); argument
// construction is deferred behind that check via the lambda overloads, so
// an un-traced run pays one predictable branch per site and never
// allocates.
//
// Determinism: under the discrete_event scheduler at most one protocol
// thread runs at a time and every track's clock is its node's virtual
// time, so buffer order and timestamps — and therefore the serialized
// JSON, written in track-id order with %.17g timestamps — are
// byte-identical across same-seed runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.hpp"

namespace teamnet::obs {

/// Returns the current time in seconds. Monotone per bound track.
using TimeSource = std::function<double()>;

namespace detail {
inline std::atomic<bool> g_trace_active{false};
inline std::atomic<bool> g_sched_events{false};
}  // namespace detail

/// Pre-rendered JSON argument map for a trace event.
class TraceArgs {
 public:
  TraceArgs& arg(const char* key, std::int64_t value);
  TraceArgs& arg(const char* key, int value) {
    return arg(key, static_cast<std::int64_t>(value));
  }
  TraceArgs& arg(const char* key, std::size_t value) {
    return arg(key, static_cast<std::int64_t>(value));
  }
  TraceArgs& arg(const char* key, double value);
  TraceArgs& arg(const char* key, const std::string& value);

  bool empty() const { return body_.empty(); }
  /// Rendered `{"k": v, ...}` object (empty string when no args).
  std::string json() const;

 private:
  std::string body_;
};

struct TraceEvent {
  double ts_us = 0.0;  ///< microseconds on the track's TimeSource
  char ph = 'i';       ///< 'B' | 'E' | 'i' | 'C' | 's' | 'f'
  std::string name;    ///< empty for 'E'
  std::string args;    ///< pre-rendered JSON object, may be empty
  std::int64_t flow_id = -1;  ///< 's'/'f' only: the flow-binding id
};

class Tracer {
 public:
  /// Track ids are namespaced per EPOCH (one scenario run): real id =
  /// epoch * kTrackStride + caller's track. Serialization splits that back
  /// into Perfetto pid (epoch) and tid (node), so sequential scenarios in
  /// one process — each restarting virtual time at 0 — keep per-track
  /// timestamps monotone instead of jumping backwards on a shared row.
  static constexpr int kTrackStride = 1000;

  static Tracer& instance();

  /// One relaxed load — THE gate every emission entry point checks first.
  static bool active() {
    return detail::g_trace_active.load(std::memory_order_relaxed);
  }
  /// Gate for high-volume DES scheduling events (`--trace-sched`).
  static bool scheduler_events() {
    return detail::g_sched_events.load(std::memory_order_relaxed);
  }

  /// Installs the sink; emissions are recorded from this point on.
  void start();
  void set_scheduler_events(bool on);
  /// Stops recording and drops every buffered event and track binding
  /// cache. Single-threaded use only (tests).
  void reset_for_testing();

  /// Serializes all tracks to Chrome trace-event JSON at `path`. Tracks in
  /// id order, events in emission order, metadata ('M') events first.
  /// Throws teamnet::Error naming the path on I/O failure.
  void write(const std::string& path) const;
  /// Same serialization, returned as a string (tests).
  std::string to_json() const;

  /// Labels a track's Perfetto thread row.
  void set_track_name(int track, const std::string& name);

  /// Starts a new track epoch (scenario drivers call this on entry, in
  /// deterministic order): subsequent emissions land on a fresh pid whose
  /// process row carries `name`. No-op while tracing is inactive. Must only
  /// be called between scenarios — i.e. with no emitter threads live.
  void begin_epoch(const std::string& name);

  /// Index of the current epoch (0 before any begin_epoch call). Epoch
  /// boundaries are quiescent points, so every emission within one
  /// scenario run reads the same value — flow_id() and the qtl instants
  /// fold it in so ids stay unique when sequential runs (each restarting
  /// qid at 1) share one trace file.
  int current_epoch() const {
    return epoch_base_.load(std::memory_order_relaxed) / kTrackStride;
  }

  /// Explicit-track, explicit-timestamp emission for callers holding a
  /// scheduler lock. Track mutexes are leaf locks, so this never
  /// deadlocks against the caller's lock; `ts_s` must come from state the
  /// caller already owns (e.g. des::Engine node clocks).
  void instant_at(int track, double ts_s, const char* name,
                  const TraceArgs& args);
  void counter_at(int track, double ts_s, const char* name, double value);
  void begin_at(int track, double ts_s, const char* name,
                const TraceArgs* args);
  void end_at(int track, double ts_s);
  /// Flow event ('s' start / 'f' finish) on an explicit track. Flow
  /// events bind causally-related slices across tracks (Perfetto draws
  /// them as arrows); `id` pairs the start with its finish (flow_id()
  /// below derives a stable one from qid × node × direction).
  void flow_at(int track, double ts_s, char ph, const char* name,
               std::int64_t id);

  /// Events discarded because a track buffer hit its cap.
  std::int64_t dropped_events() const;

 private:
  friend class TraceSpan;
  friend class TraceTrack;

  struct Track {
    mutable Mutex mutex;
    std::string name;
    std::vector<TraceEvent> events TN_GUARDED_BY(mutex);
    std::int64_t dropped TN_GUARDED_BY(mutex) = 0;
  };

  Tracer() = default;

  Track& track(int id);
  void append(int track, TraceEvent event);

  mutable Mutex registry_mutex_;
  std::map<int, std::unique_ptr<Track>> tracks_ TN_GUARDED_BY(registry_mutex_);
  /// Offset added to every caller-supplied track id; always a multiple of
  /// kTrackStride. Relaxed: epoch boundaries are quiescent points.
  std::atomic<int> epoch_base_{0};
  std::map<int, std::string> epoch_names_ TN_GUARDED_BY(registry_mutex_);
  std::atomic<bool> drop_warned_{false};
};

/// Binds the calling thread to a trace track + clock for its lifetime;
/// restores the previous binding (if any) on destruction.
class TraceTrack {
 public:
  TraceTrack(int track, TimeSource clock, const std::string& name = "");
  ~TraceTrack();
  TraceTrack(const TraceTrack&) = delete;
  TraceTrack& operator=(const TraceTrack&) = delete;

 private:
  int saved_track_;
  TimeSource saved_clock_;
};

namespace detail {
/// Out-of-line slow paths; called only when Tracer::active().
void begin_slow(const char* name, const TraceArgs* args, bool* live,
                int* track);
void end_slow(int track);
void instant_slow(const char* name, const TraceArgs* args);
void counter_slow(const char* name, double value);
void flow_slow(char ph, const char* name, std::int64_t id);
}  // namespace detail

/// RAII span on the calling thread's bound track. When tracing is off or
/// the thread is unbound this is a no-op.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (Tracer::active()) detail::begin_slow(name, nullptr, &live_, &track_);
  }
  /// `args_fn() -> TraceArgs` is only invoked when the span is recorded,
  /// so argument rendering costs nothing in un-traced runs.
  template <typename ArgsFn,
            typename = std::enable_if_t<std::is_invocable_v<ArgsFn>>>
  TraceSpan(const char* name, ArgsFn&& args_fn) {
    if (Tracer::active()) {
      const TraceArgs args = std::forward<ArgsFn>(args_fn)();
      detail::begin_slow(name, &args, &live_, &track_);
    }
  }
  ~TraceSpan() {
    if (live_) detail::end_slow(track_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool live_ = false;
  int track_ = -1;
};

inline void trace_instant(const char* name) {
  if (Tracer::active()) detail::instant_slow(name, nullptr);
}
template <typename ArgsFn,
          typename = std::enable_if_t<std::is_invocable_v<ArgsFn>>>
void trace_instant(const char* name, ArgsFn&& args_fn) {
  if (Tracer::active()) {
    const TraceArgs args = std::forward<ArgsFn>(args_fn)();
    detail::instant_slow(name, &args);
  }
}
inline void trace_counter(const char* name, double value) {
  if (Tracer::active()) detail::counter_slow(name, value);
}

/// Causal flow pair on the calling threads' bound tracks: the sender emits
/// trace_flow_start just after handing a message off, the receiver emits
/// trace_flow_finish with the SAME name and id just after reading it.
/// Perfetto renders the pair as an arrow between the enclosing slices;
/// tools/check_trace.py validates that every id pairs exactly one start
/// with one finish at a non-earlier timestamp.
inline void trace_flow_start(const char* name, std::int64_t id) {
  if (Tracer::active()) detail::flow_slow('s', name, id);
}
inline void trace_flow_finish(const char* name, std::int64_t id) {
  if (Tracer::active()) detail::flow_slow('f', name, id);
}

/// Stable flow-binding id for one message of one query: `node` is the
/// scenario node the message targets/originates at (worker index + 1) and
/// `dir` is 0 for the master→worker request, 1 for the worker→master
/// reply. 512 nodes per query is far above any scenario's fan-out. The
/// tracer's current epoch occupies the high bits: qids restart at 1 on
/// every scenario run, so without it the cells of one sweep writing into
/// one trace would reuse ids and check_trace.py's exactly-one-start /
/// exactly-one-finish invariant could not hold.
inline std::int64_t flow_id(std::int64_t qid, int node, int dir) {
  const std::int64_t epoch = Tracer::instance().current_epoch();
  return (epoch << 40) | ((qid * 512 + node) * 2 + dir);
}

}  // namespace teamnet::obs
