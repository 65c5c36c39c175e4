// Per-query latency timeline (DESIGN.md §15): a structured record of the
// timestamped phase marks one query passes on its way from arrival to
// completion — the master's queue wait, broadcast, local compute, gather
// and argmin instants plus one lane of marks per worker (request sent /
// received, compute begin / end, reply sent / received) — all correlated
// by the protocol's monotone query id.
//
// Two consumers share the marks:
//   * the process-global `TimelineRecorder` keeps them as data, so a load
//     driver can hand each completed query to obs::attribute()
//     (obs/critpath.hpp) and decompose its latency exactly;
//   * the tracer gets each mark as a `qtl` instant (args: qid, lane, seq)
//     so tools/check_trace.py can validate per-query mark ordering on any
//     trace, flow arrows included.
//
// The same zero-overhead-when-disabled contract as the tracer: every
// emission site checks one relaxed atomic (`qtl_active()`); an
// uninstrumented run pays one predictable branch per mark and never takes
// the recorder mutex. Recording only READS the clock it is handed — it
// never advances virtual time — so enabling it cannot move any simulated
// timestamp.
//
// Clock domains: marks on one query mix the master's and each worker's
// clocks. Under the simulator these are the per-node virtual clocks, which
// are Lamport-consistent (a receive lands at or after the matching send),
// so consecutive marks on a lane are non-decreasing and the attribution in
// critpath.hpp is exact. On real TCP they are per-process steady clocks —
// close enough for profiling, not for the bit-exact invariant.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/annotations.hpp"
#include "obs/trace.hpp"

namespace teamnet::obs {

/// Master-side phase marks, in causal order. `arrival` is stamped by the
/// load driver (note_arrival) before the master sees the query; the rest
/// are stamped inside the master's infer().
enum class QueryPhase : int {
  arrival = 0,            ///< query entered the system (load driver)
  dispatch,               ///< master picked it up (infer() entry)
  broadcast_end,          ///< last worker send completed
  local_compute_end,      ///< master's own expert finished
  gather_end,             ///< gather released (last counted answer read)
  complete,               ///< result assembled (argmin + accounting done)
};
inline constexpr int kNumQueryPhases = 6;
const char* to_string(QueryPhase phase);

/// Per-worker lane marks. `sent` and `reply_recv` are master-clock
/// observations; request_recv..reply_sent are worker-clock. The on_air and
/// landed marks are the link model's own instants for the frame, read by
/// its receiver (a fault-wrapped link forwards its inner leg's); a
/// transport without a link model (TCP) leaves them unobserved.
enum class WorkerMark : int {
  sent = 0,        ///< master finished sending this worker's request
  request_on_air,  ///< the request got the shared medium
  request_landed,  ///< the request landed in the worker's inbox
  request_recv,    ///< worker received + decoded the request
  compute_begin,   ///< worker starts its expert forward
  compute_end,     ///< worker's expert finished
  reply_sent,      ///< worker finished sending the reply
  reply_on_air,    ///< the reply got the shared medium
  reply_landed,    ///< the reply landed in the master's inbox
  reply_recv,      ///< master read + accepted the reply
};
inline constexpr int kNumWorkerMarks = 10;
const char* to_string(WorkerMark mark);

/// One worker's marks for one query. A quiet NaN means "not observed"
/// (e.g. the worker was skipped at broadcast, or its reply was hedged
/// away); use has()/at().
struct WorkerLane {
  int worker = -1;  ///< 0-based worker index (node = worker + 1)
  std::array<double, kNumWorkerMarks> t;

  WorkerLane();
  bool has(WorkerMark mark) const;
  double at(WorkerMark mark) const {
    return t[static_cast<std::size_t>(mark)];
  }
};

/// Everything recorded about one query: master marks, worker lanes (sorted
/// by worker index) and the degradation level the gather completed at. A
/// recorded query has one lane per team worker, lanes[w] being worker w's
/// (all unset until marked); a hand-built one has the lanes lane() added.
struct QueryTimeline {
  std::int64_t qid = 0;
  /// net::DegradationLevel as an int (0 full / 1 quorum / 2 local_only);
  /// an int so obs does not depend on net.
  int degradation = 0;
  std::array<double, kNumQueryPhases> t;
  std::vector<WorkerLane> lanes;

  QueryTimeline();
  bool has(QueryPhase phase) const;
  double at(QueryPhase phase) const {
    return t[static_cast<std::size_t>(phase)];
  }
  /// Find-or-insert the lane for `worker`, keeping lanes sorted.
  WorkerLane& lane(int worker);
  const WorkerLane* find_lane(int worker) const;
};

namespace detail {
inline std::atomic<bool> g_timeline_active{false};
}  // namespace detail

/// Process-global store of per-query timelines, keyed by qid. One load
/// driver at a time owns it (start() ... take()); the masters/workers it
/// drives publish marks through the qtl_* helpers below. Thread-safe: the
/// internal mutex is a LEAF lock (nothing else is taken under it).
class TimelineRecorder {
 public:
  static TimelineRecorder& instance();

  /// THE gate instrumentation sites check before reading a clock.
  static bool active() {
    return detail::g_timeline_active.load(std::memory_order_relaxed);
  }

  /// Clears any previous run's records and starts recording for a team of
  /// `workers` workers. Each query's lanes are allocated once, one per
  /// worker, when its record is created; marking a worker index outside
  /// [0, workers) throws.
  void start(std::size_t workers);
  /// Stops recording (records stay readable until take()).
  void stop();
  /// Returns every recorded timeline in ascending-qid order and clears the
  /// store. Also clears a pending note_arrival.
  std::vector<QueryTimeline> take();

  /// Stamps the NEXT begun query's arrival instant. The load driver calls
  /// this just before handing the query to the master; the master's
  /// dispatch mark consumes it (the driver cannot know the qid yet).
  void note_arrival(double t_s);
  /// Records a master-side phase mark. `dispatch` creates the query's
  /// record and consumes the pending arrival (falling back to `t_s` —
  /// zero queue wait — when none is pending). First write wins.
  void mark(std::int64_t qid, QueryPhase phase, double t_s);
  /// Records a worker-lane mark. First write wins.
  void mark_worker(std::int64_t qid, int worker, WorkerMark mark, double t_s);
  /// Records the degradation level the query completed at.
  void set_degradation(std::int64_t qid, int level);

 private:
  TimelineRecorder() = default;
  QueryTimeline& query(std::int64_t qid) TN_REQUIRES(mutex_);

  Mutex mutex_;
  /// Sorted by qid; queries arrive in qid order so appends dominate.
  std::vector<QueryTimeline> queries_ TN_GUARDED_BY(mutex_);
  std::size_t workers_ TN_GUARDED_BY(mutex_) = 0;
  bool have_pending_arrival_ TN_GUARDED_BY(mutex_) = false;
  double pending_arrival_s_ TN_GUARDED_BY(mutex_) = 0.0;
};

/// One branch covering both consumers: instrumentation sites read their
/// clock only when something is listening.
inline bool qtl_active() {
  return TimelineRecorder::active() || Tracer::active();
}

/// Publishes one master-side mark to the recorder (when recording) and as
/// a `qtl` trace instant (when tracing). Callers gate on qtl_active().
void qtl_master_mark(std::int64_t qid, QueryPhase phase, double t_s);
/// Same for a worker-lane mark. `worker` is the 0-based worker index.
void qtl_worker_mark(std::int64_t qid, int worker, WorkerMark mark,
                     double t_s);
/// Publishes the completed query's degradation level to the recorder.
void qtl_degradation(std::int64_t qid, int level);

}  // namespace teamnet::obs
