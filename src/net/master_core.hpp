// The master side of Figure 1, shared by every master (DESIGN.md §13.1):
//   Step 2  dispatch Infer frames to the workers a policy picked
//   Step 4  gather their (probabilities, entropy) under ONE deadline
// A master keeps only its dispatch policy and its combine step:
// net::CollaborativeMaster broadcasts the whole batch and takes the
// per-sample argmin entropy; moe::MoeMaster routes each row to the gate's
// expert and places the answers back in row order.
//
// Fault model (DESIGN.md §8): every Infer carries a query id that workers
// echo on the Result; replies for any other id are stale and discarded. A
// worker that misses the deadline or errors goes into probation — probed
// with Ping/Pong on an exponential-backoff cadence — until it answers and
// rejoins the live set. A `strict` master (MoeMaster: the routed expert's
// answer IS the answer) throws NetworkError instead of failing the worker.
//
// Degradation plane (DESIGN.md §13): the Infer frame propagates the
// query's absolute deadline; the gather can complete at a quorum of
// answers; a per-worker circuit breaker (net/health.hpp) removes flapping
// workers from dispatch; and a hedged re-issue covers the slowest
// outstanding worker with its designated backup replica.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/health.hpp"
#include "net/transport.hpp"
#include "nn/module.hpp"
#include "obs/timeline.hpp"

namespace teamnet::net {

using ComputeHook = std::function<void(std::int64_t flops)>;

/// FLOPs of one forward of `model` over the batch `x` (the compute hook's
/// unit): the per-sample analysis times the batch size.
std::int64_t batch_flops(nn::Module& model, const Tensor& x);

/// One shared receive budget for a whole gather loop: however many workers
/// are slow or dead, the total wait is bounded by a single `budget_s`
/// (each receive gets whatever remains). A budget <= 0 means unbounded.
///
/// Master-side receives are bounded by this deadline and always go through
/// recv_timeout; tools/analyze.py (rule `unbounded-wait`) rejects bare
/// blocking Channel::recv() calls in the protocol layers so no gather can
/// silently reintroduce an unbounded per-worker wait.
class GatherDeadline {
 public:
  GatherDeadline(double budget_s, const TimeSource& now);

  bool unbounded() const { return unbounded_; }
  /// Whether a bounded budget has run out. Always false when unbounded.
  bool expired() const;
  /// Seconds left before the deadline; 0 once expired, +infinity when
  /// unbounded.
  double remaining() const;
  /// The absolute expiry in microseconds on the time source's clock —
  /// what an Infer frame propagates (InferInfo::deadline_us).
  /// kNoDeadlineUs when unbounded.
  std::int64_t deadline_us() const;

 private:
  const TimeSource* now_;
  bool unbounded_;
  double deadline_ = 0.0;
};

/// Owns the worker channels and runs one query at a time through
/// begin_query -> send_request... -> end_dispatch -> gather -> end_query.
class MasterCore {
 public:
  // The per-query deadline reads this object's own time source.
  MasterCore(const MasterCore&) = delete;
  MasterCore& operator=(const MasterCore&) = delete;

  /// Sends Shutdown to every live worker and backup replica, then closes
  /// every channel (failed ones included) so wedged worker threads unblock
  /// and can be joined instead of leaking.
  void shutdown();

  void set_compute_hook(ComputeHook hook) { on_compute_ = std::move(hook); }

  /// When > 0, ONE shared deadline of `seconds` bounds the whole query —
  /// it anchors before dispatch and covers send + compute + gather. A
  /// worker that has not answered when it runs out (or whose channel
  /// errors) is marked failed and put on probation. 0 (default) = no
  /// deadline.
  void set_worker_timeout(double seconds) { worker_timeout_s_ = seconds; }

  /// Substitutes the monotonic clock used for deadlines, timeline marks
  /// and health latencies (default: steady_seconds). Simulations pass
  /// virtual-clock time here.
  void set_time_source(TimeSource now);

  /// Causal flow tracing (DESIGN.md §15): every dispatch send opens a
  /// Chrome-trace flow ('s') that the worker's receive closes ('f'), and
  /// every worker reply opens one the gather's read closes. Off by default
  /// and only meaningful for in-process sim drivers where master and
  /// workers share one tracer (and call set_trace_node). Stale replies
  /// drained by the gather or probation paths still close their flow, so a
  /// fault-free trace has no dangling flows.
  void set_flow_trace(bool enabled) { flow_trace_ = enabled; }

  /// Probation cadence: a failed worker is probed with a Ping every
  /// `queries` queries, with the interval doubling after every unanswered
  /// probe (capped at kMaxProbeInterval). 0 disables probing — a failed
  /// worker then stays failed forever.
  void set_probe_interval(int queries);

  /// Quorum gather (DESIGN.md §13): when `answers` > 0, a gather completes
  /// as soon as that many answers are in — the local expert always counts
  /// as one. Workers still outstanding at quorum are NOT marked failed:
  /// their late replies are discarded as stale later. 0 (default) = wait
  /// for every asked worker; values above 1 + #asked clamp to that.
  void set_gather_quorum(int answers);

  /// Per-worker health scoring + circuit breaker (net/health.hpp): an open
  /// breaker puts the worker in probation (skipped at dispatch, probed via
  /// Ping/Pong) and an answered probe readmits it only after the breaker's
  /// cooldown. Uses the master's time source — call after set_time_source.
  void enable_health(const HealthConfig& config);
  /// The tracker enabled by enable_health (nullptr before).
  const HealthTracker* health() const { return health_.get(); }

  /// Hedged dispatch (DESIGN.md §13): `backups[w]` is the channel to the
  /// static backup replica serving worker w's expert (nullptr = none).
  /// After an adaptive delay — max of `min_delay_s` and `latency_factor` ×
  /// the health EWMA of the slowest outstanding worker (worker_timeout/2
  /// without health) — the query is re-issued to that worker's backup with
  /// the hedge flag set; each further interval re-issues to every pending
  /// worker's backup. Whichever replica answers first wins and the
  /// duplicate is reconciled via the query-id echo.
  void set_hedging(std::vector<Channel*> backups, double min_delay_s,
                   double latency_factor);

  /// TEST-ONLY: re-introduces the gather from before the query-id echo.
  /// Its only stale-reply defense was the deadline clock reading: a Result
  /// accepted while the deadline still reads unexpired is trusted as the
  /// current query's answer (whichever query it actually answers), and one
  /// read after it is treated as a miss. That makes acceptance a
  /// time-of-check race — the outcome depends on arrival order against the
  /// deadline, i.e. on the schedule. Exists so the schedule explorer's
  /// mutation gate can prove the detector catches a real bug; never enable
  /// in production paths.
  void set_test_pre_qid_gather(bool enable) { test_pre_qid_gather_ = enable; }

  /// Workers currently marked failed (in probation).
  int failed_workers() const;
  /// Whether `worker_index` (0-based) is in the live set. Out-of-range
  /// indices throw InvariantError.
  bool worker_alive(int worker_index) const;
  /// Replies discarded because their query id did not match the in-flight
  /// query (late answers from timed-out workers, injected duplicates).
  std::int64_t stale_replies_discarded() const { return stale_discarded_; }
  /// Probed workers that answered and re-entered the live set.
  std::int64_t rejoins() const { return rejoins_; }
  /// Hedged re-issues sent / won (the backup's reply was the one used) /
  /// reconciled duplicates (both replicas answered the same query).
  std::int64_t hedges_sent() const { return hedges_sent_; }
  std::int64_t hedge_wins() const { return hedge_wins_; }
  std::int64_t hedge_duplicates() const { return hedge_duplicates_; }

  /// Probe backoff never exceeds this many queries between Pings.
  static constexpr int kMaxProbeInterval = 64;

 protected:
  /// Gather state of one worker for the in-flight query.
  struct Flight {
    bool asked = false;
    Tensor request;  ///< the rows sent (re-sent verbatim by a hedge)
    bool pending = false;      ///< its answer still counts toward the target
    bool primary_out = false;  ///< the primary's reply has not been read
    int backup_out = 0;        ///< hedged requests whose reply is unread
    bool answered = false;
    Tensor probs;    ///< [rows, C] once answered
    Tensor entropy;  ///< [rows] once answered
  };

  /// `counters` prefixes the registry counter names ("collab", "moe").
  MasterCore(std::vector<Channel*> workers, const std::string& counters,
             bool strict);
  ~MasterCore() = default;

  /// Starts a query on `x` ([n >= 1, ...]): issues its id, runs the
  /// probation pass and anchors the shared deadline. Returns the id.
  std::int64_t begin_query(const Tensor& x);
  /// Whether worker `w` may be asked this query (live, breaker closed).
  bool dispatchable(std::size_t w) const;
  /// The current query's Infer frame carrying `payload`.
  std::string request_frame(const Tensor& payload, bool hedged = false) const;
  /// Step 2 for one worker: sends `frame` (which carries `payload`).
  void send_request(std::size_t w, const Tensor& payload,
                    const std::string& frame);
  /// Closes the dispatch phase (its end anchors health latencies).
  void end_dispatch();
  /// Step 3's local share: `expert` on `x` under the compute hook.
  Tensor local_forward(nn::Module& expert, const Tensor& x);
  /// Step 4: polls every outstanding source until 1 (the local expert) +
  /// the answers reach the target — the quorum, or every asked worker —
  /// or the deadline expires. A Result is accepted only with probs
  /// [rows asked, classes] and entropy [rows asked]. Returns the answer
  /// count, local included; the answers are in flight(w).
  int gather(std::int64_t classes);
  const Flight& flight(std::size_t w) const { return flights_[w]; }
  /// Records the query's degradation level and completion (timeline).
  void end_query(int degradation);
  /// Master-side timeline mark for the current query.
  void mark(obs::QueryPhase phase);

  std::vector<Channel*> workers_;
  ComputeHook on_compute_;

 private:
  /// Per-worker fault-tolerance state machine: live <-> probation.
  struct WorkerSlot {
    bool failed = false;
    int probe_countdown = 0;  ///< queries until the next probe action
    int probe_interval = 0;   ///< current backoff interval (queries)
    std::int64_t probe_id = 0;  ///< in-flight Ping id (0 = none)
  };

  void bump(const char* counter) const;
  /// A miss: strict masters throw NetworkError, others fail the worker.
  void fail(std::size_t w, const std::string& why);
  void mark_failed(std::size_t w);
  /// Polls probation workers for Pongs (rejoining the ones that answered)
  /// and sends fresh Pings on the backoff cadence.
  void probe_failed_workers();
  /// Accepts or discards one frame from worker `w`'s primary or backup
  /// replica; true = it completed a fresh answer. Throws on a malformed
  /// reply.
  bool accept(const std::string& raw, std::size_t w, bool from_backup,
              std::int64_t classes);
  /// A receive from `w`'s primary or backup errored.
  void lost(std::size_t w, bool from_backup, const Error& e);
  void hedge_to(std::size_t w);
  void fire_hedge(int round);

  const std::string counters_;
  const bool strict_;
  TimeSource now_;
  std::vector<WorkerSlot> slots_;
  std::vector<Flight> flights_;
  double worker_timeout_s_ = 0.0;
  int probe_interval_ = 4;
  int quorum_ = 0;  ///< 0 = every asked worker
  std::unique_ptr<HealthTracker> health_;
  std::vector<Channel*> backups_;  ///< empty = hedging disabled
  double hedge_min_delay_s_ = 0.0;
  double hedge_factor_ = 1.5;
  bool flow_trace_ = false;
  bool test_pre_qid_gather_ = false;  ///< test-only mutation hook

  // The in-flight query.
  std::int64_t qid_ = 0;
  bool timeline_ = false;
  GatherDeadline deadline_;
  double t_sent_ = 0.0;

  std::int64_t probe_seq_ = 0;
  std::int64_t stale_discarded_ = 0;
  std::int64_t rejoins_ = 0;
  std::int64_t hedges_sent_ = 0;
  std::int64_t hedge_wins_ = 0;
  std::int64_t hedge_duplicates_ = 0;
};

}  // namespace teamnet::net
