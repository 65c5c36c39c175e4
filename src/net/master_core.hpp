// The master side of Figure 1, shared by every master (DESIGN.md §13.1):
//   Step 2  dispatch Infer frames to the workers a policy picked
//   Step 4  gather their (probabilities, entropy) under ONE deadline
// A master keeps only its dispatch policy and its combine step:
// net::CollaborativeMaster broadcasts the whole batch and takes the
// per-sample argmin entropy; moe::MoeMaster routes each row to the gate's
// expert and places the answers back in row order.
//
// Query state is per query id (DESIGN.md §13.1): each Infer carries its
// query's id, workers echo it on the Result, and a reply is routed to the
// in-flight query it names — so several queries can be in flight at once
// (the pipelined load driver) and a late reply for query n still answers
// n after n+1 was dispatched. A blocking infer() is one such query,
// submitted and gathered on the same core.
//
// Fault model (DESIGN.md §8): replies naming a completed, abandoned or
// never-issued id are stale and discarded. A
// worker that misses the deadline or errors goes into probation — probed
// with Ping/Pong on an exponential-backoff cadence — until it answers and
// rejoins the live set. A `strict` master (MoeMaster: the routed expert's
// answer IS the answer) throws NetworkError instead of failing the worker.
//
// Clock: the master reads its channels' clock (Channel::now), so a master
// over DES channels runs its deadlines and hedges on its node's virtual
// time and one over TCP on the steady clock, with no clock wired in.
// Master-side receives are bounded by the query's one deadline and go
// through recv_timeout; tools/analyze.py (rule `unbounded-wait`) rejects
// bare blocking Channel::recv() calls here.
//
// Degradation plane (DESIGN.md §13): the Infer frame propagates the
// query's absolute deadline; the gather can complete at a quorum of
// answers; and a hedged re-issue covers the slowest outstanding worker
// (by its reply-latency EWMA) with its designated backup replica.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "net/transport.hpp"
#include "nn/module.hpp"
#include "obs/timeline.hpp"

namespace teamnet::net {

using ComputeHook = std::function<void(std::int64_t flops)>;

/// FLOPs of one forward of `model` over the batch `x` (the compute hook's
/// unit): the per-sample analysis times the batch size.
std::int64_t batch_flops(nn::Module& model, const Tensor& x);

/// Owns the worker channels and the per-qid state of every in-flight
/// query. A blocking query runs begin_query -> send_request... ->
/// end_dispatch -> gather -> end_query; a pipelined caller instead reads
/// the workers itself and feeds each frame to deliver().
class MasterCore {
 public:
  MasterCore(const MasterCore&) = delete;
  MasterCore& operator=(const MasterCore&) = delete;

  /// Sends Shutdown to every live worker and backup replica, then closes
  /// every channel (failed ones included) so wedged worker threads unblock
  /// and can be joined instead of leaking.
  void shutdown();

  void set_compute_hook(ComputeHook hook) { on_compute_ = std::move(hook); }

  /// When > 0, ONE shared deadline of `seconds` bounds the whole query —
  /// it anchors before dispatch and covers send + compute + gather, so
  /// however many workers are slow or dead the query waits at most once.
  /// A worker that has not answered when it runs out (or whose channel
  /// errors) is marked failed and put on probation. 0 (default) = no
  /// deadline.
  void set_worker_timeout(double seconds);

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

  /// Hedged dispatch (DESIGN.md §13): `backups[w]` is the channel to the
  /// static backup replica serving worker w's expert (nullptr = none).
  /// After an adaptive delay — max of kHedgeMinDelayS and
  /// kHedgeLatencyFactor × the reply-latency EWMA of the slowest
  /// outstanding worker — the query is re-issued to that worker's backup
  /// with the hedge flag set; each further interval re-issues to every
  /// pending worker's backup. Whichever replica answers first wins and the
  /// duplicate is reconciled via the query-id echo.
  void set_hedging(std::vector<Channel*> backups);

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
  /// Worker `worker_index`'s (0-based) reply-latency EWMA in seconds,
  /// kInitialLatencyS before its first primary reply: the estimate the
  /// hedge delay is set from. Out-of-range indices throw InvariantError.
  double expected_latency_s(int worker_index) const;
  /// Replies discarded because their query id named no in-flight query
  /// (late answers from timed-out workers, injected duplicates).
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
  /// Hedge delay: at least kHedgeMinDelayS, else kHedgeLatencyFactor × the
  /// slowest outstanding worker's expected latency (see set_hedging).
  static constexpr double kHedgeMinDelayS = 0.002;
  static constexpr double kHedgeLatencyFactor = 1.5;
  /// Smoothing of the per-worker reply-latency EWMA (primary replies only).
  static constexpr double kLatencyAlpha = 0.3;
  /// A worker's expected latency before its first primary reply.
  static constexpr double kInitialLatencyS = 0.01;

 protected:
  /// Gather state of one worker for one in-flight query.
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

  /// One in-flight query: its flights, deadline and gather progress.
  struct Query {
    std::int64_t qid = 0;
    bool timeline = false;  ///< marks are recorded for this query
    /// The shared deadline: absolute, on now(); +infinity = none.
    double expiry = std::numeric_limits<double>::infinity();
    double t_sent = 0.0;      ///< end of dispatch (anchors reply latency)
    std::int64_t classes = 0;  ///< answer width accepted replies must have
    int target = 1;   ///< answers that complete the gather, local included
    int answers = 1;  ///< answers in so far; the local expert always counts
    Tensor local_probs;    ///< [rows, classes]: the master's own expert
    Tensor local_entropy;  ///< [rows]
    std::vector<Flight> flights;  ///< one per worker
  };

  /// `counters` prefixes the registry counter names ("collab", "moe").
  MasterCore(std::vector<Channel*> workers, const std::string& counters,
             bool strict);
  ~MasterCore() = default;

  /// Starts a query on `x` ([n >= 1, ...]) and makes it the current one:
  /// issues its id, runs the probation pass and anchors the shared
  /// deadline. Returns the id.
  std::int64_t begin_query(const Tensor& x);
  /// Whether worker `w` may be asked this query (live, not in probation).
  bool dispatchable(std::size_t w) const;
  /// The current query's Infer frame carrying `payload`.
  std::string request_frame(const Tensor& payload, bool hedged = false);
  /// Step 2 for one worker: sends `frame` (which carries `payload`).
  void send_request(std::size_t w, const Tensor& payload,
                    const std::string& frame);
  /// Closes the dispatch phase: its end anchors reply latencies, and the
  /// gather target becomes 1 + the asked workers, or the quorum.
  void end_dispatch();
  /// Step 3's local share: `expert` on `x` under the compute hook.
  Tensor local_forward(nn::Module& expert, const Tensor& x);
  /// Step 4 for the current query: polls every outstanding source until
  /// its answers reach the target or the deadline expires. A Result is
  /// accepted only with probs [rows asked, classes] and entropy [rows
  /// asked]. Returns the answer count, local included; the answers are in
  /// flight(w).
  int gather(std::int64_t classes);
  const Flight& flight(std::size_t w) const {
    return current().flights[w];
  }
  /// Records the current query's degradation level and completion
  /// (timeline) and retires its state.
  void end_query(int degradation);
  /// Drops query `qid`'s state without completing it — a blocking caller
  /// that threw mid-query — so its late replies count as stale.
  void abandon(std::int64_t qid) { inflight_.erase(qid); }
  /// Master-side timeline mark for the current query.
  void mark(obs::QueryPhase phase) { mark(current(), phase); }
  void mark(const Query& q, obs::QueryPhase phase);

  /// The most recently begun query: the one a blocking caller serves.
  Query& current() { return inflight_.at(qid_); }
  const Query& current() const { return inflight_.at(qid_); }
  /// In-flight query `qid`; throws InvariantError for any other id.
  Query& query(std::int64_t qid);
  /// Pipelined gather: accepts one frame read from worker `w`'s (0-based)
  /// primary channel for whichever in-flight query it names. Returns that
  /// query's id when the frame met its gather target — every asked worker,
  /// or the quorum — which also stamps its gather_end; 0 otherwise (a
  /// straggler, a stale reply).
  std::int64_t deliver(std::size_t w, const std::string& raw);
  /// When due() next has a query to name (seconds on the master's clock):
  /// now if a query's target is already met, else the earliest deadline
  /// among queries still gathering; +infinity when none is bounded.
  double next_due() const;
  /// The lowest-id query whose gather is over with no reply left to
  /// report it — its target was met by the local answer alone at dispatch
  /// (a quorum of one), or its deadline passed. Stamped gather_end, it
  /// completes with the answers it has. 0 when there is none.
  std::int64_t due();
  /// Records `q`'s degradation level and completion and retires it.
  void end_query(Query& q, int degradation);

  std::vector<Channel*> workers_;
  ComputeHook on_compute_;

 private:
  /// Per-worker fault-tolerance state machine (live <-> probation) and
  /// the reply-latency EWMA that sets the hedge delay.
  struct WorkerSlot {
    bool failed = false;
    int probe_countdown = 0;  ///< queries until the next probe action
    int probe_interval = 0;   ///< current backoff interval (queries)
    std::int64_t probe_id = 0;  ///< in-flight Ping id (0 = none)
    double latency_ewma_s = 0.0;  ///< valid once has_latency
    bool has_latency = false;     ///< a primary reply has been timed
  };

  void bump(const char* counter) const;
  /// The master's clock, in seconds: its first worker channel's
  /// Channel::now (every channel of a master belongs to one node), the
  /// steady clock when it has none. Deadlines, timeline marks, hedge
  /// times and reply latencies all read it.
  double now() const;
  /// Whether `q`'s deadline has passed on now().
  bool expired(const Query& q) const { return now() >= q.expiry; }
  /// A miss: strict masters throw NetworkError, others fail the worker.
  void fail(std::size_t w, const std::string& why);
  void mark_failed(std::size_t w);
  /// Polls probation workers for Pongs (rejoining the ones that answered)
  /// and sends fresh Pings on the backoff cadence.
  void probe_failed_workers();
  /// Accepts or discards one frame from worker `w`'s primary or backup
  /// replica, for the query it names; returns that query when the frame
  /// was a fresh answer, nullptr otherwise. Throws on a malformed reply.
  Query* accept(const std::string& raw, std::size_t w, bool from_backup);
  /// Counts and traces one discarded reply.
  void stale(std::size_t w, bool from_backup, const Message& reply);
  /// A receive from `w`'s primary or backup errored.
  void lost(std::size_t w, bool from_backup, const Error& e);
  void hedge_to(std::size_t w);
  void fire_hedge(int round);

  const std::string counters_;
  const bool strict_;
  std::vector<WorkerSlot> slots_;
  double worker_timeout_s_ = 0.0;
  int probe_interval_ = 4;
  int quorum_ = 0;  ///< 0 = every asked worker
  std::vector<Channel*> backups_;  ///< empty = hedging disabled
  bool flow_trace_ = false;
  bool test_pre_qid_gather_ = false;  ///< test-only mutation hook

  std::int64_t qid_ = 0;  ///< the latest issued id: the current query
  std::map<std::int64_t, Query> inflight_;

  std::int64_t probe_seq_ = 0;
  std::int64_t stale_discarded_ = 0;
  std::int64_t rejoins_ = 0;
  std::int64_t hedges_sent_ = 0;
  std::int64_t hedge_wins_ = 0;
  std::int64_t hedge_duplicates_ = 0;
};

}  // namespace teamnet::net
