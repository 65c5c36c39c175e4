// The collaborative-inference protocol of Figure 1:
//   Step 1  master receives sensor data
//   Step 2  master broadcasts the input to every worker
//   Step 3  all nodes run their local expert in parallel
//   Step 4  master gathers each worker's (probabilities, entropy)
//   Step 5  master selects the least-uncertain expert's output
//
// The same classes run over any Channel implementation: real TCP in the
// examples, simulated WiFi channels in the benches. Every timestamp a node
// takes — deadlines, expiry checks, timeline marks — reads the clock of the
// channel it serves on (Channel::now), so a simulated node runs on its
// virtual clock with nothing wired in. The optional compute hook reports
// each node's FLOP count so a simulation can advance that clock; real
// deployments leave it unset.
//
// Steps 2 and 4 — query ids, the shared deadline, probation, quorum and
// hedging — live in net::MasterCore (net/master_core.hpp);
// CollaborativeMaster adds the broadcast policy, the local expert, the
// argmin and the degradation accounting.
#pragma once

#include <vector>

#include "net/master_core.hpp"
#include "net/message.hpp"

namespace teamnet::net {

/// Serves one expert model on one channel until a Shutdown message.
class CollaborativeWorker {
 public:
  CollaborativeWorker(nn::Module& expert, Channel& channel);

  /// Blocks, answering Infer requests (and probation Pings) until
  /// Shutdown. A malformed or corrupted frame is logged and skipped — the
  /// master's gather deadline covers the lost answer — so one bad message
  /// cannot take the worker down. Throws NetworkError on a broken channel.
  void serve();

  void set_compute_hook(ComputeHook hook) { on_compute_ = std::move(hook); }

  /// SLO discipline (DESIGN.md §13): when enabled, an Infer whose
  /// propagated deadline (InferInfo::deadline_us) has already passed on
  /// this worker's clock is dropped without computing or replying — the
  /// master stopped listening for it, so the reply could only ever be
  /// discarded as stale. Off by default because the check compares the
  /// frame's stamp against this worker's channel clock (Channel::now): it
  /// is only meaningful when worker and master share a clock domain
  /// (in-process, or the same simulation), which the caller asserts by
  /// opting in.
  void set_drop_expired(bool enabled) { drop_expired_ = enabled; }

  /// Tells the worker which scenario node it serves as (node >= 1; worker
  /// lane = node - 1) so it can publish per-query timeline marks and close
  /// the master's causal flow events (DESIGN.md §15). Unset (the default)
  /// keeps the worker anonymous and emission-free — the right state for
  /// real-TCP deployments where master and worker traces are separate
  /// files and a flow pair could never match up. In-process sim drivers
  /// opt in. Marks are only published for non-hedged requests: a backup
  /// replica answers under the PRIMARY worker's lane and flow ids, which
  /// it does not own.
  void set_trace_node(int node);

  /// Number of Infer requests answered (telemetry).
  std::int64_t requests_served() const { return served_; }
  /// Number of probation Pings answered (telemetry).
  std::int64_t pongs_sent() const { return pongs_; }
  /// Infer requests dropped because their deadline had already expired.
  std::int64_t expired_dropped() const { return expired_dropped_; }

 private:
  nn::Module& expert_;
  Channel& channel_;
  ComputeHook on_compute_;
  int trace_node_ = 0;  ///< 0 = anonymous (no marks/flows)
  bool drop_expired_ = false;
  std::int64_t served_ = 0;
  std::int64_t pongs_ = 0;
  std::int64_t expired_dropped_ = 0;
};

/// How much of the fleet answered a query before the gather completed
/// (DESIGN.md §13): `full` = every asked worker, `quorum` = the configured
/// quorum but not everyone, `local_only` = nobody but the master's own
/// expert.
enum class DegradationLevel { full = 0, quorum = 1, local_only = 2 };

const char* to_string(DegradationLevel level);

/// The master edge node: owns a local expert plus channels to the workers.
class CollaborativeMaster : public MasterCore {
 public:
  CollaborativeMaster(nn::Module& local_expert, std::vector<Channel*> workers);

  struct Result {
    Tensor probs;                  ///< [n, C] winning expert's probabilities
    std::vector<int> predictions;  ///< argmax class per sample
    std::vector<int> chosen;       ///< winning node (0 = master, 1.. = workers)
    int answered = 1;              ///< experts in the argmin (local included)
    DegradationLevel degradation = DegradationLevel::full;
  };

  /// Runs Figure 1's five steps for a batch of inputs ([n >= 1, ...]):
  /// submit, the polling gather, complete. Workers that have been marked
  /// failed are skipped; the selection runs over whichever nodes answered
  /// (degraded but available — the master alone in the worst case), ties
  /// going to the lowest node index. Failed workers are probed and rejoin
  /// when they answer.
  Result infer(const Tensor& x);

  // Pipelined serving (DESIGN.md §13.1): the caller owns the wait. It
  // submits each query as it arrives, reads the worker channels itself and
  // hands every frame to deliver(), and waits no later than next_due()
  // before asking due(); any number of queries are in flight. Deadlines
  // complete a query with the answers it has; they do not put the missing
  // workers on probation.

  /// Steps 2–3 for `x`: broadcasts it and runs the local expert. Returns
  /// the query id; the answer comes from complete() once deliver() or
  /// due() names that id.
  std::int64_t submit(const Tensor& x);
  using MasterCore::deliver;
  using MasterCore::due;
  using MasterCore::next_due;
  /// Step 5 for query `qid` (see deliver/due): the argmin over the
  /// experts that answered, and the degradation accounting.
  Result complete(std::int64_t qid);

  int num_nodes() const { return 1 + static_cast<int>(workers_.size()); }

  /// Degradation-level accounting: the three counters partition the
  /// queries served so far (full + quorum + local_only == queries).
  std::int64_t full_gathers() const { return full_gathers_; }
  std::int64_t quorum_gathers() const { return quorum_gathers_; }
  std::int64_t local_only_gathers() const { return local_only_gathers_; }

 private:
  /// Steps 2–3 for the current query.
  void dispatch(const Tensor& x);

  nn::Module& expert_;
  std::int64_t full_gathers_ = 0;
  std::int64_t quorum_gathers_ = 0;
  std::int64_t local_only_gathers_ = 0;
};

}  // namespace teamnet::net
