// Conservative discrete-event engine for the edge simulation (DESIGN.md §9)
// — the one clock every simulated fleet runs on.
//
// The engine runs the UNCHANGED distributed protocol code — the same
// CollaborativeMaster/Worker, mpi::Communicator and MoE serving loops that
// run over real TCP — on real threads, but serializes every virtual-time
// mutation so the whole run replays in virtual-time order:
//
//   * Each node's thread must hold the GRANT (be the lexicographic minimum
//     (virtual_time, node_id) among running nodes, with no deliverable
//     event at or before its clock) to advance its clock or transmit.
//   * A send arbitrates the shared half-duplex medium (the one place the
//     simulator does: start at max(send_time, medium_free), occupy
//     LinkProfile::airtime) and enqueues a delivery event keyed by
//     (arrival_time, destination_node, schedule_seq) — the global
//     tie-break rule that makes event order total and deterministic.
//   * An event fires (message moves into its destination mailbox) only
//     once no running node could still schedule an earlier one — the
//     conservative PDES invariant: nothing is ever delivered "early".
//   * A node blocked in recv joins the blocked registry; when no node is
//     running and no event is pending, the engine has reached QUIESCENCE:
//     the earliest pending recv_timeout fires (charging its budget to the
//     waiter's clock), and if no node holds a timeout the engine declares
//     a deadlock with a diagnosable DeadlockError instead of hanging.
//
// The result: two same-seed runs produce bit-identical virtual traces —
// ScenarioResult::latency_ms included — while tensor compute still
// overlaps in real time (only engine calls are serialized, not the math
// between them).
//
// Virtual timeouts deserve a note: a pending delivery is always handed
// over before a timeout is considered, and a timeout fires only at
// quiescence — when provably no message can still arrive. A timeout
// therefore only ever fires for a message that never comes, however long
// the budget, so timeouts decide fault handling and never race replies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "net/link.hpp"
#include "sim/des/grant_policy.hpp"

namespace teamnet::sim::des {

/// The simulated system can never make progress: at least one node is
/// blocked in a plain recv while no node is running, no delivery is
/// pending, and no timeout could fire. The message names the stuck nodes.
class DeadlockError : public Error {
 public:
  explicit DeadlockError(const std::string& what) : Error(what) {}
};

/// Global event order: arrival time, then destination node, then schedule
/// sequence number. The seq makes ties total (and FIFO per mailbox).
struct EventKey {
  double time = 0.0;
  int node = 0;            ///< destination node id
  std::uint64_t seq = 0;   ///< global schedule order

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.node != b.node) return a.node < b.node;
    return a.seq < b.seq;
  }
};

class Mailbox;

/// One pending delivery. `mailbox` may be null in event-queue unit tests.
struct Event {
  EventKey key;
  std::shared_ptr<Mailbox> mailbox;
  std::string bytes;
  double sent = 0.0;  ///< sender's clock when the message left
};

/// Min-heap of events keyed by EventKey. Exposed (rather than buried in
/// Engine) so tests can pin the tie-break rule down in isolation.
class EventQueue {
 public:
  void push(Event event);
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const Event& top() const;
  Event pop();

 private:
  std::vector<Event> heap_;
};

/// One direction of a DES channel: the destination-side message queue for
/// a single (sender, receiver) pair. All mutable state is engine state,
/// guarded by the owning Engine's mutex (a Mailbox never outlives its
/// engine's run and is only touched through Engine methods).
class Mailbox {
 public:
  explicit Mailbox(int owner) : owner_(owner) {}
  int owner() const { return owner_; }

 private:
  friend class Engine;
  struct Delivery {
    double arrival = 0.0;
    std::string bytes;
    double sent = 0.0;  ///< sender's clock when the message left
  };

  const int owner_;
  std::deque<Delivery> queue_;     ///< fired, not yet popped
  std::int64_t pending_events_ = 0;  ///< scheduled, not yet fired
  bool closed_ = false;
};

class Engine {
 public:
  /// A null `policy` means the canonical lexicographic-min rule. The policy
  /// only breaks ties among simultaneously eligible nodes — the
  /// conservative floor (nobody acts ahead of the minimum key) and the
  /// event-vs-node ordering are not policy choices (DESIGN.md §11).
  explicit Engine(int num_nodes, std::unique_ptr<GrantPolicy> policy = nullptr);

  int num_nodes() const { return num_nodes_; }

  /// Order-insensitive fingerprint of everything schedule-visible that
  /// happened so far: granted advances/sends, deliveries, timeout charges
  /// and retirements, each hashed with its virtual timestamp and summed.
  /// Two runs of the same scenario under the same (seed, policy,
  /// schedule_seed) must report identical digests — the bit-exactness
  /// check behind counterexample replay. The sum (not a running chain)
  /// is deliberate: receive-side pops race granted operations in REAL
  /// mutex-acquisition order even though their virtual content is
  /// deterministic, so only a commutative combine is reproducible.
  std::uint64_t schedule_digest() const;

  /// Nodes not yet retired — 0 after a clean run (every worker and the
  /// master retired); the explorer checks this as a protocol invariant.
  int unretired_nodes() const;

  // -- clock surface --------------------------------------------------------
  double node_time(int node) const;
  double max_time() const;
  /// Advances `node` by `seconds` of local work, in virtual-time order:
  /// blocks until `node` holds the grant. Returns the new time.
  double advance(int node, double seconds);
  std::int64_t bytes_delivered() const;
  std::int64_t messages_delivered() const;

  // -- node lifecycle -------------------------------------------------------
  /// Marks `node` permanently done with virtual time. A node whose thread
  /// stops making engine calls while still registered as running would
  /// hold the virtual-time floor forever and stall every pending delivery;
  /// drivers therefore retire a node when its protocol role ends (workers
  /// on serve-loop exit, the master after shutdown and before join).
  /// Idempotent; a retired node must make no further timed calls.
  void retire(int node);

  // -- channel surface (used by DesChannel) ---------------------------------
  std::shared_ptr<Mailbox> make_mailbox(int owner);
  /// Transmits `bytes` from `from` into `to` under the grant: arbitrates
  /// the shared medium at the sender's current clock (the sender's clock
  /// does not advance) and schedules the delivery.
  void send(int from, const std::shared_ptr<Mailbox>& to, std::string bytes,
            const net::LinkProfile& link);
  /// Blocks until a message is available in `mb`, then pops it, advancing
  /// `node`'s clock to max(now, arrival) and counting the traffic. Throws
  /// NetworkError once `mb` is closed and fully drained, DeadlockError on
  /// global quiescence with no way forward.
  std::string recv(int node, Mailbox& mb);
  /// recv with a virtual budget: returns nullopt (charging the budget to
  /// `node`'s clock when positive) if the engine reaches quiescence before
  /// a message arrives. Never times out a delivery already in flight.
  std::optional<std::string> recv_timeout(int node, Mailbox& mb,
                                          double seconds);
  /// Closes `mb`: already-scheduled deliveries still fire and drain, then
  /// readers get NetworkError; new sends fail immediately.
  void close(Mailbox& mb);

 private:
  enum class NodeState { kRunning, kBlocked, kRetired };

  struct NodeSlot {
    double time = 0.0;
    NodeState state = NodeState::kRunning;
    const Mailbox* waiting = nullptr;  ///< mailbox blocked on, when kBlocked
    bool has_timeout = false;          ///< blocked wait carries a budget
    double timeout_budget = 0.0;
    bool timed_out = false;  ///< quiescence fired this node's timeout
  };

  void check_node(int node) const;
  void throw_if_deadlocked_locked() const TN_REQUIRES(mutex_);
  double min_running_time_locked() const TN_REQUIRES(mutex_);
  /// Virtual time at which a blocked node is certain to resume (delivery
  /// already in its mailbox, channel closed and drained, or timeout fired);
  /// +inf for nodes that are running, retired, or still genuinely waiting.
  double wake_time_locked(const NodeSlot& slot) const TN_REQUIRES(mutex_);
  bool granted_locked(int node) const TN_REQUIRES(mutex_);
  /// Mixes one schedule-visible record into the digest (commutative sum —
  /// see schedule_digest()).
  void record_locked(std::uint64_t tag, int node, double time,
                     std::uint64_t extra) TN_REQUIRES(mutex_);
  /// Fires every event due at or before the minimum running clock.
  void pump_locked() TN_REQUIRES(mutex_);
  /// At quiescence, fires the earliest pending timeout or declares
  /// deadlock. No-op while any node runs or any wait can self-resolve.
  void check_quiescence_locked() TN_REQUIRES(mutex_);
  void await_grant_locked(int node) TN_REQUIRES(mutex_);
  /// Pops the front delivery of `mb` for `node` (queue must be nonempty).
  std::string pop_locked(int node, Mailbox& mb) TN_REQUIRES(mutex_);

  const int num_nodes_;
  /// Tie-break rule; never null. State only mutates via note_step under
  /// mutex_ on granted operations (see GrantPolicy's purity contract).
  const std::unique_ptr<GrantPolicy> policy_;
  mutable Mutex mutex_;
  CondVar cv_;
  /// Scratch for granted_locked's eligible set (avoids an allocation per
  /// grant check; only touched under mutex_).
  mutable std::vector<int> eligible_ TN_GUARDED_BY(mutex_);
  std::vector<NodeSlot> nodes_ TN_GUARDED_BY(mutex_);
  EventQueue events_ TN_GUARDED_BY(mutex_);
  double medium_free_ TN_GUARDED_BY(mutex_) = 0.0;
  std::uint64_t next_seq_ TN_GUARDED_BY(mutex_) = 0;
  std::int64_t bytes_ TN_GUARDED_BY(mutex_) = 0;
  std::int64_t messages_ TN_GUARDED_BY(mutex_) = 0;
  std::uint64_t digest_ TN_GUARDED_BY(mutex_) = 0;
  bool deadlocked_ TN_GUARDED_BY(mutex_) = false;
  std::string deadlock_msg_ TN_GUARDED_BY(mutex_);
};

}  // namespace teamnet::sim::des
