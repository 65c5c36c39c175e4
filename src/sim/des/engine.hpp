// Conservative discrete-event engine for the edge simulation (DESIGN.md §9)
// — the one clock every simulated fleet runs on.
//
// The engine runs the UNCHANGED distributed protocol code — the same
// CollaborativeMaster/Worker, mpi::Communicator and MoE serving loops that
// run over real TCP — on real threads, but lets one node at a time change
// engine state, so the whole run replays in virtual-time order:
//
//   * One node holds the BATON. Every engine call made as a node — advance,
//     send, a read, close, retire — first waits until that node holds it.
//     At the end of each call the engine hands the baton on by a pure
//     function of its own state, never of which threads happen to be
//     awake, and wakes exactly that node's thread.
//   * A send arbitrates the shared half-duplex medium (the one place the
//     simulator does: start at max(send_time, medium_free), occupy
//     LinkProfile::airtime) and enqueues a delivery event keyed by
//     (arrival_time, destination_node, schedule_seq) — the global
//     tie-break rule that makes event order total and deterministic. A
//     send names a group of destination mailboxes: the frame is on the
//     air once and every member gets its own delivery at the same
//     arrival. A unicast is a group of one.
//   * The hand-off first fires (moves into its mailbox) every event due at
//     or before the earliest running clock — no running node can still
//     schedule an earlier one. It then picks the minimum key: a running
//     node's clock, or a blocked node's determined resume time
//     (wake_time_locked). Events win ties, and a GrantPolicy may pick
//     another node within its slack (grant_policy.hpp).
//   * With no key left the engine has reached QUIESCENCE: the earliest
//     pending budget fires (charging it to the waiter's clock), and if no
//     waiter holds a budget the engine declares a deadlock with a
//     diagnosable DeadlockError — the one event that wakes every node.
//
// The result: two runs with the same seeds produce bit-identical virtual
// traces under every grant policy — ScenarioResult::latency_ms included.
// Tensor compute still overlaps in real time: a thread that has returned
// from an engine call keeps computing while the baton moves on, and waits
// only at its next engine call.
//
// Every blocking read is one wait: a node waits on one or more of its
// mailboxes, optionally until a virtual wake-up instant T, optionally with
// a quiescence budget. recv, recv_timeout and recv_any are that wait with
// one mailbox, one mailbox and a budget, and several mailboxes and a T.
//
// Budgets deserve a note: a pending delivery is always handed over before
// a budget is considered, and a budget fires only at quiescence — when
// provably no message can still arrive. A timeout therefore only ever
// fires for a message that never comes, however long the budget, so
// timeouts decide fault handling and never race replies.
//
// Wake-ups are not timeouts: the node wakes for the earliest delivery
// landing at or before T, or at T itself. The wake-up is keyed (T, node)
// like an EventKey: it is a determined resume time that holds the
// baton's floor down at T, it loses ties to deliveries due at T, and the
// node resumes only once the baton reaches it there. It never touches the
// medium and is never counted as traffic.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "net/link.hpp"
#include "net/transport.hpp"
#include "sim/des/grant_policy.hpp"

namespace teamnet::sim::des {

/// The simulated system can never make progress: at least one node is
/// blocked in a wait while no node is running, no delivery is pending,
/// and no budget or wake-up could fire. The message names the stuck nodes.
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
  double sent = 0.0;    ///< sender's clock when the message left
  double on_air = 0.0;  ///< when it got the medium (sent + medium wait)
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
    double on_air = 0.0;
    std::uint64_t seq = 0;  ///< its EventKey::seq (orders ties in a wait)
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
  /// happened so far: advances, sends, deliveries, timeout charges, wake-ups
  /// and retirements, each hashed with its virtual timestamp and summed.
  /// Two runs of the same scenario under the same (seed, policy,
  /// schedule_seed) must report identical digests — the bit-exactness
  /// check behind counterexample replay. The baton makes the record order
  /// deterministic too; the sum (not a running chain) stays only so the
  /// pinned canonical digests keep their values.
  std::uint64_t schedule_digest() const;

  /// Nodes not yet retired — 0 after a clean run (every worker and the
  /// master retired); the explorer checks this as a protocol invariant.
  int unretired_nodes() const;

  // -- clock surface --------------------------------------------------------
  double node_time(int node) const;
  /// Advances `node` by `seconds` of local work, in virtual-time order:
  /// waits for the baton. Returns the new time.
  double advance(int node, double seconds);
  /// Payload bytes and frames read by their receivers: a group frame
  /// counts once per member that read it.
  std::int64_t bytes_delivered() const;
  std::int64_t messages_delivered() const;
  /// Payload bytes and frames put on the medium: a group frame counts
  /// once, however many members it reached.
  std::int64_t air_bytes() const;
  std::int64_t air_frames() const;

  // -- node lifecycle -------------------------------------------------------
  /// Marks `node` permanently done with virtual time, at its turn of the
  /// baton. A node whose thread stops making engine calls while still
  /// running would hold the virtual-time floor forever and stall every
  /// pending delivery; drivers therefore retire a node when its protocol
  /// role ends (workers on serve-loop exit, the master after shutdown and
  /// before join). Idempotent; a retired node must make no further calls.
  void retire(int node);

  // -- channel surface (used by DesChannel) ---------------------------------
  std::shared_ptr<Mailbox> make_mailbox(int owner);
  /// Transmits `bytes` from `from` to every mailbox in `to` as ONE frame,
  /// with the baton: one medium arbitration at the sender's current clock
  /// (the sender's clock does not advance), one LinkProfile::airtime, and
  /// one delivery per member at the same arrival, keyed like any other
  /// (arrival, member node, seq) and recorded as one 'S' per member. A
  /// closed member is skipped; the others still get the frame. Returns
  /// the positions in `to` of the closed members, ascending: empty when
  /// every member got it, all of them when none did (nothing was sent and
  /// no airtime charged). A send every member refuses returns without
  /// waiting for the baton.
  std::vector<std::size_t> send(int from,
                                std::span<const std::shared_ptr<Mailbox>> to,
                                std::string bytes,
                                const net::LinkProfile& link);
  /// send to a group of one: throws NetworkError when `to` is closed.
  void send(int from, const std::shared_ptr<Mailbox>& to, std::string bytes,
            const net::LinkProfile& link) {
    if (!send(from, std::span(&to, 1), std::move(bytes), link).empty()) {
      throw NetworkError("channel closed");
    }
  }
  /// The one blocking read: `node` waits on its mailboxes `mbs` and reads
  /// the earliest delivery (EventKey order) landing at or before `until`,
  /// returned with its index in `mbs`. The read happens once the baton
  /// reaches `node` at the delivery's arrival, so no earlier one can still
  /// come. It advances `node`'s clock to max(now, arrival), counts the
  /// traffic and, when `timing` is non-null, stores the frame's WireTiming.
  /// Returns nullopt instead
  ///   * once the baton reaches `node` at a finite `until` with nothing
  ///     earlier to read — its clock then reads `until` (the wake-up, see
  ///     the top);
  ///   * when `budget` is set and the engine reaches quiescence first — a
  ///     positive budget is then charged to `node`'s clock.
  /// Throws NetworkError once any of `mbs` is closed and drained,
  /// DeadlockError on global quiescence with no way forward.
  std::optional<std::pair<std::size_t, std::string>> await_read(
      int node, std::span<Mailbox* const> mbs, double until,
      std::optional<double> budget, net::WireTiming* timing = nullptr);
  /// await_read on one mailbox with neither a wake-up nor a budget.
  std::string recv(int node, Mailbox& mb, net::WireTiming* timing = nullptr) {
    return std::move(
        await_read(node, std::array{&mb}, kNever, {}, timing)->second);
  }
  /// await_read on one mailbox with a budget of `seconds`.
  std::optional<std::string> recv_timeout(int node, Mailbox& mb,
                                          double seconds,
                                          net::WireTiming* timing = nullptr) {
    auto got = await_read(node, std::array{&mb}, kNever, seconds, timing);
    return got ? std::optional(std::move(got->second)) : std::nullopt;
  }
  /// await_read on several mailboxes until `until` (+infinity: no
  /// wake-up).
  std::optional<std::pair<std::size_t, std::string>> recv_any(
      int node, std::span<Mailbox* const> mbs, double until,
      net::WireTiming* timing = nullptr) {
    return await_read(node, mbs, until, {}, timing);
  }
  /// Closes `mb`: already-scheduled deliveries still fire and drain, then
  /// readers get NetworkError; new sends fail immediately. The close waits
  /// for the baton of the running node the calling thread makes engine
  /// calls as; a thread that has made none closes at once.
  void close(Mailbox& mb);

 private:
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  enum class NodeState { kRunning, kBlocked, kRetired };

  struct NodeSlot {
    double time = 0.0;
    NodeState state = NodeState::kRunning;
    /// The blocked wait, when kBlocked: its mailboxes, wake-up instant
    /// (+inf = none) and quiescence budget.
    std::span<Mailbox* const> waiting;
    double wake_at = kNever;
    std::optional<double> budget;
    bool timed_out = false;  ///< quiescence fired this node's budget
    std::thread::id thread;  ///< last thread to call in as this node
    CondVar baton;           ///< signalled when this node gets the baton
  };

  void check_node(int node) const;
  void throw_if_deadlocked_locked() const TN_REQUIRES(mutex_);
  /// Starts an engine call as `node`: records the calling thread. The
  /// caller then waits until holder_ == node.
  NodeSlot& enter_locked(int node) TN_REQUIRES(mutex_);
  /// A node's key for the hand-off: a running node's clock; the virtual
  /// time at which a blocked node is certain to resume (delivery already in
  /// a mailbox, channel closed and drained, budget fired, or a wake-up);
  /// +inf for nodes that are retired or still genuinely waiting.
  double wake_time_locked(const NodeSlot& slot) const TN_REQUIRES(mutex_);
  /// Index in `mbs` of the earliest queued delivery (arrival, then seq);
  /// mbs.size() when every mailbox is empty.
  std::size_t earliest_locked(std::span<Mailbox* const> mbs) const
      TN_REQUIRES(mutex_);
  bool drained_locked(const Mailbox& mb) const TN_REQUIRES(mutex_) {
    return mb.closed_ && mb.pending_events_ == 0 && mb.queue_.empty();
  }
  /// Mixes one schedule-visible record into the digest (commutative sum —
  /// see schedule_digest()).
  void record_locked(std::uint64_t tag, int node, double time,
                     std::uint64_t extra) TN_REQUIRES(mutex_);
  /// The one scheduling step, run at the end of every engine call: fires
  /// due events, then sets holder_ to the next node and wakes its thread;
  /// at quiescence fires the earliest budget or declares deadlock.
  void hand_off_locked() TN_REQUIRES(mutex_);
  /// Pops the front delivery of `mb` for `node` (queue must be nonempty).
  std::string pop_locked(int node, Mailbox& mb, net::WireTiming* timing)
      TN_REQUIRES(mutex_);

  const int num_nodes_;
  /// Tie-break rule; never null. State only mutates via note_step under
  /// mutex_, by the baton holder (see GrantPolicy's purity contract).
  const std::unique_ptr<GrantPolicy> policy_;
  mutable Mutex mutex_;
  /// The node whose turn it is; -1 once every node retired or deadlocked.
  int holder_ TN_GUARDED_BY(mutex_) = -1;
  /// Scratch for the hand-off's eligible set (avoids an allocation per
  /// hand-off; only touched under mutex_).
  std::vector<int> eligible_ TN_GUARDED_BY(mutex_);
  std::vector<NodeSlot> nodes_ TN_GUARDED_BY(mutex_);
  EventQueue events_ TN_GUARDED_BY(mutex_);
  double medium_free_ TN_GUARDED_BY(mutex_) = 0.0;
  std::uint64_t next_seq_ TN_GUARDED_BY(mutex_) = 0;
  std::int64_t bytes_ TN_GUARDED_BY(mutex_) = 0;
  std::int64_t messages_ TN_GUARDED_BY(mutex_) = 0;
  std::int64_t air_bytes_ TN_GUARDED_BY(mutex_) = 0;
  std::int64_t air_frames_ TN_GUARDED_BY(mutex_) = 0;
  std::uint64_t digest_ TN_GUARDED_BY(mutex_) = 0;
  bool deadlocked_ TN_GUARDED_BY(mutex_) = false;
  std::string deadlock_msg_ TN_GUARDED_BY(mutex_);
};

}  // namespace teamnet::sim::des
