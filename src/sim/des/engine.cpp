#include "sim/des/engine.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace teamnet::sim::des {

namespace {

// std heap algorithms build a max-heap; invert the key order for a min-heap.
bool later(const Event& a, const Event& b) { return b.key < a.key; }

}  // namespace

void EventQueue::push(Event event) {
  heap_.push_back(std::move(event));
  std::push_heap(heap_.begin(), heap_.end(), later);
}

const Event& EventQueue::top() const {
  TEAMNET_CHECK_MSG(!heap_.empty(), "EventQueue::top on empty queue");
  return heap_.front();
}

Event EventQueue::pop() {
  TEAMNET_CHECK_MSG(!heap_.empty(), "EventQueue::pop on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Event event = std::move(heap_.back());
  heap_.pop_back();
  return event;
}

Engine::Engine(int num_nodes, std::unique_ptr<GrantPolicy> policy)
    : num_nodes_(num_nodes),
      policy_(policy != nullptr
                  ? std::move(policy)
                  : make_grant_policy(GrantPolicyKind::canonical, 0,
                                      num_nodes)) {
  TEAMNET_CHECK_MSG(num_nodes > 0, "Engine needs at least one node");
  nodes_.resize(static_cast<std::size_t>(num_nodes));
  eligible_.reserve(static_cast<std::size_t>(num_nodes));
}

void Engine::check_node(int node) const {
  TEAMNET_CHECK_MSG(node >= 0 && node < num_nodes_, "node id out of range");
}

double Engine::node_time(int node) const {
  check_node(node);
  MutexLock lock(mutex_);
  return nodes_[static_cast<std::size_t>(node)].time;
}

double Engine::max_time() const {
  MutexLock lock(mutex_);
  double t = 0.0;
  for (const NodeSlot& slot : nodes_) t = std::max(t, slot.time);
  return t;
}

std::int64_t Engine::bytes_delivered() const {
  MutexLock lock(mutex_);
  return bytes_;
}

std::int64_t Engine::messages_delivered() const {
  MutexLock lock(mutex_);
  return messages_;
}

void Engine::throw_if_deadlocked_locked() const {
  if (deadlocked_) throw DeadlockError(deadlock_msg_);
}

double Engine::min_running_time_locked() const {
  double t = std::numeric_limits<double>::infinity();
  for (const NodeSlot& slot : nodes_) {
    if (slot.state == NodeState::kRunning) t = std::min(t, slot.time);
  }
  return t;
}

double Engine::wake_time_locked(const NodeSlot& slot) const {
  if (slot.state != NodeState::kBlocked) {
    return std::numeric_limits<double>::infinity();
  }
  const Mailbox& mb = *slot.waiting;
  if (!mb.queue_.empty()) {
    return std::max(slot.time, mb.queue_.front().arrival);
  }
  if ((mb.closed_ && mb.pending_events_ == 0) || slot.timed_out) {
    return slot.time;
  }
  return std::numeric_limits<double>::infinity();
}

bool Engine::granted_locked(int node) const {
  const NodeSlot& self = nodes_[static_cast<std::size_t>(node)];
  if (self.state != NodeState::kRunning) return false;
  // Conservative floor: a node may only act while it is within the policy's
  // eligibility window of the minimum key, where a running node's key is
  // its clock and a blocked node's key is its determined wake time. A
  // blocked node whose wakeup is already determined (delivery queued,
  // channel drained-and-closed, timeout fired) WILL resume at a known
  // virtual time; until its thread actually wakes it keeps depressing the
  // grant floor, or the window between event-fire and thread-wake would let
  // later-clocked nodes slip sends in front of it non-deterministically —
  // exactly the thread-timing leak this engine exists to remove.
  //
  // The window (policy slack, 0 under canonical) widens "simultaneously
  // eligible" to every node within `t_min + slack`: reordering those nodes'
  // timed ops perturbs only virtual times via the shared-medium cursor
  // (bounded arbitration jitter); per-mailbox delivery content remains
  // pump-fire-order deterministic either way.
  double t_min = self.time;
  for (int m = 0; m < num_nodes_; ++m) {
    const NodeSlot& other = nodes_[static_cast<std::size_t>(m)];
    const double t = other.state == NodeState::kRunning
                         ? other.time
                         : wake_time_locked(other);
    if (t < t_min) t_min = t;
  }
  const double window = t_min + policy_->slack();
  if (self.time > window) return false;
  // Events win ties against running nodes: a delivery due at or before a
  // node's own clock must land before that node takes another timed step,
  // or the trace would depend on which thread got scheduled first. The
  // floor node always passes this gate (post-pump events strictly exceed
  // the min running clock), so the eligible set is never empty and a gated
  // ahead-of-floor node cannot livelock the grant.
  const double gate = events_.empty()
                          ? std::numeric_limits<double>::infinity()
                          : events_.top().key.time;
  if (self.time >= gate) return false;
  eligible_.clear();
  for (int m = 0; m < num_nodes_; ++m) {
    const NodeSlot& other = nodes_[static_cast<std::size_t>(m)];
    const double t = other.state == NodeState::kRunning
                         ? other.time
                         : wake_time_locked(other);
    if (t <= window && t < gate) eligible_.push_back(m);
  }
  // Which of the simultaneously eligible nodes acts first is pure schedule
  // choice — delegate it to the policy. The salt mixes in state that only
  // granted sends mutate, so repeated ties at the same virtual time can
  // still land on different winners without breaking the purity contract.
  const std::uint64_t salt = mix64(next_seq_ ^ double_bits(medium_free_));
  return policy_->choose(t_min, eligible_, salt) == node;
}

void Engine::record_locked(std::uint64_t tag, int node, double time,
                           std::uint64_t extra) {
  std::uint64_t h = mix64(tag ^ mix64(static_cast<std::uint64_t>(node) ^
                                      mix64(double_bits(time) ^ extra)));
  digest_ += h;  // commutative on purpose — see schedule_digest()
}

std::uint64_t Engine::schedule_digest() const {
  MutexLock lock(mutex_);
  return digest_;
}

int Engine::unretired_nodes() const {
  MutexLock lock(mutex_);
  int n = 0;
  for (const NodeSlot& slot : nodes_) {
    if (slot.state != NodeState::kRetired) ++n;
  }
  return n;
}

void Engine::pump_locked() {
  const double horizon = min_running_time_locked();
  bool fired = false;
  while (!events_.empty() && events_.top().key.time <= horizon) {
    Event event = events_.pop();
    Mailbox& mb = *event.mailbox;
    --mb.pending_events_;
    mb.queue_.push_back({event.key.time, std::move(event.bytes), event.sent});
    fired = true;
  }
  // Firing never changes a running node's clock, so `horizon` stays valid
  // across the loop.
  if (fired) cv_.notify_all();
}

void Engine::check_quiescence_locked() {
  for (const NodeSlot& slot : nodes_) {
    if (slot.state == NodeState::kRunning) return;
  }
  if (!events_.empty()) return;  // pump will fire these once horizon allows

  // No node is running and nothing is in flight. Classify the blocked set:
  // a waiter whose predicate already holds (message queued, channel drained
  // and closed, or a timeout already fired for it) just needs the CPU — the
  // engine is not stuck.
  bool any_blocked = false;
  int fire = -1;
  double fire_deadline = std::numeric_limits<double>::infinity();
  for (int n = 0; n < num_nodes_; ++n) {
    const NodeSlot& slot = nodes_[static_cast<std::size_t>(n)];
    if (slot.state != NodeState::kBlocked) continue;
    any_blocked = true;
    const Mailbox& mb = *slot.waiting;
    const bool wakeable = !mb.queue_.empty() ||
                          (mb.closed_ && mb.pending_events_ == 0) ||
                          slot.timed_out;
    if (wakeable) {
      cv_.notify_all();
      return;
    }
    if (slot.has_timeout) {
      const double deadline = slot.time + slot.timeout_budget;
      if (deadline < fire_deadline) {
        fire_deadline = deadline;
        fire = n;
      }
    }
  }
  if (!any_blocked) return;  // everyone retired — normal termination

  if (fire >= 0) {
    // Quiescence proves no message can still arrive for this wait; fire the
    // earliest deadline (ties broken by node id via strict `<` above).
    nodes_[static_cast<std::size_t>(fire)].timed_out = true;
    cv_.notify_all();
    return;
  }

  std::ostringstream msg;
  msg << "discrete-event deadlock: no node running, no event pending, and "
         "no timeout armed; blocked:";
  for (int n = 0; n < num_nodes_; ++n) {
    const NodeSlot& slot = nodes_[static_cast<std::size_t>(n)];
    if (slot.state != NodeState::kBlocked) continue;
    msg << " node " << n << " (t=" << slot.time << ", recv from mailbox of node "
        << slot.waiting->owner() << ");";
  }
  deadlocked_ = true;
  deadlock_msg_ = msg.str();
  if (obs::Tracer::active() && obs::Tracer::scheduler_events()) {
    for (int n = 0; n < num_nodes_; ++n) {
      const NodeSlot& slot = nodes_[static_cast<std::size_t>(n)];
      if (slot.state != NodeState::kBlocked) continue;
      obs::Tracer::instance().instant_at(n, slot.time, "des.deadlock",
                                         obs::TraceArgs());
    }
  }
  cv_.notify_all();
}

void Engine::await_grant_locked(int node) {
  for (;;) {
    throw_if_deadlocked_locked();
    pump_locked();
    if (granted_locked(node)) return;
    cv_.wait(mutex_);
  }
}

std::string Engine::pop_locked(int node, Mailbox& mb) {
  TEAMNET_CHECK_MSG(!mb.queue_.empty(), "pop_locked on empty mailbox");
  NodeSlot& slot = nodes_[static_cast<std::size_t>(node)];
  Mailbox::Delivery delivery = std::move(mb.queue_.front());
  mb.queue_.pop_front();
  slot.time = std::max(slot.time, delivery.arrival);
  bytes_ += static_cast<std::int64_t>(delivery.bytes.size());
  ++messages_;
  // Realized transit on the receiver's clock, Lamport wait included. The
  // handle is cached after the first lookup; observe() is lock-free
  // atomics, safe under mutex_ (the registry mutex is a leaf, same nesting
  // the tracer uses here).
  static obs::Histogram& transit_ms =
      obs::MetricsRegistry::instance().histogram(
          "net.transit_ms", {0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1e3});
  transit_ms.observe(1e3 * (slot.time - delivery.sent));
  record_locked('P', node, delivery.arrival, delivery.bytes.size());
  // The receiver's clock may have jumped forward, raising the pump horizon.
  pump_locked();
  cv_.notify_all();
  return std::move(delivery.bytes);
}

double Engine::advance(int node, double seconds) {
  check_node(node);
  TEAMNET_CHECK_MSG(seconds >= 0.0, "advance by negative time");
  MutexLock lock(mutex_);
  await_grant_locked(node);
  NodeSlot& slot = nodes_[static_cast<std::size_t>(node)];
  slot.time += seconds;
  record_locked('A', node, slot.time, 0);
  policy_->note_step(node);
  pump_locked();
  cv_.notify_all();
  return slot.time;
}

void Engine::retire(int node) {
  check_node(node);
  MutexLock lock(mutex_);
  NodeSlot& slot = nodes_[static_cast<std::size_t>(node)];
  slot.state = NodeState::kRetired;
  slot.waiting = nullptr;
  slot.has_timeout = false;
  record_locked('R', node, slot.time, 0);
  if (obs::Tracer::active() && obs::Tracer::scheduler_events()) {
    obs::Tracer::instance().instant_at(node, slot.time, "des.retire",
                                       obs::TraceArgs());
  }
  pump_locked();
  check_quiescence_locked();
  cv_.notify_all();
}

std::shared_ptr<Mailbox> Engine::make_mailbox(int owner) {
  check_node(owner);
  return std::make_shared<Mailbox>(owner);
}

void Engine::send(int from, const std::shared_ptr<Mailbox>& to,
                  std::string bytes, const net::LinkProfile& link) {
  check_node(from);
  TEAMNET_CHECK_MSG(to != nullptr, "send to null mailbox");
  MutexLock lock(mutex_);
  // Closed means closed regardless of virtual order — check before the
  // grant so a sender whose peer tore the channel down fails fast instead
  // of queueing behind nodes that will never advance.
  if (to->closed_) throw NetworkError("channel closed");
  await_grant_locked(from);
  if (to->closed_) throw NetworkError("channel closed");
  // Medium arbitration: the transmission occupies the shared half-duplex
  // medium from max(send_time, medium_free) for its airtime, and arrives
  // one propagation latency after it leaves the medium. The sender's clock
  // does not advance.
  const double send_time = nodes_[static_cast<std::size_t>(from)].time;
  const double start = std::max(send_time, medium_free_);
  medium_free_ =
      start + link.airtime(static_cast<std::int64_t>(bytes.size()));
  const double arrival = medium_free_ + link.latency_s;
  // Causality invariant the explorer leans on: no delivery may ever be
  // scheduled before its send left the sender's clock.
  TEAMNET_CHECK_MSG(arrival >= send_time,
                    "delivery scheduled before its send: arrival="
                        << arrival << " send_time=" << send_time);
  to->pending_events_ += 1;
  record_locked('S', from, arrival,
                mix64(static_cast<std::uint64_t>(to->owner()) ^
                      static_cast<std::uint64_t>(bytes.size())));
  policy_->note_step(from);
  if (obs::Tracer::active() && obs::Tracer::scheduler_events()) {
    // Under `mutex_` — must use the explicit-timestamp API; a bound
    // TimeSource would call node_time() and self-deadlock on `mutex_`.
    obs::Tracer::instance().instant_at(
        from, send_time, "des.schedule",
        obs::TraceArgs()
            .arg("dest", to->owner())
            .arg("arrival", arrival)
            .arg("bytes", static_cast<std::int64_t>(bytes.size())));
  }
  events_.push(Event{EventKey{arrival, to->owner(), next_seq_++}, to,
                     std::move(bytes), send_time});
  pump_locked();
  cv_.notify_all();
}

std::string Engine::recv(int node, Mailbox& mb) {
  check_node(node);
  MutexLock lock(mutex_);
  NodeSlot& slot = nodes_[static_cast<std::size_t>(node)];
  for (;;) {
    throw_if_deadlocked_locked();
    if (!mb.queue_.empty()) return pop_locked(node, mb);
    if (mb.closed_ && mb.pending_events_ == 0) {
      throw NetworkError("channel closed");
    }
    // Only mark Blocked once the not-ready predicate holds above — blocking
    // with a deliverable message queued would let check_quiescence mistake
    // a runnable system for a stuck one.
    slot.state = NodeState::kBlocked;
    slot.waiting = &mb;
    pump_locked();
    check_quiescence_locked();
    // pump/quiescence above may have satisfied this very wait (fired an
    // event into `mb`, or declared deadlock); their notify happened before
    // we could sleep, so re-check instead of waiting on a lost wakeup.
    if (mb.queue_.empty() && !(mb.closed_ && mb.pending_events_ == 0) &&
        !deadlocked_) {
      cv_.notify_all();  // blocking lowers the grant floor for other nodes
      cv_.wait(mutex_);
    }
    slot.state = NodeState::kRunning;
    slot.waiting = nullptr;
  }
}

std::optional<std::string> Engine::recv_timeout(int node, Mailbox& mb,
                                                double seconds) {
  check_node(node);
  const double budget = seconds > 0.0 ? seconds : 0.0;
  MutexLock lock(mutex_);
  NodeSlot& slot = nodes_[static_cast<std::size_t>(node)];
  slot.timed_out = false;
  for (;;) {
    throw_if_deadlocked_locked();
    if (!mb.queue_.empty()) return pop_locked(node, mb);
    if (mb.closed_ && mb.pending_events_ == 0) {
      throw NetworkError("channel closed");
    }
    if (slot.timed_out) {
      // check_quiescence fired this wait: provably nothing could arrive
      // within the budget, so charge it in full and report the timeout.
      slot.timed_out = false;
      if (budget > 0.0) {
        slot.time += budget;
        pump_locked();
      }
      record_locked('T', node, slot.time, 0);
      if (obs::Tracer::active() && obs::Tracer::scheduler_events()) {
        obs::Tracer::instance().instant_at(
            node, slot.time, "des.timeout_fired",
            obs::TraceArgs().arg("budget_s", budget));
      }
      cv_.notify_all();
      return std::nullopt;
    }
    slot.state = NodeState::kBlocked;
    slot.waiting = &mb;
    slot.has_timeout = true;
    slot.timeout_budget = budget;
    pump_locked();
    check_quiescence_locked();
    // Same lost-wakeup guard as recv, plus: quiescence may have fired this
    // node's own timeout just now.
    if (mb.queue_.empty() && !(mb.closed_ && mb.pending_events_ == 0) &&
        !slot.timed_out && !deadlocked_) {
      cv_.notify_all();
      cv_.wait(mutex_);
    }
    slot.state = NodeState::kRunning;
    slot.waiting = nullptr;
    slot.has_timeout = false;
  }
}

void Engine::close(Mailbox& mb) {
  MutexLock lock(mutex_);
  mb.closed_ = true;
  // Blocked readers re-check and throw once the queue and pending events
  // drain; nothing else changes, so no quiescence pass is needed here.
  cv_.notify_all();
}

}  // namespace teamnet::sim::des
