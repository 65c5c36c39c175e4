#include "sim/des/engine.hpp"

#include <algorithm>
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
                                      num_nodes)),
      nodes_(static_cast<std::size_t>(std::max(num_nodes, 0))) {
  TEAMNET_CHECK_MSG(num_nodes > 0, "Engine needs at least one node");
  MutexLock lock(mutex_);
  eligible_.reserve(nodes_.size());
  hand_off_locked();  // the first turn
}

void Engine::check_node(int node) const {
  TEAMNET_CHECK_MSG(node >= 0 && node < num_nodes_, "node id out of range");
}

double Engine::node_time(int node) const {
  check_node(node);
  MutexLock lock(mutex_);
  return nodes_[static_cast<std::size_t>(node)].time;
}

std::int64_t Engine::bytes_delivered() const {
  MutexLock lock(mutex_);
  return bytes_;
}

std::int64_t Engine::messages_delivered() const {
  MutexLock lock(mutex_);
  return messages_;
}

std::int64_t Engine::air_bytes() const {
  MutexLock lock(mutex_);
  return air_bytes_;
}

std::int64_t Engine::air_frames() const {
  MutexLock lock(mutex_);
  return air_frames_;
}

void Engine::throw_if_deadlocked_locked() const {
  if (deadlocked_) throw DeadlockError(deadlock_msg_);
}

Engine::NodeSlot& Engine::enter_locked(int node) {
  NodeSlot& slot = nodes_[static_cast<std::size_t>(node)];
  TEAMNET_CHECK_MSG(slot.state != NodeState::kRetired,
                    "node " << node << " called the engine after retiring");
  slot.thread = std::this_thread::get_id();
  return slot;
}

double Engine::wake_time_locked(const NodeSlot& slot) const {
  if (slot.state == NodeState::kRunning) return slot.time;
  if (slot.state == NodeState::kRetired) return kNever;
  // The wake-up (or a fired budget), or the earliest queued delivery or
  // drained channel, whichever comes first.
  double t = slot.timed_out ? slot.time : std::max(slot.time, slot.wake_at);
  for (const Mailbox* mb : slot.waiting) {
    if (!mb->queue_.empty()) {
      t = std::min(t, std::max(slot.time, mb->queue_.front().arrival));
    } else if (drained_locked(*mb)) {
      t = std::min(t, slot.time);
    }
  }
  return t;
}

std::size_t Engine::earliest_locked(std::span<Mailbox* const> mbs) const {
  std::size_t best = mbs.size();
  for (std::size_t i = 0; i < mbs.size(); ++i) {
    if (mbs[i]->queue_.empty()) continue;
    const Mailbox::Delivery& d = mbs[i]->queue_.front();
    if (best == mbs.size()) {
      best = i;
      continue;
    }
    const Mailbox::Delivery& b = mbs[best]->queue_.front();
    if (d.arrival < b.arrival || (d.arrival == b.arrival && d.seq < b.seq)) {
      best = i;
    }
  }
  return best;
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

void Engine::hand_off_locked() {
  if (deadlocked_) return;
  for (;;) {
    // Fire every event due at or before the earliest running clock: no
    // running node can still schedule an earlier one, and a blocked node
    // resumes only through this step.
    double horizon = kNever;
    for (const NodeSlot& slot : nodes_) {
      if (slot.state == NodeState::kRunning) {
        horizon = std::min(horizon, slot.time);
      }
    }
    while (!events_.empty() && events_.top().key.time <= horizon) {
      Event event = events_.pop();
      Mailbox& mb = *event.mailbox;
      --mb.pending_events_;
      mb.queue_.push_back({event.key.time, std::move(event.bytes), event.sent,
                           event.on_air, event.key.seq});
    }
    double t_min = kNever;
    for (const NodeSlot& slot : nodes_) {
      t_min = std::min(t_min, wake_time_locked(slot));
    }
    if (t_min < kNever) {
      // Every node within the policy's window of the minimum key is
      // eligible (slack 0 under canonical: exact ties only), unless an
      // unfired event is due at or before its key — events win ties. The
      // minimum-key node always passes (unfired events lie past the
      // horizon), so the set is never empty. Which eligible node goes
      // first is pure schedule choice; the salt mixes in state that only
      // sends mutate, so repeated ties at one virtual time can still land
      // on different winners.
      const double window = t_min + policy_->slack();
      const double gate = events_.empty() ? kNever : events_.top().key.time;
      eligible_.clear();
      for (int m = 0; m < num_nodes_; ++m) {
        const NodeSlot& slot = nodes_[static_cast<std::size_t>(m)];
        const double t = wake_time_locked(slot);
        if (t <= window && t < gate) eligible_.push_back(m);
      }
      holder_ = policy_->choose(t_min, eligible_,
                                mix64(next_seq_ ^ double_bits(medium_free_)));
      nodes_[static_cast<std::size_t>(holder_)].baton.notify_one();
      return;
    }
    // Quiescence: nothing runs, nothing is in flight, no wait can resume
    // by itself. Fire the earliest budget (waiter_time + budget, ties by
    // node id): provably no message can still arrive for that wait.
    holder_ = -1;
    NodeSlot* fire = nullptr;
    double deadline = kNever;
    bool stuck = false;
    for (NodeSlot& slot : nodes_) {
      if (slot.state != NodeState::kBlocked) continue;
      stuck = true;
      if (slot.budget && slot.time + *slot.budget < deadline) {
        deadline = slot.time + *slot.budget;
        fire = &slot;
      }
    }
    if (fire != nullptr) {
      fire->timed_out = true;
      continue;
    }
    if (!stuck) return;  // every node retired: the run is over
    std::ostringstream msg;
    msg << "discrete-event deadlock: no node running, no event pending, and "
           "no budget armed; blocked:";
    for (int n = 0; n < num_nodes_; ++n) {
      const NodeSlot& slot = nodes_[static_cast<std::size_t>(n)];
      if (slot.state != NodeState::kBlocked) continue;
      msg << " node " << n << " (t=" << slot.time << ", waiting on "
          << slot.waiting.size() << " mailbox(es));";
    }
    deadlocked_ = true;
    deadlock_msg_ = msg.str();
    for (NodeSlot& slot : nodes_) slot.baton.notify_one();
    return;
  }
}

std::string Engine::pop_locked(int node, Mailbox& mb,
                               net::WireTiming* timing) {
  TEAMNET_CHECK_MSG(!mb.queue_.empty(), "pop_locked on empty mailbox");
  NodeSlot& slot = nodes_[static_cast<std::size_t>(node)];
  Mailbox::Delivery delivery = std::move(mb.queue_.front());
  mb.queue_.pop_front();
  slot.time = std::max(slot.time, delivery.arrival);
  if (timing != nullptr) *timing = {delivery.on_air, delivery.arrival};
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
  return std::move(delivery.bytes);
}

double Engine::advance(int node, double seconds) {
  check_node(node);
  TEAMNET_CHECK_MSG(seconds >= 0.0, "advance by negative time");
  MutexLock lock(mutex_);
  NodeSlot& slot = enter_locked(node);
  while (holder_ != node && !deadlocked_) slot.baton.wait(mutex_);
  throw_if_deadlocked_locked();
  slot.time += seconds;
  record_locked('A', node, slot.time, 0);
  policy_->note_step(node);
  hand_off_locked();
  return slot.time;
}

void Engine::retire(int node) {
  check_node(node);
  MutexLock lock(mutex_);
  NodeSlot& slot = nodes_[static_cast<std::size_t>(node)];
  if (slot.state == NodeState::kRetired) return;
  // After a deadlock there are no turns left; teardown retires at once.
  while (holder_ != node && !deadlocked_) slot.baton.wait(mutex_);
  slot.state = NodeState::kRetired;
  record_locked('R', node, slot.time, 0);
  if (obs::Tracer::active() && obs::Tracer::scheduler_events()) {
    obs::Tracer::instance().instant_at(node, slot.time, "des.retire",
                                       obs::TraceArgs());
  }
  hand_off_locked();
}

std::shared_ptr<Mailbox> Engine::make_mailbox(int owner) {
  check_node(owner);
  return std::make_shared<Mailbox>(owner);
}

std::vector<std::size_t> Engine::send(
    int from, std::span<const std::shared_ptr<Mailbox>> to, std::string bytes,
    const net::LinkProfile& link) {
  check_node(from);
  TEAMNET_CHECK_MSG(!to.empty(), "send needs at least one mailbox");
  for (const auto& mb : to) {
    TEAMNET_CHECK_MSG(mb != nullptr, "send to null mailbox");
  }
  MutexLock lock(mutex_);
  std::vector<std::size_t> closed;
  const auto refused_by_all = [&] {
    closed.clear();
    for (std::size_t i = 0; i < to.size(); ++i) {
      if (to[i]->closed_) closed.push_back(i);
    }
    return closed.size() == to.size();
  };
  // A closed mailbox stays closed, so a send every member would refuse at
  // its turn is refused now instead of waiting for the baton.
  if (refused_by_all()) return closed;
  NodeSlot& slot = enter_locked(from);
  while (holder_ != from && !deadlocked_) slot.baton.wait(mutex_);
  throw_if_deadlocked_locked();
  if (refused_by_all()) return closed;
  // Medium arbitration: the transmission occupies the shared half-duplex
  // medium from max(send_time, medium_free) for its airtime, and arrives
  // one propagation latency after it leaves the medium. The sender's clock
  // does not advance. A group frame pays this once.
  const auto size = static_cast<std::int64_t>(bytes.size());
  const double send_time = slot.time;
  const double start = std::max(send_time, medium_free_);
  medium_free_ = start + link.airtime(size);
  const double arrival = medium_free_ + link.latency_s;
  // Causality invariant the explorer leans on: no delivery may ever be
  // scheduled before its send left the sender's clock.
  TEAMNET_CHECK_MSG(arrival >= send_time,
                    "delivery scheduled before its send: arrival="
                        << arrival << " send_time=" << send_time);
  air_bytes_ += size;
  ++air_frames_;
  std::size_t last = to.size();
  while (to[last - 1]->closed_) --last;  // the last member to get the frame
  for (std::size_t i = 0; i < last; ++i) {
    const std::shared_ptr<Mailbox>& mb = to[i];
    if (mb->closed_) continue;
    mb->pending_events_ += 1;
    record_locked('S', from, arrival,
                  mix64(static_cast<std::uint64_t>(mb->owner()) ^
                        static_cast<std::uint64_t>(size)));
    if (obs::Tracer::active() && obs::Tracer::scheduler_events()) {
      // Under `mutex_` — must use the explicit-timestamp API; a bound
      // TimeSource would call node_time() and self-deadlock on `mutex_`.
      obs::Tracer::instance().instant_at(
          from, send_time, "des.schedule",
          obs::TraceArgs()
              .arg("dest", mb->owner())
              .arg("arrival", arrival)
              .arg("bytes", size));
    }
    // Every member but the last gets its own copy of the frame.
    events_.push(Event{EventKey{arrival, mb->owner(), next_seq_++}, mb,
                       i + 1 == last ? std::move(bytes) : std::string(bytes),
                       send_time, start});
  }
  policy_->note_step(from);
  hand_off_locked();
  return closed;
}

std::optional<std::pair<std::size_t, std::string>> Engine::await_read(
    int node, std::span<Mailbox* const> mbs, double until,
    std::optional<double> budget, net::WireTiming* timing) {
  check_node(node);
  TEAMNET_CHECK_MSG(!mbs.empty(), "await_read needs at least one mailbox");
  if (budget) budget = *budget > 0.0 ? *budget : 0.0;
  MutexLock lock(mutex_);
  NodeSlot& slot = enter_locked(node);
  while (holder_ != node && !deadlocked_) slot.baton.wait(mutex_);
  throw_if_deadlocked_locked();
  // Register the wait and pass the baton on. It comes back once this
  // wait's resume time is the next key: at once when a delivery is
  // already due, else after every node and event keyed earlier.
  slot.state = NodeState::kBlocked;
  slot.waiting = mbs;
  slot.wake_at = until;
  slot.budget = budget;
  slot.timed_out = false;
  hand_off_locked();
  while (holder_ != node && !deadlocked_) slot.baton.wait(mutex_);
  const double resume = wake_time_locked(slot);
  const bool timed_out = slot.timed_out;
  slot.state = NodeState::kRunning;
  slot.waiting = {};
  slot.budget.reset();
  if (deadlocked_) {
    if (obs::Tracer::active() && obs::Tracer::scheduler_events()) {
      obs::Tracer::instance().instant_at(node, slot.time, "des.deadlock",
                                         obs::TraceArgs());
    }
    throw DeadlockError(deadlock_msg_);
  }
  // Resume by whatever set `resume`; a delivery wins every tie.
  if (const std::size_t i = earliest_locked(mbs); i < mbs.size()) {
    const double arrival = mbs[i]->queue_.front().arrival;
    if (arrival <= until && std::max(slot.time, arrival) <= resume) {
      std::string bytes = pop_locked(node, *mbs[i], timing);
      hand_off_locked();
      return std::make_pair(i, std::move(bytes));
    }
  }
  if (std::any_of(mbs.begin(), mbs.end(),
                  [&](const Mailbox* mb) { return drained_locked(*mb); })) {
    throw NetworkError("channel closed");
  }
  if (timed_out) {
    // Quiescence fired this wait: provably nothing could arrive within the
    // budget, so charge it in full and report the timeout.
    slot.time += *budget;
    record_locked('T', node, slot.time, 0);
    if (obs::Tracer::active() && obs::Tracer::scheduler_events()) {
      obs::Tracer::instance().instant_at(
          node, slot.time, "des.timeout_fired",
          obs::TraceArgs().arg("budget_s", *budget));
    }
  } else {
    slot.time = resume;  // the wake-up
    record_locked('W', node, slot.time, 0);
    policy_->note_step(node);
  }
  hand_off_locked();
  return std::nullopt;
}

void Engine::close(Mailbox& mb) {
  MutexLock lock(mutex_);
  // The close is the calling thread's mutation: it waits for the baton of
  // the running node this thread makes engine calls as.
  for (int node = 0; node < num_nodes_; ++node) {
    NodeSlot& slot = nodes_[static_cast<std::size_t>(node)];
    if (slot.thread != std::this_thread::get_id() ||
        slot.state != NodeState::kRunning) {
      continue;
    }
    while (holder_ != node && !deadlocked_) slot.baton.wait(mutex_);
    break;
  }
  mb.closed_ = true;
  hand_off_locked();
}

}  // namespace teamnet::sim::des
