#include "net/fault.hpp"

#include <cstdio>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace teamnet::net {

namespace {

double clamp01(double p) { return p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p); }

void validate(const FaultProfile& p) {
  TEAMNET_CHECK_MSG(p.drop_prob == clamp01(p.drop_prob) &&
                        p.delay_prob == clamp01(p.delay_prob) &&
                        p.corrupt_prob == clamp01(p.corrupt_prob) &&
                        p.duplicate_prob == clamp01(p.duplicate_prob),
                    "fault probabilities must be in [0, 1]");
  TEAMNET_CHECK_MSG(p.delay_min_s >= 0.0 && p.delay_max_s >= p.delay_min_s,
                    "delay range must satisfy 0 <= min <= max");
}

std::string format_delay(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "delay %.6f", seconds);
  return buf;
}

std::string format_corrupt(std::size_t pos, unsigned mask) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "corrupt @%zu ^0x%02x", pos, mask);
  return buf;
}

}  // namespace

FaultyChannel::FaultyChannel(ChannelPtr inner, FaultProfile profile)
    : inner_(std::move(inner)),
      profile_(profile),
      rng_(profile.seed),
      partition_send_(profile.partition_send),
      partition_recv_(profile.partition_recv) {
  TEAMNET_CHECK(inner_ != nullptr);
  validate(profile_);
}

void FaultyChannel::check_crash_locked(const char* dir, std::int64_t seq) {
  if (crashed_) throw NetworkError("injected crash (fault profile)");
  if (profile_.crash_after_messages >= 0 &&
      messages_seen_ >= profile_.crash_after_messages) {
    crashed_ = true;
    record_locked(dir, seq, "crash");
    throw NetworkError("injected crash (fault profile)");
  }
}

void FaultyChannel::record_locked(const char* dir, std::int64_t seq,
                                  const std::string& what) {
  log_ += dir;
  log_ += '#';
  log_ += std::to_string(seq);
  log_ += ' ';
  log_ += what;
  log_ += '\n';
  ++faults_;
  // Single fault-record point, so this is THE place every injected fault
  // becomes an instant event. `mutex_` is held; the tracer only takes leaf
  // locks (and the bound clock's engine lock already nests under `mutex_`
  // on the normal send path), so ordering stays acyclic.
  obs::MetricsRegistry::instance()
      .counter("net.faults_injected_total")
      .increment();
  // Per-kind companion ("net.faults_drop_total", "net.faults_delay_total",
  // ...): the kind is `what`'s first token, normalized to a name segment,
  // so a fault sweep can see WHICH injections fired without parsing logs.
  std::string kind = what.substr(0, what.find(' '));
  for (char& c : kind) {
    if (c == '-' || c == '@') c = '_';
  }
  obs::MetricsRegistry::instance()
      .counter("net.faults_" + kind + "_total")
      .increment();
  obs::trace_instant("fault", [&] {
    return obs::TraceArgs().arg("dir", dir).arg("seq", seq).arg("what", what);
  });
}

FaultyChannel::Fate FaultyChannel::fault_step_locked(bool tx,
                                                     std::int64_t seq,
                                                     std::size_t size) {
  const char* dir = tx ? "tx" : "rx";
  Fate fate;
  ++messages_seen_;
  if (tx ? partition_send_ : partition_recv_) {
    record_locked(dir, seq, "partition-drop");
    fate.lost = true;
    return fate;
  }
  if (profile_.drop_prob > 0.0 && rng_.bernoulli(profile_.drop_prob)) {
    record_locked(dir, seq, "drop");
    fate.lost = true;
    return fate;
  }
  if (tx && profile_.delay_prob > 0.0 && rng_.bernoulli(profile_.delay_prob)) {
    fate.delay_s = static_cast<double>(
        rng_.uniform(static_cast<float>(profile_.delay_min_s),
                     static_cast<float>(profile_.delay_max_s)));
    record_locked(dir, seq, format_delay(fate.delay_s));
  }
  if (profile_.corrupt_prob > 0.0 && rng_.bernoulli(profile_.corrupt_prob) &&
      size > 0) {
    fate.corrupt_pos = static_cast<std::size_t>(
        rng_.randint(0, static_cast<int>(size) - 1));
    fate.corrupt_mask = 1u << rng_.randint(0, 7);
    record_locked(dir, seq,
                  format_corrupt(fate.corrupt_pos, fate.corrupt_mask));
  }
  if (profile_.duplicate_prob > 0.0 &&
      rng_.bernoulli(profile_.duplicate_prob)) {
    fate.duplicate = true;
    record_locked(dir, seq, "dup");
  }
  return fate;
}

FaultyChannel::Fate FaultyChannel::tx_step(std::size_t size) {
  MutexLock lock(mutex_);
  const std::int64_t seq = ++tx_seq_;
  check_crash_locked("tx", seq);
  return fault_step_locked(/*tx=*/true, seq, size);
}

void FaultyChannel::forward(const Fate& fate, std::string bytes) {
  if (fate.lost) return;
  fate.corrupt(bytes);
  // Outside the lock: inner sleep() may advance a virtual clock (the
  // engine's lock) and inner send may block.
  if (fate.delay_s > 0.0) inner_->sleep(fate.delay_s);
  if (fate.duplicate) inner_->send(bytes);
  inner_->send(std::move(bytes));
}

void FaultyChannel::send(std::string bytes) {
  const Fate fate = tx_step(bytes.size());
  forward(fate, std::move(bytes));
}

std::optional<std::string> FaultyChannel::pending_rx() {
  MutexLock lock(mutex_);
  check_crash_locked("rx", rx_seq_ + 1);
  if (pending_rx_.empty()) return std::nullopt;
  std::string bytes = std::move(pending_rx_.front());
  pending_rx_.pop_front();
  return bytes;
}

bool FaultyChannel::admit_rx(std::string& bytes) {
  MutexLock lock(mutex_);
  const Fate fate = fault_step_locked(/*tx=*/false, ++rx_seq_, bytes.size());
  if (fate.lost) return false;
  fate.corrupt(bytes);
  // A duplicate is replayed before the next inner read, so it reports
  // this timing too.
  last_timing_ = inner_->last_recv_timing();
  if (fate.duplicate) pending_rx_.push_back(bytes);
  return true;
}

std::string FaultyChannel::recv() {
  for (;;) {
    if (auto bytes = pending_rx()) return std::move(*bytes);
    std::string bytes = inner_->recv();
    if (admit_rx(bytes)) return bytes;
  }
}

std::optional<std::string> FaultyChannel::recv_timeout(double seconds) {
  // One budget across retries, measured on the inner channel's clock: a
  // dropped message must not reset the caller's deadline.
  const double budget = seconds > 0.0 ? seconds : 0.0;
  const double start = now();
  for (;;) {
    if (auto bytes = pending_rx()) return bytes;
    const double remaining = budget - (now() - start);
    auto bytes = inner_->recv_timeout(remaining > 0.0 ? remaining : 0.0);
    if (!bytes) return std::nullopt;
    if (admit_rx(*bytes)) return bytes;
  }
}

void FaultyChannel::close() { inner_->close(); }

void FaultyChannel::set_partition(bool send_lost, bool recv_lost) {
  MutexLock lock(mutex_);
  partition_send_ = send_lost;
  partition_recv_ = recv_lost;
  log_ += "ctl partition send=";
  log_ += send_lost ? '1' : '0';
  log_ += " recv=";
  log_ += recv_lost ? '1' : '0';
  log_ += '\n';
}

std::string FaultyChannel::fault_schedule() const {
  MutexLock lock(mutex_);
  return log_;
}

std::int64_t FaultyChannel::faults_injected() const {
  MutexLock lock(mutex_);
  return faults_;
}

ChannelPtr make_faulty_channel(ChannelPtr inner, FaultProfile profile) {
  return std::make_unique<FaultyChannel>(std::move(inner), profile);
}

namespace {

/// with_faults' group send. Its member buffers live across frames, as
/// MasterCore's group_/members_ do, and only a member whose fate needs
/// bytes of its own (a delay, a corruption, a duplicate) copies the frame.
class FaultyGroupSend {
 public:
  explicit FaultyGroupSend(GroupSend inner) : inner_(std::move(inner)) {}

  // analyze:hot  (per-query path: hot-path allocation audit root)
  std::vector<std::size_t> operator()(std::span<Channel* const> channels,
                                      std::string frame) {
    const std::size_t n = channels.size();
    if (members_.size() < n) members_.resize(n);
    legs_.clear();
    shared_.clear();
    // Every member's fate first, in order: each link draws what its
    // unicast would, whatever the other members drew.
    for (std::size_t i = 0; i < n; ++i) {
      Member& m = members_[i];
      m.link = dynamic_cast<FaultyChannel*>(channels[i]);
      TEAMNET_CHECK_MSG(m.link != nullptr,
                        "with_faults takes FaultyChannel members only");
      m.closed = false;
      try {
        m.fate = m.link->tx_step(frame.size());
      } catch (const NetworkError&) {
        m.closed = true;  // past its crash point
        continue;
      }
      if (m.fate.lost) continue;
      const bool own = m.fate.delay_s > 0.0 || m.fate.corrupt_mask != 0;
      if (own || m.fate.duplicate) m.bytes.assign(frame);
      if (!own) {
        legs_.push_back(&m.link->inner());
        shared_.push_back(i);
      }
    }
    if (!legs_.empty()) {
      for (std::size_t pos : inner_(std::span(legs_), std::move(frame))) {
        members_[shared_[pos]].closed = true;
      }
    }
    // Then each member's own unicasts, behind the group frame.
    std::vector<std::size_t> closed;
    for (std::size_t i = 0; i < n; ++i) {
      Member& m = members_[i];
      if (!m.closed) {
        try {
          if (m.fate.delay_s > 0.0 || m.fate.corrupt_mask != 0) {
            m.link->forward(m.fate, std::move(m.bytes));
          } else if (m.fate.duplicate) {  // a lost frame draws no copy
            m.link->inner().send(std::move(m.bytes));
          }
        } catch (const NetworkError&) {
          m.closed = true;
        }
      }
      if (m.closed) closed.push_back(i);
    }
    return closed;
  }

 private:
  struct Member {
    FaultyChannel* link = nullptr;
    FaultyChannel::Fate fate;
    std::string bytes;  ///< the member's copy of the frame, when it needs one
    bool closed = false;
  };

  GroupSend inner_;
  std::vector<Member> members_;
  std::vector<Channel*> legs_;       ///< the shared frame's inner legs
  std::vector<std::size_t> shared_;  ///< their positions among the members
};

}  // namespace

GroupSend with_faults(GroupSend inner) {
  TEAMNET_CHECK(inner != nullptr);
  return FaultyGroupSend(std::move(inner));
}

}  // namespace teamnet::net
