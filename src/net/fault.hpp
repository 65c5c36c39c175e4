// Deterministic fault injection for any Channel.
//
// FaultyChannel decorates a Channel (InProc, TCP and Sim alike) with a
// seeded fault schedule: per-message drop, bounded extra delay, single-byte
// corruption, duplication, crash-after-N-messages, and a one-way partition
// that can also be toggled at runtime (crash/heal patterns). Every decision
// is drawn from one Rng owned by the wrapper, so a FaultProfile seed
// reproduces the exact same fault schedule run after run — the chaos
// scenario and the chaos tests assert on the recorded schedule byte for
// byte.
//
// Faults are injected at this endpoint only: send-side faults model losses
// between the caller and the wire (a dropped send never reaches the inner
// channel), recv-side faults model losses at the receiver (the inner
// channel already delivered — and, for Sim channels, already charged — the
// message before it is discarded or corrupted here).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "common/annotations.hpp"
#include "common/rng.hpp"
#include "net/transport.hpp"

namespace teamnet::net {

/// One endpoint's fault model. Probabilities are per message and
/// independent; everything is driven by `seed`, so two channels built from
/// the same profile inject byte-identical fault schedules.
struct FaultProfile {
  std::uint64_t seed = 0;

  double drop_prob = 0.0;       ///< message silently lost (either direction)
  double delay_prob = 0.0;      ///< outbound message held back before sending
  double delay_min_s = 0.0;     ///< inclusive lower bound of the extra delay
  double delay_max_s = 0.0;     ///< exclusive upper bound of the extra delay
  double corrupt_prob = 0.0;    ///< one byte flipped (either direction)
  double duplicate_prob = 0.0;  ///< message delivered twice (either direction)

  /// Channel dies (NetworkError on every later call) after this many
  /// messages have passed through the endpoint, send and recv combined.
  /// Negative = never crashes.
  std::int64_t crash_after_messages = -1;

  bool partition_send = false;  ///< one-way partition: all sends blackholed
  bool partition_recv = false;  ///< one-way partition: all receipts blackholed
};

/// Called with the drawn delay when a message is held back. The chaos
/// simulation advances the sender's virtual clock here; the default (empty)
/// hook sleeps for real (the right model when wrapping TCP channels).
using DelayFn = std::function<void(double seconds)>;

class FaultyChannel final : public Channel {
 public:
  /// Takes ownership of `inner`. `delay` is invoked for delay faults; when
  /// empty, the thread sleeps for the drawn duration instead.
  FaultyChannel(ChannelPtr inner, FaultProfile profile, DelayFn delay = {});

  void send(std::string bytes) override;
  std::string recv() override;
  std::optional<std::string> recv_timeout(double seconds) override;
  void close() override;

  /// Runtime partition control for crash/heal patterns: `send_lost` drops
  /// every outbound message, `recv_lost` every inbound one.
  void set_partition(bool send_lost, bool recv_lost);

  /// Replaces the clock recv_timeout budgets are measured against (seconds,
  /// monotone non-decreasing). Defaults to the real steady clock — right
  /// when wrapping TCP or in-process channels, whose deadlines elapse in
  /// real time. The simulator injects virtual time here instead: a DES
  /// channel's timeouts consume virtual seconds, and measuring the
  /// remaining budget on the real clock would feed scheduling noise back
  /// into the retry sequence. Configure before any traffic flows, like the
  /// DelayFn.
  void set_time_source(std::function<double()> now);

  /// The recorded fault schedule so far, one `tx#N <fault>` / `rx#N <fault>`
  /// line per injected fault. Byte-identical across runs for the same seed
  /// and the same message sequence.
  std::string fault_schedule() const;

  /// Total faults injected so far (telemetry).
  std::int64_t faults_injected() const;

  /// The undecorated channel: a fault-free control path past the injector.
  /// The chaos scenario uses it to quiesce workers (Ping over the inner
  /// channel, wait for the Pong) before tearing down, so trailing
  /// fault-induced traffic is fully counted instead of racing close().
  /// Bypasses the fault schedule AND the crash state — never use it for
  /// traffic that is supposed to be under test.
  Channel& inner() { return *inner_; }

 private:
  /// Throws NetworkError when the injected crash point has been reached;
  /// otherwise counts one more message through the endpoint.
  void check_crash_locked(const char* dir, std::int64_t seq)
      TN_REQUIRES(mutex_);
  void record_locked(const char* dir, std::int64_t seq, const std::string& what)
      TN_REQUIRES(mutex_);
  /// Applies recv-side faults to `bytes` in place. Returns false when the
  /// message is dropped (partition or drop fault).
  bool apply_rx_locked(std::string& bytes) TN_REQUIRES(mutex_);

  ChannelPtr inner_;
  const FaultProfile profile_;
  DelayFn delay_;
  std::function<double()> now_;  ///< timeout clock; see set_time_source

  mutable Mutex mutex_;
  Rng rng_ TN_GUARDED_BY(mutex_);
  std::string log_ TN_GUARDED_BY(mutex_);
  std::int64_t faults_ TN_GUARDED_BY(mutex_) = 0;
  std::int64_t tx_seq_ TN_GUARDED_BY(mutex_) = 0;
  std::int64_t rx_seq_ TN_GUARDED_BY(mutex_) = 0;
  std::int64_t messages_seen_ TN_GUARDED_BY(mutex_) = 0;
  bool crashed_ TN_GUARDED_BY(mutex_) = false;
  bool partition_send_ TN_GUARDED_BY(mutex_);
  bool partition_recv_ TN_GUARDED_BY(mutex_);
  /// Duplicate of the last received message, replayed on the next recv.
  std::deque<std::string> pending_rx_ TN_GUARDED_BY(mutex_);
};

/// Convenience factory for callers that only need the Channel interface.
ChannelPtr make_faulty_channel(ChannelPtr inner, FaultProfile profile,
                               DelayFn delay = {});

}  // namespace teamnet::net
