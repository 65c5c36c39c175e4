// Deterministic fault injection for any Channel.
//
// FaultyChannel decorates a Channel (InProc, TCP and DES alike) with a
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
// channel already delivered — and, for DES channels, already charged — the
// message before it is discarded or corrupted here).
//
// Time is the inner channel's: now() and sleep() forward to it, recv
// budgets are measured on inner now(), and a delay fault holds the sender
// with inner sleep() — a real sleep over TCP, a virtual-clock advance of
// the sending node over DES.
#pragma once

#include <cstdint>
#include <deque>
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

class FaultyChannel final : public Channel {
 public:
  /// Takes ownership of `inner`.
  FaultyChannel(ChannelPtr inner, FaultProfile profile);

  void send(std::string bytes) override;
  std::string recv() override;
  std::optional<std::string> recv_timeout(double seconds) override;
  void close() override;
  double now() const override { return inner_->now(); }
  void sleep(double seconds) override { inner_->sleep(seconds); }

  /// Runtime partition control for crash/heal patterns: `send_lost` drops
  /// every outbound message, `recv_lost` every inbound one.
  void set_partition(bool send_lost, bool recv_lost);

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

  /// What the fault step decided for one frame.
  struct Fate {
    bool lost = false;       ///< partitioned or dropped
    double delay_s = 0.0;    ///< hold before sending (tx only)
    bool duplicate = false;  ///< deliver twice
  };
  /// The one fault step, tx and rx alike: counts frame `seq` through the
  /// endpoint, then draws partition, drop, delay (tx only), corruption
  /// (applied to `bytes` in place) and duplication, in that order.
  Fate fault_step_locked(bool tx, std::int64_t seq, std::string& bytes)
      TN_REQUIRES(mutex_);
  /// Receive side, before reading the inner channel: throws at the crash
  /// point, else pops the duplicate the last received frame left, if any.
  std::optional<std::string> pending_rx();
  /// Receive side, after the inner channel delivered `bytes`: the rx fault
  /// step. Returns false when the frame is lost; queues a duplicate.
  bool admit_rx(std::string& bytes);

  ChannelPtr inner_;
  const FaultProfile profile_;

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
ChannelPtr make_faulty_channel(ChannelPtr inner, FaultProfile profile);

}  // namespace teamnet::net
