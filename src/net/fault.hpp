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
// the sending node over DES. So is a received frame's WireTiming: a
// replayed duplicate reports its original's.
//
// A send is the tx fault step (tx_step: crash check, then partition, drop,
// delay, corruption and duplication draws) plus the forward past the
// injector. with_faults runs that same step per member of a group frame
// (DESIGN.md §9): each receiver rolls its own faults, drawing exactly the
// random numbers its unicast would, and the clean members share one frame.
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

  /// What the fault step decided for one frame.
  struct Fate {
    bool lost = false;       ///< partitioned or dropped
    double delay_s = 0.0;    ///< hold before sending (tx only)
    std::size_t corrupt_pos = 0;  ///< the byte corrupt_mask flips
    unsigned corrupt_mask = 0;    ///< nonzero = corrupted
    bool duplicate = false;  ///< deliver twice

    void corrupt(std::string& b) const {  ///< applies the corruption, if any
      if (corrupt_mask != 0) b[corrupt_pos] ^= static_cast<char>(corrupt_mask);
    }
  };

  /// tx_step, then forward.
  void send(std::string bytes) override;
  std::string recv() override;
  std::optional<std::string> recv_timeout(double seconds) override;
  void close() override;
  /// The inner channel's timing of the frame the last recv returned; a
  /// replayed duplicate reports its original's.
  std::optional<WireTiming> last_recv_timing() const override {
    return last_timing_;
  }
  double now() const override { return inner_->now(); }
  void sleep(double seconds) override { inner_->sleep(seconds); }

  /// The tx fault step: counts one outbound frame of `size` bytes through
  /// the endpoint and decides its fate without touching or sending it — a
  /// corruption is reported, not applied. Throws NetworkError at the crash
  /// point. Every send's fault decisions come from here.
  Fate tx_step(std::size_t size);
  /// The rest of a send: unless `fate` lost the frame, applies its
  /// corruption, holds the sender for its delay and puts `bytes` on the
  /// inner channel, twice for a duplicate.
  void forward(const Fate& fate, std::string bytes);

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
  /// Bypasses the fault schedule AND the crash state — traffic under test
  /// reaches it only after tx_step decided its fate (with_faults).
  Channel& inner() { return *inner_; }

 private:
  /// Throws NetworkError when the injected crash point has been reached;
  /// otherwise counts one more message through the endpoint.
  void check_crash_locked(const char* dir, std::int64_t seq)
      TN_REQUIRES(mutex_);
  void record_locked(const char* dir, std::int64_t seq, const std::string& what)
      TN_REQUIRES(mutex_);

  /// The one fault step, tx and rx alike: counts frame `seq` (`size`
  /// bytes) through the endpoint, then draws partition, drop, delay (tx
  /// only), corruption and duplication, in that order.
  Fate fault_step_locked(bool tx, std::int64_t seq, std::size_t size)
      TN_REQUIRES(mutex_);
  /// Receive side, before reading the inner channel: throws at the crash
  /// point, else pops the duplicate the last received frame left, if any.
  std::optional<std::string> pending_rx();
  /// Receive side, after the inner channel delivered `bytes`: the rx fault
  /// step. Returns false when the frame is lost; otherwise keeps the inner
  /// channel's timing of it and queues a duplicate.
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
  std::optional<WireTiming> last_timing_;  ///< receiving thread only
};

/// Convenience factory for callers that only need the Channel interface.
ChannelPtr make_faulty_channel(ChannelPtr inner, FaultProfile profile);

/// A group send over fault-wrapped links: every channel handed to the
/// result must be a FaultyChannel. Runs each member's tx_step in order —
/// the draws its unicast would make — then routes it:
///   * members with a clean fate share ONE `inner` group frame over their
///     inner() legs; a duplicated one also gets one unicast copy;
///   * a member that drew a delay or a corruption gets its own unicast
///     (its frame differs in time or bytes), via FaultyChannel::forward;
///   * a lost member is still asked (the sender cannot know), and a member
///     past its crash point, or whose leg is closed, comes back as closed.
/// When every member is lost, nothing goes on the air.
GroupSend with_faults(GroupSend inner);

}  // namespace teamnet::net
