// Channel abstraction: blocking, bidirectional, message-oriented byte pipes.
//
// Three implementations share one interface so the collaborative protocol
// and the MPI-style runtime run unchanged over:
//   * InProc      — lock-free-enough in-process queues (tests, examples)
//   * TCP         — real sockets (examples; see tcp.hpp)
//   * DES         — discrete-event channels whose sends and receives run on
//                   the simulator's virtual clock (benches; see
//                   sim/des/des_channel.hpp)
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>

namespace teamnet::net {

/// Where the last received frame spent its time on a modeled link: the
/// instant it went on the air (after any wait for the shared medium) and
/// the instant it landed in the receiver's inbox. Only transports with a
/// virtual link model (the DES channel) report one.
struct WireTiming {
  double on_air = 0.0;
  double landed = 0.0;
};

class Channel {
 public:
  virtual ~Channel() = default;
  /// Enqueues one message (blocking implementations may block on flow
  /// control; in-proc never blocks).
  virtual void send(std::string bytes) = 0;
  /// Blocks until a message is available and returns it.
  virtual std::string recv() = 0;
  /// Like recv but gives up after `seconds`, returning nullopt;
  /// `seconds <= 0` is a non-blocking poll. InProc and TCP wait real
  /// seconds; a DES channel spends the budget in virtual time. The
  /// fault-tolerant master uses this to survive dead or wedged workers.
  virtual std::optional<std::string> recv_timeout(double seconds) = 0;
  /// Shuts the channel down: subsequent (and currently blocked) recv calls
  /// fail with NetworkError once drained. Error-recovery paths use this to
  /// unblock peer threads instead of leaking them. Default: no-op.
  virtual void close() {}
  /// WireTiming of the frame the last recv/recv_timeout returned; nullopt
  /// on transports without a link model (and before any receive).
  virtual std::optional<WireTiming> last_recv_timing() const {
    return std::nullopt;
  }
};

using ChannelPtr = std::unique_ptr<Channel>;

/// Creates a connected in-process channel pair: bytes sent on `first` are
/// received on `second` and vice versa.
std::pair<ChannelPtr, ChannelPtr> make_inproc_pair();

}  // namespace teamnet::net
