// Channel abstraction: blocking, bidirectional, message-oriented byte pipes.
//
// Three implementations share one interface so the collaborative protocol
// and the MPI-style runtime run unchanged over:
//   * InProc      — lock-free-enough in-process queues (tests, examples)
//   * TCP         — real sockets (examples; see tcp.hpp)
//   * DES         — discrete-event channels whose sends and receives run on
//                   the simulator's virtual clock (benches; see
//                   sim/des/des_channel.hpp)
//
// A channel also answers "what time is it at this endpoint": now() and
// sleep() read and spend the clock of the node that holds it — the steady
// clock over InProc and TCP, the node's virtual clock over DES. Protocol
// objects read the channel they already hold, so no clock is wired in by
// hand and the same code keeps real and virtual deadlines. A decorator
// forwards both to the channel it wraps (FaultyChannel does); one that
// does not reads the steady clock even over DES.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>

namespace teamnet::net {

/// Seconds since an arbitrary epoch on the steady (monotonic) clock.
double steady_seconds();

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
  /// The clock of the node holding this endpoint, in seconds (monotone
  /// non-decreasing): steady_seconds() by default, the node's virtual
  /// clock on a DES channel.
  virtual double now() const { return steady_seconds(); }
  /// Holds the calling node for `seconds` on that clock: a real sleep by
  /// default, a virtual-clock advance on a DES channel.
  virtual void sleep(double seconds);
};

using ChannelPtr = std::unique_ptr<Channel>;

/// Creates a connected in-process channel pair: bytes sent on `first` are
/// received on `second` and vice versa.
std::pair<ChannelPtr, ChannelPtr> make_inproc_pair();

}  // namespace teamnet::net
