// Channel implementation backed by the discrete-event engine.
//
// DesChannel is how every simulated node talks: the same blocking Channel
// interface the protocol code runs over in-process and over TCP, but every
// send schedules a delivery event in the engine and every recv parks the
// node thread until the engine hands the message over in virtual-time
// order. The engine knows the sender's clock, so nothing is stamped into
// the payload: decorators that inspect or mutate bytes (FaultyChannel
// corruption, fuzzed decoders) see the pure payload, and the byte counters
// count payload bytes only. Its clock is its node's: now() reads the
// node's virtual time and sleep() advances it, so protocol objects and
// decorators that read their channel's clock run on virtual time with no
// clock wired in.
//
// Composable under make_faulty_channel; the chaos and resilience scenarios
// wrap mesh legs in a FaultyChannel.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "sim/des/engine.hpp"

namespace teamnet::sim::des {

class DesChannel final : public net::Channel {
 public:
  /// Endpoint at node `self`: reads from `in` (messages addressed to self),
  /// writes into `out` (the peer's inbox) over `link`. `engine` must
  /// outlive the channel.
  DesChannel(Engine& engine, int self, std::shared_ptr<Mailbox> in,
             std::shared_ptr<Mailbox> out, net::LinkProfile link);

  void send(std::string bytes) override;
  std::string recv() override;
  std::optional<std::string> recv_timeout(double seconds) override;
  /// Closes both directions (InProc close semantics): queued and in-flight
  /// messages still drain, then readers on either end get NetworkError.
  void close() override;
  std::optional<net::WireTiming> last_recv_timing() const override {
    return last_timing_;
  }
  double now() const override { return engine_.node_time(self_); }
  void sleep(double seconds) override { engine_.advance(self_, seconds); }

 private:
  friend class DesGroup;

  /// Checks, in place, that `channels` are DesChannel endpoints of one
  /// node on one engine (what DesGroup's calls take), and returns the
  /// first; leg() then reads each one without a cast check.
  static DesChannel& check_legs(std::span<net::Channel* const> channels,
                                const char* what);
  static DesChannel& leg(net::Channel* c) {
    return static_cast<DesChannel&>(*c);
  }
  /// Books a frame this channel sent on the wire counters.
  void note_sent(std::int64_t payload);
  /// The three reads' one helper: books a frame this channel read (its
  /// timing and the wire counters).
  void note_received(const net::WireTiming& timing, std::size_t payload);

  Engine& engine_;
  const int self_;
  std::shared_ptr<Mailbox> in_;
  std::shared_ptr<Mailbox> out_;
  const net::LinkProfile link_;
  const std::string tx_label_;
  const std::string rx_label_;
  std::atomic<std::int64_t> tx_bytes_{0};
  std::atomic<std::int64_t> rx_bytes_{0};
  std::optional<net::WireTiming> last_timing_;  ///< receiving thread only
};

/// One node's DES legs to a fixed set of peers (a fleet master's worker
/// channels), for the engine's group calls. The mailbox lists those calls
/// take are built with the group and reused by every read and every
/// frame. A DesGroup is a net::GroupSend; a copy keeps its own lists.
class DesGroup {
 public:
  /// `legs`: DesChannel endpoints of one node on one engine.
  explicit DesGroup(std::span<net::Channel* const> legs);

  /// Engine::recv_any over every leg: the earliest frame landing by
  /// `until` and the position of the leg it came in on, or nullopt at the
  /// wake-up.
  std::optional<std::pair<std::size_t, std::string>> recv_any(double until);

  /// Engine::send of one group frame over `members`: DES legs of the
  /// group's node, at most as many as the group has. The frame is on the
  /// air once, at the first member's LinkProfile (a mesh shares one), and
  /// lands at every peer at the same instant. Returns the positions in
  /// `members` whose peer inbox was closed; the frame reached every other
  /// one.
  std::vector<std::size_t> operator()(std::span<net::Channel* const> members,
                                      std::string bytes);

 private:
  std::vector<DesChannel*> legs_;
  std::vector<Mailbox*> inboxes_;  ///< legs_' inboxes, in order
  /// The current frame's peer inboxes, overwritten in place per frame.
  std::vector<std::shared_ptr<Mailbox>> outboxes_;
};

/// Connected DES channel pair between nodes `a` and `b`.
std::pair<net::ChannelPtr, net::ChannelPtr> make_des_pair(
    Engine& engine, int a, int b, const net::LinkProfile& link);

/// Fully connected DES mesh of `n` nodes: mesh[i][j] is node i's channel
/// to node j (nullptr on the diagonal). `engine` must have at least `n`
/// nodes and outlive the mesh.
std::vector<std::vector<net::ChannelPtr>> make_des_mesh(
    Engine& engine, int n, const net::LinkProfile& link);

}  // namespace teamnet::sim::des
