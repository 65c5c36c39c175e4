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

  /// Engine::recv_any over `channels` — DesChannel endpoints of one node
  /// on one engine: the earliest frame landing by `until` and the index of
  /// the channel it came in on, or nullopt at the wake-up.
  static std::optional<std::pair<std::size_t, std::string>> recv_any(
      std::span<net::Channel* const> channels, double until);

 private:
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

/// Connected DES channel pair between nodes `a` and `b`.
std::pair<net::ChannelPtr, net::ChannelPtr> make_des_pair(
    Engine& engine, int a, int b, const net::LinkProfile& link);

/// Fully connected DES mesh of `n` nodes: mesh[i][j] is node i's channel
/// to node j (nullptr on the diagonal). `engine` must have at least `n`
/// nodes and outlive the mesh.
std::vector<std::vector<net::ChannelPtr>> make_des_mesh(
    Engine& engine, int n, const net::LinkProfile& link);

}  // namespace teamnet::sim::des
