// The simulated mesh the scenario drivers run on.
//
// SimNet is the one seam the drivers talk to: a fully connected mesh of
// DES channels over one discrete-event engine (Engine + make_des_mesh),
// plus the clock/traffic surface. The protocol code underneath is the same
// that runs in-process and over TCP; the engine decides message timing and
// thread admission, so virtual time is bit-stable for a given seed.
#pragma once

#include <cstdint>
#include <vector>

#include "net/link.hpp"
#include "net/transport.hpp"
#include "sim/des/engine.hpp"
#include "sim/des/grant_policy.hpp"

namespace teamnet::sim {

/// Schedule-perturbation knobs for the engine. The default (canonical,
/// seed 0) reproduces the canonical schedule byte for byte.
struct SimNetOptions {
  des::GrantPolicyKind grant_policy = des::GrantPolicyKind::canonical;
  std::uint64_t schedule_seed = 0;
  /// Eligibility window for the perturbing policies (virtual seconds; see
  /// des::GrantPolicy::slack). Ignored by canonical, so the default
  /// byte-identity guarantee is unaffected.
  double schedule_slack_s = 0.0;
};

/// A simulated mesh of `num_nodes` nodes on one des::Engine. Channels hold
/// a reference to the engine, so a SimNet never moves.
class SimNet {
 public:
  SimNet(int num_nodes, const net::LinkProfile& link,
         const SimNetOptions& options = {});
  SimNet(const SimNet&) = delete;
  SimNet& operator=(const SimNet&) = delete;

  int num_nodes() const { return engine_.num_nodes(); }

  /// Node `from`'s channel to node `to`. Invalid after take_channel.
  net::Channel& channel(int from, int to);
  /// Transfers ownership of the (from, to) leg, e.g. to wrap it in a
  /// FaultyChannel. The slot becomes empty; close_all skips it.
  net::ChannelPtr take_channel(int from, int to);

  double node_time(int node) const { return engine_.node_time(node); }
  /// Charges `seconds` of local compute to `node`'s virtual clock.
  void advance(int node, double seconds) { engine_.advance(node, seconds); }
  std::int64_t bytes_delivered() const { return engine_.bytes_delivered(); }
  std::int64_t messages_delivered() const {
    return engine_.messages_delivered();
  }
  /// Payload bytes put on the medium (a group frame counts once).
  std::int64_t air_bytes() const { return engine_.air_bytes(); }

  /// Declares `node` done with virtual time (see Engine::retire). Every
  /// driver must retire a node when its protocol role ends — workers when
  /// the serve loop exits, the master after shutdown and before any join —
  /// or pending deliveries stall behind the idle node's clock.
  void retire(int node) { engine_.retire(node); }

  /// Closes every channel leg still owned by the mesh (error teardown).
  void close_all();

  /// End-of-run check + fingerprint, called by drivers after every node
  /// thread joined: verifies every node retired (a protocol invariant — an
  /// unretired node means a worker exited without declaring itself done)
  /// and returns the engine's schedule digest.
  std::uint64_t finish();

 private:
  net::ChannelPtr& slot(int from, int to);

  des::Engine engine_;
  std::vector<std::vector<net::ChannelPtr>> mesh_;
};

}  // namespace teamnet::sim
