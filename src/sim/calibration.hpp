// Calibration constants for the edge simulation.
//
// The paper's testbed used raw TCP sockets for TeamNet, gRPC or OpenMPI for
// SG-MoE, and OpenMPI for the partitioned baselines. Those stacks differ in
// per-message cost (marshalling, rendezvous, progress-engine latency), which
// is what separates SG-MoE-G from SG-MoE-M in Tables I-II. The constants
// below are effective per-message overheads chosen to reproduce the paper's
// ordering (sockets < gRPC < MPI) at WiFi scale; bandwidth and base latency
// come from net::wifi_link().
#pragma once

#include "net/link.hpp"

namespace teamnet::sim {

/// Raw TCP sockets (TeamNet's transport).
constexpr double kSocketOverheadS = 0.0002;
/// gRPC: protobuf marshalling + HTTP/2 framing per call.
constexpr double kGrpcOverheadS = 0.0012;
/// OpenMPI over TCP: rendezvous + progress-engine polling per message.
constexpr double kMpiOverheadS = 0.0025;

inline net::LinkProfile wifi_with_overhead(double per_message_s) {
  net::LinkProfile link = net::wifi_link();
  link.per_message_overhead_s = per_message_s;
  return link;
}

inline net::LinkProfile socket_link() { return wifi_with_overhead(kSocketOverheadS); }
inline net::LinkProfile grpc_link() { return wifi_with_overhead(kGrpcOverheadS); }
inline net::LinkProfile mpi_link() { return wifi_with_overhead(kMpiOverheadS); }

}  // namespace teamnet::sim
