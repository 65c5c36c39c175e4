// Link timing model for the simulated edge network.
//
// A LinkProfile describes one hop between edge boards (e.g. WiFi on a
// shared AP). The discrete-event engine (sim/des/engine.hpp) is the only
// clock that consumes it: each send occupies the shared half-duplex medium
// for airtime(bytes) and arrives one propagation latency after leaving it.
#pragma once

#include <cstdint>

#include "common/error.hpp"

namespace teamnet::net {

/// A point-to-point link's timing model (e.g. WiFi between edge boards).
struct LinkProfile {
  double latency_s = 0.0;        ///< fixed per-message cost (propagation + stack)
  double bandwidth_bps = 0.0;    ///< bits per second; 0 means infinite
  double per_message_overhead_s = 0.0;  ///< protocol cost (RPC marshalling etc.)

  /// Seconds to deliver `bytes` over this link on an idle medium.
  double transfer_time(std::int64_t bytes) const {
    TEAMNET_CHECK(bytes >= 0);
    double t = latency_s + per_message_overhead_s;
    if (bandwidth_bps > 0.0) {
      t += static_cast<double>(bytes) * 8.0 / bandwidth_bps;
    }
    return t;
  }

  /// Seconds `bytes` occupy the shared medium: overhead + serialization,
  /// everything but propagation latency. Taken as transfer_time minus the
  /// latency (not summed directly) because that rounding is what every
  /// frozen virtual timestamp and schedule digest was produced with.
  double airtime(std::int64_t bytes) const {
    return transfer_time(bytes) - latency_s;
  }
};

/// Canonical WiFi link between edge devices (calibrated in sim/calibration).
LinkProfile wifi_link();

}  // namespace teamnet::net
