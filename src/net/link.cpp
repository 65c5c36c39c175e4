#include "net/link.hpp"

namespace teamnet::net {

LinkProfile wifi_link() {
  // Effective single-hop WiFi figures between two edge boards on the same
  // AP: ~0.6 ms one-way latency, ~40 Mbit/s goodput.
  return LinkProfile{0.0006, 40e6, 0.0};
}

}  // namespace teamnet::net
