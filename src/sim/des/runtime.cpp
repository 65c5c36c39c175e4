#include "sim/des/runtime.hpp"

#include <utility>

#include "sim/des/des_channel.hpp"

namespace teamnet::sim {

SimNet::SimNet(int num_nodes, const net::LinkProfile& link,
               const SimNetOptions& options)
    : engine_(num_nodes,
              des::make_grant_policy(options.grant_policy,
                                     options.schedule_seed, num_nodes,
                                     options.schedule_slack_s)),
      mesh_(des::make_des_mesh(engine_, num_nodes, link)) {}

net::ChannelPtr& SimNet::slot(int from, int to) {
  const int n = static_cast<int>(mesh_.size());
  TEAMNET_CHECK_MSG(from >= 0 && from < n && to >= 0 && to < n && from != to,
                    "mesh leg out of range");
  return mesh_[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)];
}

net::Channel& SimNet::channel(int from, int to) {
  net::ChannelPtr& leg = slot(from, to);
  TEAMNET_CHECK_MSG(leg != nullptr, "channel leg already taken");
  return *leg;
}

net::ChannelPtr SimNet::take_channel(int from, int to) {
  return std::move(slot(from, to));
}

void SimNet::close_all() {
  for (auto& row : mesh_) {
    for (auto& chan : row) {
      if (chan) chan->close();
    }
  }
}

std::uint64_t SimNet::finish() {
  TEAMNET_CHECK_MSG(engine_.unretired_nodes() == 0,
                    engine_.unretired_nodes()
                        << " node(s) never retired — a worker exited "
                           "without declaring its protocol role done");
  return engine_.schedule_digest();
}

}  // namespace teamnet::sim
