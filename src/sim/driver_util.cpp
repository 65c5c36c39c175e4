#include "sim/driver_util.hpp"

#include <string>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace teamnet::sim {

namespace {

/// Wraps the master's sim link to each node 1..num_nodes-1 in a
/// FaultyChannel. One base seed forks into per-node streams (node index =
/// fork key), so the whole fleet's fault schedule reproduces from
/// `faults.seed` and a node keeps its stream whatever other links exist.
/// Each link reads its DES leg's clock, so delay faults advance the
/// master's virtual clock and recv budgets burn virtual time.
std::vector<std::unique_ptr<net::FaultyChannel>> wrap_faulty_links(
    SimNet& net, int num_nodes, const net::FaultProfile& faults) {
  Rng seeder(faults.seed);
  std::vector<std::unique_ptr<net::FaultyChannel>> links;
  for (int node = 1; node < num_nodes; ++node) {
    net::FaultProfile profile = faults;
    profile.seed = seeder.fork(static_cast<std::uint64_t>(node)).engine()();
    links.push_back(std::make_unique<net::FaultyChannel>(
        net.take_channel(0, node), profile));
  }
  return links;
}

/// Quiesce before teardown: a duplicated Infer or hedge on the last query
/// leaves a reply in flight on a worker thread, and shutdown()'s close
/// would race with that send — making the traffic totals
/// nondeterministic. A Ping over each link's fault-free inner() path is
/// answered only after the worker has processed (and sent the replies
/// for) everything queued before it, so once the Pong is back, that
/// worker's deliveries are final. The sentinel id never collides with the
/// master's probe ids.
void quiesce_links(
    const std::vector<std::unique_ptr<net::FaultyChannel>>& links) {
  for (const auto& link : links) {
    try {
      net::Message quiesce;
      quiesce.type = net::MsgType::Ping;
      quiesce.ints = {-1};
      link->inner().send(quiesce.encode());
      while (auto raw = link->inner().recv_timeout(1.0)) {
        net::Message msg = net::Message::decode(*raw);
        if (msg.type == net::MsgType::Pong && !msg.ints.empty() &&
            msg.ints[0] == -1) {
          break;
        }
      }
    } catch (const Error& e) {
      LOG_DEBUG("quiesce skipped a worker: " << e.what());
    }
  }
}

}  // namespace

std::unique_ptr<SimNet> make_driver_net(const ScenarioConfig& config,
                                        int num_nodes, int num_queries) {
  TEAMNET_CHECK_MSG(num_queries >= 1,
                    "num_queries must be >= 1, got " << num_queries);
  SimNetOptions opts;
  opts.grant_policy = config.grant_policy;
  opts.schedule_seed = config.schedule_seed;
  opts.schedule_slack_s = config.schedule_slack_s;
  return std::make_unique<SimNet>(num_nodes, config.link, opts);
}

std::thread spawn_sim_worker(SimNet& net, int node,
                             std::function<void()> body) {
  return std::thread([&net, node, body = std::move(body)] {
    // Trace time-source rule: inside the simulator every thread stamps
    // events with its node's virtual time, so traces are in virtual time
    // end to end (and byte-stable).
    obs::TraceTrack track(
        node, [&net, node] { return net.node_time(node); },
        "node" + std::to_string(node));
    try {
      body();
    } catch (const Error& e) {
      LOG_WARN("scenario worker thread exiting on error: " << e.what());
    }
    net.retire(node);
  });
}

net::ComputeHook make_compute_hook(SimNet& net, int node,
                                   const DeviceProfile& device,
                                   std::atomic<double>* compute_total) {
  return [&net, node, &device, compute_total](std::int64_t flops) {
    const double seconds = device.compute_time(flops);
    net.advance(node, seconds);
    if (compute_total != nullptr) {
      double expected = compute_total->load();
      while (!compute_total->compare_exchange_weak(expected,
                                                   expected + seconds)) {
      }
    }
  };
}

std::vector<int> sample_query_rows(const data::Dataset& test, int n,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> rows(static_cast<std::size_t>(n));
  for (auto& r : rows) r = rng.randint(0, static_cast<int>(test.size()) - 1);
  return rows;
}

Tensor query_row_tensor(const data::Dataset& test, int row) {
  return ops::take_rows(test.images, {row});
}

Fleet::Fleet(const std::string& epoch, const ScenarioConfig& config,
             FleetSpec spec)
    : num_queries_(spec.num_queries),
      devices_(std::move(spec.devices)),
      multicast_(spec.multicast) {
  const int k = static_cast<int>(spec.experts.size());
  TEAMNET_CHECK(k >= 2);
  if (devices_.empty()) devices_.assign(spec.experts.size(), config.device);
  TEAMNET_CHECK(devices_.size() == spec.experts.size());
  master_expert_ = spec.experts[0];
  // Before any worker spawns: each run gets its own track epoch so its
  // restarted virtual clock never rewinds a previous run's trace rows.
  obs::Tracer::instance().begin_epoch(epoch);
  const int num_nodes = spec.backups ? 2 * k - 1 : k;
  net_ = make_driver_net(config, num_nodes, spec.num_queries);
  try {
    // Node 1..k-1 serves expert i; with backups node k-1+i serves it too.
    // Every serving node reads its channel's virtual clock, so a propagated
    // deadline compares against the time base the master stamped it in.
    for (int node = 1; node < num_nodes; ++node) {
      const auto expert =
          static_cast<std::size_t>(node < k ? node : node - k + 1);
      auto& worker = *workers_.emplace_back(
          std::make_unique<net::CollaborativeWorker>(*spec.experts[expert],
                                                     net_->channel(node, 0)));
      worker.set_compute_hook(
          make_compute_hook(*net_, node, devices_[expert], nullptr));
      worker.set_drop_expired(spec.drop_expired);
      if (spec.faults == nullptr) worker.set_trace_node(node);
      threads_.push_back(
          spawn_sim_worker(*net_, node, [&worker] { worker.serve(); }));
    }
    if (spec.faults != nullptr) {
      links_ = wrap_faulty_links(*net_, num_nodes, *spec.faults);
    }
  } catch (...) {
    teardown();
    throw;
  }
  for (int node = 1; node < num_nodes; ++node) {
    net::Channel* channel =
        links_.empty() ? &net_->channel(0, node)
                       : links_[static_cast<std::size_t>(node - 1)].get();
    (node < k ? primaries_ : backups_).push_back(channel);
  }
}

Fleet::~Fleet() {
  if (!joined_) teardown();
}

void Fleet::teardown() {
  // Wake workers blocked in recv, release the master's virtual-time floor
  // and join them before their channels go.
  for (auto& link : links_) link->close();
  net_->close_all();
  net_->retire(0);
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  if (recording_) {
    obs::TimelineRecorder::instance().stop();
    obs::TimelineRecorder::instance().take();
  }
  joined_ = true;
}

void Fleet::record_timelines() {
  obs::TimelineRecorder::instance().start(workers_.size());
  recording_ = true;
}

std::uint64_t Fleet::finish_with(const std::function<void()>& shutdown) {
  const bool faulty = !links_.empty();
  if (faulty) {
    quiesce_links(links_);
  } else {
    bytes_ = net_->bytes_delivered();
    messages_ = net_->messages_delivered();
    air_bytes_ = net_->air_bytes();
  }
  shutdown();
  net_->retire(0);
  for (auto& t : threads_) t.join();
  joined_ = true;
  if (faulty) {
    bytes_ = net_->bytes_delivered();
    messages_ = net_->messages_delivered();
    air_bytes_ = net_->air_bytes();
  }
  if (recording_) {
    obs::TimelineRecorder::instance().stop();
    timelines_ = obs::TimelineRecorder::instance().take();
  }
  digest_ = net_->finish();
  return digest_;
}

net::GroupSend Fleet::group_send() const {
  std::vector<net::Channel*> legs;
  for (std::size_t w = 0; w < primaries_.size(); ++w) {
    legs.push_back(links_.empty() ? primaries_[w] : &links_[w]->inner());
  }
  net::GroupSend send = des::DesGroup(legs);
  return links_.empty() ? send : net::with_faults(std::move(send));
}

ScenarioResult Fleet::result(const std::string& approach,
                             double total_latency_s,
                             const Shape& sample_shape) const {
  ScenarioResult result;
  result.schedule_digest = digest_;
  result.approach = approach;
  result.num_nodes = net_->num_nodes();
  result.latency_ms = 1e3 * total_latency_s / num_queries_;
  result.usage = estimate_resources(
      devices_[0], model_working_set_bytes(*master_expert_, sample_shape),
      total_latency_s > 0.0 ? master_compute_.load() / total_latency_s : 0.0);
  result.bytes_per_query = static_cast<double>(bytes_) / num_queries_;
  result.messages_per_query = static_cast<double>(messages_) / num_queries_;
  return result;
}

}  // namespace teamnet::sim
