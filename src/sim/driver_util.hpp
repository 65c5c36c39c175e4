// Shared plumbing for protocol drivers over a SimNet mesh.
//
// Every driver that runs the real protocol threads inside the simulator —
// the paper-scenario drivers in sim/scenario.cpp and the load-generation
// plane in load/loadgen.cpp — builds its mesh, spawns its serving nodes,
// wires its master and tears down through the pieces here, so the drivers
// cannot drift apart on teardown, compute-charging or traffic-counting
// rules. Every node, master and fault layer reads its DES channel's
// virtual clock (Channel::now). A driver on top of `Fleet` is a per-query
// loop.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "net/collab.hpp"
#include "net/fault.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/des/des_channel.hpp"
#include "sim/scenario.hpp"

namespace teamnet::sim {

/// The mesh a driver runs on: `config`'s link and grant-policy knobs over
/// `num_nodes` nodes. Rejects a run of fewer than one query —
/// every driver reports per-query means.
std::unique_ptr<SimNet> make_driver_net(const ScenarioConfig& config,
                                        int num_nodes, int num_queries);

/// Spawns a protocol worker thread on `node`: binds an obs::TraceTrack to
/// the node's virtual clock, runs `body`, logs (instead of escaping) any
/// teamnet::Error from a closed channel, and retires the node on every
/// exit path.
std::thread spawn_sim_worker(SimNet& net, int node, std::function<void()> body);

/// Compute hook that advances `node`'s virtual clock on `device` and, when
/// `compute_total` is non-null, accumulates that node's compute seconds.
net::ComputeHook make_compute_hook(SimNet& net, int node,
                                   const DeviceProfile& device,
                                   std::atomic<double>* compute_total);

/// Picks `n` query rows from `test` (deterministic per seed) — the
/// uniform-row sampling every scenario driver replays.
std::vector<int> sample_query_rows(const data::Dataset& test, int n,
                                   std::uint64_t seed);

/// One-sample batch holding `test`'s row `row`.
Tensor query_row_tensor(const data::Dataset& test, int row);

/// What a Fleet serves. Node i serves experts[i] on devices[i]; node 0 is
/// the master, whose expert the driver hands its master itself.
struct FleetSpec {
  std::vector<nn::Module*> experts;    ///< >= 2, non-owning
  /// Per expert; empty = config.device everywhere.
  std::vector<DeviceProfile> devices = {};
  int num_queries = 0;                 ///< queries the run issues (>= 1)
  /// Wraps every master link in a net::FaultyChannel whose seed forks per
  /// node from faults->seed. Null = a fault-free fleet.
  const net::FaultProfile* faults = nullptr;
  /// Node k-1+i also serves experts[i], as worker i's hedging replica.
  bool backups = false;
  bool drop_expired = false;  ///< CollaborativeWorker::set_drop_expired
  /// The airtime-first wire (net::MasterCore::set_group_send): the master
  /// broadcasts each query as one group frame on the shared medium, not
  /// one unicast per worker. On a faulty fleet each receiver rolls its own
  /// link's faults (net::with_faults).
  bool multicast = false;
};

/// A TeamNet/SG-MoE serving fleet on one SimNet: spawns the serving nodes,
/// wires the master, counts traffic and tears everything down. A fleet
/// with a fault layer keeps flow tracing and worker trace nodes off — a
/// dropped request would leave a flow arrow with no end.
///
/// Use: construct, build the master over worker_channels(), attach() it,
/// run the queries, finish(). Destroying an unfinished fleet (a query
/// threw) closes every channel and joins every node.
class Fleet {
 public:
  /// Starts trace epoch `epoch` and spawns the serving nodes.
  Fleet(const std::string& epoch, const ScenarioConfig& config,
        FleetSpec spec);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  SimNet& net() { return *net_; }
  /// The master's virtual clock.
  double now() const { return net_->node_time(0); }
  /// Master-side channels to nodes 1..k-1 (fault-wrapped if faulty).
  const std::vector<net::Channel*>& worker_channels() const {
    return primaries_;
  }
  /// Master-side channels to the backup replicas (empty without backups).
  const std::vector<net::Channel*>& backup_channels() const {
    return backups_;
  }
  /// Fault layer, one link per serving node in node order (empty if none).
  const std::vector<std::unique_ptr<net::FaultyChannel>>& links() const {
    return links_;
  }
  const std::vector<std::unique_ptr<net::CollaborativeWorker>>& workers()
      const {
    return workers_;
  }

  /// Gives `master` the master node's compute hook, flow tracing when
  /// fault-free, the airtime-first wire of a multicast fleet (its group
  /// send, through net::with_faults when faulty), and binds the
  /// calling thread's trace track. The master reads its clock from its
  /// channels, all node 0's.
  template <typename Master>
  void attach(Master& master) {
    master.set_compute_hook(make_compute_hook(*net_, 0, devices_[0],
                                              &master_compute_));
    if (links_.empty()) master.set_flow_trace(true);
    if constexpr (requires { master.set_group_send(net::GroupSend()); }) {
      if (multicast_) master.set_group_send(group_send());
    } else {
      TEAMNET_CHECK_MSG(!multicast_, "this master has no group dispatch");
    }
    track_.emplace(0, [net = net_.get()] { return net->node_time(0); },
                   "master");
  }

  /// Records per-query timelines until finish(), which returns them; each
  /// query gets one lane per serving node (workers().size()).
  void record_timelines();

  /// Shuts `master` down, joins every node and returns the schedule
  /// digest. Traffic counts the queries only when fault-free; a faulty
  /// run also counts the quiesce pings and shutdown frames, read after
  /// the join so a duplicated reply still in flight cannot race it.
  template <typename Master>
  std::uint64_t finish(Master& master) {
    return finish_with([&master] { master.shutdown(); });
  }

  /// Payload bytes and frames delivered (a group frame counts once per
  /// receiver), and payload bytes put on the air (a group frame counts
  /// once).
  std::int64_t bytes() const { return bytes_; }
  std::int64_t messages() const { return messages_; }
  std::int64_t air_bytes() const { return air_bytes_; }
  std::vector<obs::QueryTimeline> take_timelines() {
    return std::move(timelines_);
  }

  /// The fields every fleet driver reports alike: approach, node count,
  /// mean latency over `total_latency_s`, the master's usage and traffic.
  /// Accuracy is the driver's.
  ScenarioResult result(const std::string& approach, double total_latency_s,
                        const Shape& sample_shape) const;

 private:
  /// One group frame over the workers' DES legs, whose faults, on a
  /// faulty fleet, net::with_faults rolls per member.
  net::GroupSend group_send() const;
  std::uint64_t finish_with(const std::function<void()>& shutdown);
  void teardown();

  std::unique_ptr<SimNet> net_;
  int num_queries_;
  nn::Module* master_expert_ = nullptr;
  std::vector<DeviceProfile> devices_;
  std::atomic<double> master_compute_{0.0};
  std::vector<std::unique_ptr<net::CollaborativeWorker>> workers_;
  std::vector<std::unique_ptr<net::FaultyChannel>> links_;
  std::vector<net::Channel*> primaries_;
  std::vector<net::Channel*> backups_;
  std::optional<obs::TraceTrack> track_;
  bool multicast_ = false;
  std::int64_t bytes_ = 0;
  std::int64_t messages_ = 0;
  std::int64_t air_bytes_ = 0;
  std::uint64_t digest_ = 0;
  bool recording_ = false;
  bool joined_ = false;
  std::vector<obs::QueryTimeline> timelines_;
  std::vector<std::thread> threads_;
};

}  // namespace teamnet::sim
