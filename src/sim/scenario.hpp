// Scenario drivers: run each approach's real protocol over simulated WiFi
// channels between simulated edge devices and report the paper's metrics
// (per-query latency, accuracy, memory/CPU/GPU usage, traffic).
//
// Every scenario executes the genuine distributed code path — the same
// CollaborativeMaster/Worker, Communicator and partitioned executors that
// run over real TCP in the examples — on real threads over the
// discrete-event engine's channels (sim/des). Latency is virtual time:
// compute advances a node's clock by FLOPs / device throughput, messages
// advance the receiver by the WiFi link model, and every result is
// bit-stable for a given seed. Queries are issued sequentially with batch
// size 1, matching the paper's per-inference measurements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "moe/sg_moe.hpp"
#include "net/fault.hpp"
#include "nn/mlp.hpp"
#include "nn/shake_shake.hpp"
#include "sim/calibration.hpp"
#include "sim/des/runtime.hpp"
#include "sim/device.hpp"
#include "sim/resource.hpp"

namespace teamnet::sim {

/// The simulator's one time model: the conservative discrete-event engine
/// (sim/des). Nothing branches on this enum or on ScenarioConfig::scheduler;
/// both remain only because perfbench/driver.cpp still assigns the field.
enum class Scheduler {
  discrete_event,
};

struct ScenarioConfig {
  DeviceProfile device = jetson_tx2_cpu();
  net::LinkProfile link = socket_link();
  int num_queries = 40;    ///< latency-measurement queries (batch 1; >= 1)
  std::uint64_t seed = 123;
  Scheduler scheduler = Scheduler::discrete_event;  ///< see Scheduler
  /// Grant tie-break (DESIGN.md §11). The canonical default reproduces the
  /// canonical schedule byte for byte; the other policies perturb which
  /// simultaneously eligible node acts first so the explorer can hunt for
  /// schedule-dependent outcomes.
  des::GrantPolicyKind grant_policy = des::GrantPolicyKind::canonical;
  std::uint64_t schedule_seed = 0;  ///< seeds the non-canonical policies
  /// Eligibility window for the non-canonical policies (virtual seconds;
  /// see des::GrantPolicy::slack) — bounded medium-arbitration jitter.
  double schedule_slack_s = 0.0;
};

struct ScenarioResult {
  std::string approach;
  int num_nodes = 1;
  double latency_ms = 0.0;        ///< mean per-query latency (virtual)
  double accuracy_pct = 0.0;      ///< test accuracy of the approach's model
  ResourceUsage usage;            ///< master/rank-0 node
  double bytes_per_query = 0.0;
  double messages_per_query = 0.0;
  /// Engine fingerprint of the schedule that produced this result (0 for
  /// the single-node baseline). Not part of the benchmark JSON — used by
  /// the schedule explorer to prove a replayed counterexample is
  /// bit-identical.
  std::uint64_t schedule_digest = 0;
};

/// Single edge node running the full model locally — the Baseline column.
ScenarioResult run_baseline(nn::Module& model, const data::Dataset& test,
                            const ScenarioConfig& config);

/// TeamNet: one expert per node, Figure 1's broadcast/gather protocol.
/// `experts` are non-owning; experts.size() = number of nodes.
ScenarioResult run_teamnet(const std::vector<nn::Module*>& experts,
                           const data::Dataset& test,
                           const ScenarioConfig& config);

/// Heterogeneous fleet variant: node i runs on devices[i] (sizes must
/// match). Latency is gated by the slowest node per query, so matching
/// expert size to device capacity (capacity-weighted training, DESIGN.md
/// §2.1 #6) directly shortens the critical path.
ScenarioResult run_teamnet_heterogeneous(
    const std::vector<nn::Module*>& experts,
    const std::vector<DeviceProfile>& devices, const data::Dataset& test,
    const ScenarioConfig& config);

/// MPI-Matrix over an MLP, row-partitioned across `num_nodes` ranks.
ScenarioResult run_mpi_matrix(nn::MlpNet& model, const data::Dataset& test,
                              const ScenarioConfig& config, int num_nodes);

/// MPI-Kernel over a Shake-Shake CNN across `num_nodes` ranks.
ScenarioResult run_mpi_kernel(nn::ShakeShakeNet& model,
                              const data::Dataset& test,
                              const ScenarioConfig& config, int num_nodes);

/// MPI-Branch over a Shake-Shake CNN (exactly 2 ranks).
ScenarioResult run_mpi_branch(nn::ShakeShakeNet& model,
                              const data::Dataset& test,
                              const ScenarioConfig& config);

/// TeamNet with decentralized selection (mpi/decentralized.hpp): rank 0
/// broadcasts the input, every rank runs its expert and the ranks
/// allgather (class, entropy) summaries, so each one learns the answer
/// without a master. A query's latency lasts until the LAST rank knows
/// the answer. One expert per rank; experts.size() = number of nodes.
ScenarioResult run_teamnet_decentralized(
    const std::vector<nn::Module*>& experts, const data::Dataset& test,
    const ScenarioConfig& config);

/// Distributed SG-MoE: gate + expert 0 on the master, one expert per worker
/// node. The link (gRPC vs MPI flavour) comes from `config.link`.
ScenarioResult run_sg_moe(moe::SgMoe& model, const data::Dataset& test,
                          const ScenarioConfig& config);

/// TeamNet under fault injection (DESIGN.md §8, §13): every master<->worker
/// link is wrapped in a net::FaultyChannel whose seed is forked per link
/// from `faults.seed`, so one seed reproduces the whole fleet's fault
/// schedule. On top sits the SLO machinery — deadline propagation with
/// expired-request drops, quorum gather and (optionally) one backup
/// replica per worker for hedged dispatch. With drop_expired and hedging
/// off and quorum 0 this is the plain chaos run: a gather deadline plus
/// probation/rejoin.
struct ResilienceConfig {
  net::FaultProfile faults;  ///< per-link fault model (seed forked per link)

  double worker_timeout_s = 0.05;  ///< the query SLO (virtual seconds)
  int probe_interval = 2;          ///< probation probe cadence (queries)
  /// Gather quorum (total answers, local expert included); 0 = full
  /// gather; negative throws.
  int quorum = 0;
  /// Spawn one backup replica node per worker expert and hedge to it. The
  /// backup links run the same fault model (independent streams).
  bool hedging = false;
  /// Nothing reads this; it stays only because perfbench/driver.cpp
  /// still names it (ROADMAP item 14(c)).
  bool health = true;
  /// Workers drop Infer frames whose propagated deadline already expired.
  bool drop_expired = true;
  /// The airtime-first wire (FleetSpec::multicast): the master broadcasts
  /// each Infer as one group frame in the compact input coding, and every
  /// receiver rolls its own link's faults on it. Hedges (compact too),
  /// probes, quiesce and Shutdown stay unicast. Off = one raw-float
  /// unicast Infer per worker, the dispatch every frozen chaos/resilience
  /// output was taken with.
  bool multicast = true;

  /// Optional scripted two-way partition of one worker (0-based index) over
  /// a query window — the crash/heal pattern the rejoin machinery targets.
  int partition_worker = -1;      ///< -1 = no scripted partition
  int partition_from_query = -1;  ///< query index at which the link goes dark
  int heal_at_query = -1;         ///< query index at which it heals (-1 = never)

  /// TEST-ONLY mutation hook: re-introduces the gather from before replies
  /// echoed the query id, whose stale-reply defense was the deadline clock
  /// reading instead — so acceptance races each reply's arrival time against
  /// the deadline (net::CollaborativeMaster::set_test_pre_qid_gather).
  /// Exists so the schedule explorer's mutation gate can prove it detects
  /// a real ordering bug; never enable outside tests.
  bool test_pre_qid_gather = false;
};

/// Per-query degradation telemetry on top of the usual scenario metrics.
/// The three gather counters partition the queries
/// (full + quorum + local_only == num_queries). `scenario.accuracy_pct` is
/// accuracy over the issued queries themselves (not the full test set):
/// degraded queries answer with fewer experts, and that degradation is
/// exactly what this scenario measures.
struct ResilienceResult {
  ScenarioResult scenario;
  std::vector<double> latency_ms;  ///< per query (virtual)
  double p50_ms = 0.0;             ///< median per-query latency
  double p99_ms = 0.0;             ///< nearest-rank 99th percentile
  double max_ms = 0.0;             ///< largest per-query latency
  std::vector<int> degradation;  ///< per query: net::DegradationLevel as int
  std::vector<char> correct;     ///< per query: 1 = prediction was correct
  std::vector<int> live_nodes;  ///< per query: master + workers in the live set
  /// Per query: the nodes whose answers the argmin combined
  /// (net::CollaborativeMaster::Result::combined, bit i = node i).
  std::vector<std::uint64_t> combined;
  std::vector<int> winner;  ///< per query: the winning node (0 = master)
  std::int64_t full_gathers = 0;
  std::int64_t quorum_gathers = 0;
  std::int64_t local_only_gathers = 0;
  std::int64_t hedges_sent = 0;
  std::int64_t hedge_wins = 0;
  std::int64_t hedge_duplicates = 0;
  /// Nothing sets this (it reads 0); it stays only because
  /// perfbench/driver.cpp still names it (ROADMAP item 14(c)).
  std::int64_t breaker_opens = 0;
  std::int64_t rejoins = 0;
  std::int64_t stale_replies = 0;
  std::int64_t expired_drops = 0;  ///< summed over workers and backups
  std::int64_t faults_injected = 0;
  std::string fault_schedule;  ///< concatenated per-link schedules
  /// Payload bytes put on the air per query (Fleet::air_bytes): a group
  /// frame counts once, however many workers it reaches.
  double air_bytes_per_query = 0.0;
};

/// TeamNet's Figure-1 protocol under fault injection with the degradation
/// plane enabled. Topology: master (node 0) + workers 1..K-1; with
/// `res.hedging` also one backup replica of worker i's expert on node
/// K-1+i. Deterministic for a fixed (config, res) — byte-identical across
/// same-seed runs, results included.
ResilienceResult run_teamnet_resilience(const std::vector<nn::Module*>& experts,
                                        const data::Dataset& test,
                                        const ScenarioConfig& config,
                                        const ResilienceConfig& res);

}  // namespace teamnet::sim
