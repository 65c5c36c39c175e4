// Fixture runners binding the schedule explorer (sim/des/explore.hpp) to
// the paper's scenario drivers. Each named scenario builds a small fixed
// fleet (seeded models + blob dataset, the same shapes the determinism gate
// uses), runs the REAL protocol under the requested grant policy, and
// serializes only the schedule-invariant outcomes:
//
//   * approach name, node count, accuracy, traffic counts — every
//     scenario but resilience;
//   * per-query live set, per-query correctness, stale/rejoin/fault
//     totals and the fault schedule — the chaos scenario;
//   * the degradation accounting invariants alone — the resilience
//     scenario, whose quorum membership and hedge firing (and with them
//     accuracy, traffic and even the fault draws) legally vary by schedule,
//     and resilience-multicast, the same fixture with each Infer as one
//     group frame whose receivers roll their own faults;
//   * per-query answers against an in-process arg-min-entropy oracle and
//     exact attribution reconciliation — the load scenario, the pipelined
//     driver with several queries in flight, and the multicast scenario,
//     the same run with each query's Infer broadcast as one group frame.
//
// Latency and utilisation are deliberately ABSENT: they derive from the
// schedule (who waited for whom) and legitimately vary across legal
// interleavings. Everything serialized here must not.
//
// Its own module above load/ because it links the whole model stack and
// every driver; the explorer core underneath (sim/des/explore.*) stays
// scenario-agnostic.
#pragma once

#include <string>
#include <vector>

#include "sim/des/explore.hpp"
#include "sim/scenario.hpp"

namespace teamnet::sim {

struct ExploreScenarioOptions {
  std::uint64_t seed = 123;  ///< ScenarioConfig::seed and the chaos fault seed
  int num_queries = 8;
  /// Default link is CONTENDED (finite bandwidth + per-message overhead) on
  /// purpose: with zero airtime the shared medium never arbitrates and
  /// every legal schedule produces identical virtual times, so exploration
  /// would be vacuous. Finite airtime staggers near-coincident sends and
  /// lets the perturbing policies reorder them within the slack window.
  net::LinkProfile link = net::LinkProfile{0.0005, 2e6, 0.001};
  /// Eligibility window for the perturbed cases (virtual seconds). Sized to
  /// a couple of airtimes of the default link so medium-capture reorderings
  /// actually occur; canonical ignores it, keeping the baseline canonical.
  double schedule_slack_s = 0.002;
  /// Chaos-scenario tuning (ignored by the other scenarios): a resilience
  /// run with the SLO machinery off. faults.seed is overridden by `seed`
  /// so one knob sweeps the whole fixture. Flip chaos.test_pre_qid_gather
  /// to arm the mutation gate.
  ResilienceConfig chaos = default_explore_chaos();
  /// Resilience-scenario tuning (degradation plane; same seed override).
  /// "resilience-multicast" runs it with `multicast` on.
  ResilienceConfig resilience = default_explore_resilience();

  /// The chaos fault model the explorer runs by default: drops, corruption,
  /// duplicates, plus a scripted partition/heal of worker 0 — the mix that
  /// exercises every stale-reply and rejoin path.
  static ResilienceConfig default_explore_chaos();
  /// The default resilience fixture: drops + duplicates with quorum gather
  /// and hedging enabled — the full degradation plane under schedule
  /// perturbation.
  static ResilienceConfig default_explore_resilience();
};

/// Names accepted by make_explore_runner: "teamnet", "mpi", "sg-moe",
/// "chaos", "resilience", "load", "multicast", "resilience-multicast".
const std::vector<std::string>& explore_scenario_names();

/// Builds the fixture for `scenario` ONCE (models are trained/seeded up
/// front and shared across runs — inference does not mutate them) and
/// returns a runner the explorer can invoke per schedule. Throws
/// InvalidArgument for an unknown scenario name.
des::ScheduleRunner make_explore_runner(const std::string& scenario,
                                        const ExploreScenarioOptions& options);

}  // namespace teamnet::sim
