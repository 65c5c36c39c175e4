// Schedule explorer (DESIGN.md §11): reruns ONE unchanged scenario under
// many legal interleavings and checks that nothing the protocol promises
// depends on which interleaving ran.
//
// The conservative grant rule leaves exactly one degree of freedom — which
// of several simultaneously eligible nodes acts first (grant_policy.hpp).
// The explorer sweeps that freedom: it runs the scenario once under the
// canonical policy to establish the reference outcome, then N more times
// under seeded perturbation policies (random tie-break and PCT-style
// priorities, alternating), and flags any schedule where
//
//   * the DISCRETE outcome diverges from the canonical run — answers,
//     accuracy, traffic counts, fault schedules must be schedule-invariant
//     (latency and utilisation legitimately vary with the schedule and are
//     excluded by the runner's serialization);
//   * the run deadlocks (des::DeadlockError);
//   * an invariant trips — the engine asserts causality (no delivery
//     before its send) and full retirement (every worker declared done),
//     and any protocol TEAMNET_CHECK surfaces here too.
//
// Every violation carries a replayable counterexample: the (policy,
// schedule_seed) pair plus a ready-to-paste repro command. Replays are
// verified bit-exact — the harness reruns a violating case and demands the
// same schedule digest and discrete bytes before reporting it, so a flaky
// (wall-clock-dependent) "counterexample" is itself reported as a
// reproducibility violation rather than handed to a human.
//
// This header is scenario-agnostic: callers supply a ScheduleRunner that
// executes their scenario under a given ScheduleCase. Fixture runners for
// the paper's scenarios live in explore/explore_scenarios.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/des/grant_policy.hpp"

namespace teamnet::sim::des {

/// One point in schedule space: which tie-break policy and which seed.
struct ScheduleCase {
  GrantPolicyKind policy = GrantPolicyKind::canonical;
  std::uint64_t schedule_seed = 0;
};

/// What one run of the scenario produced, as the explorer sees it.
struct RunOutcome {
  /// Byte-stable serialization of every SCHEDULE-INVARIANT outcome
  /// (answers, accuracy, traffic, fault schedules). Must exclude anything
  /// that legitimately varies with the schedule (latency, utilisation).
  std::string discrete;
  /// Engine schedule fingerprint (Engine::schedule_digest) — identifies
  /// the interleaving itself so replays can be checked bit-exact.
  std::uint64_t digest = 0;
  bool deadlocked = false;  ///< run raised des::DeadlockError
  std::string error;        ///< non-empty: run failed (message), e.g. an
                            ///< InvariantError from the engine or protocol
};

/// Executes the scenario under `c` and reports what happened. Must catch
/// DeadlockError (-> deadlocked) and Error (-> error) itself; anything it
/// lets escape aborts the whole exploration.
using ScheduleRunner = std::function<RunOutcome(const ScheduleCase&)>;

struct ExploreConfig {
  /// Perturbed schedules to try on top of the canonical baseline run.
  int num_schedules = 50;
  /// First schedule seed; case i uses schedule_seed0 + i.
  std::uint64_t schedule_seed0 = 1;
  /// Rerun every violating case and demand bit-identical (digest,
  /// discrete) before reporting it as a counterexample.
  bool replay_check = true;
  /// Prefix for the repro command attached to violations, e.g.
  /// "schedule_explore --scenario=chaos --seed=3". Empty = no command.
  std::string repro_prefix;
};

struct Violation {
  ScheduleCase schedule;
  /// "deadlock", "error", "outcome-divergence", "replay-divergence" or
  /// "baseline-failure".
  std::string kind;
  std::string detail;  ///< human-readable evidence (diff, message)
  std::string repro;   ///< ready-to-paste replay command (may be empty)
};

/// Per-case record, kept for all cases (not just violations) so reports are
/// byte-stable and digests can be audited across seeds.
struct CaseRecord {
  ScheduleCase schedule;
  std::uint64_t digest = 0;
  std::string status;  ///< "match", "deadlock", "error", "divergence"
};

struct ExploreReport {
  RunOutcome baseline;
  std::vector<CaseRecord> cases;
  std::vector<Violation> violations;
  bool passed() const { return violations.empty(); }
};

/// Runs the canonical baseline, then `config.num_schedules` perturbed
/// schedules (alternating random-tiebreak / PCT), checking each against the
/// baseline's discrete outcome. Deterministic: same (runner behaviour,
/// config) -> identical report, byte for byte through format_report.
ExploreReport explore_schedules(const ScheduleRunner& runner,
                                const ExploreConfig& config);

/// Byte-stable plain-text rendering of a report (no timestamps, no
/// pointers): the determinism gate compares two of these with EXPECT_EQ.
std::string format_report(const ExploreReport& report);

/// The case the explorer runs at index `i` (exposed so a --replay driver
/// can reproduce any case from its index, and tests can pin the mix).
ScheduleCase case_at(const ExploreConfig& config, int i);

}  // namespace teamnet::sim::des
