// Pluggable grant tie-break for the discrete-event engine (DESIGN.md §11).
//
// The conservative grant rule has two parts. The FLOOR — only a node whose
// key (clock if running, determined wake time if blocked-wakeable) equals
// the global minimum may act — is what keeps the simulation causal and is
// not negotiable. The TIE-BREAK — which of several nodes sharing that
// minimum key acts first — is pure schedule choice: every choice is a legal
// interleaving of the protocol. A GrantPolicy owns exactly that choice, so
// the schedule explorer can rerun an unchanged scenario under many legal
// interleavings and check that discrete outcomes never depend on the pick.
//
// Purity contract (load-bearing): `choose` runs once per hand-off of the
// engine's baton, at the end of the holder's engine call. It must be a
// pure function of (virtual time, eligible set, salt, policy state) and
// never consume from a stateful RNG per call: replay reruns a
// (policy, schedule_seed) case and relies on the same state giving the
// same pick. Policy state may change only in `note_step`, which the engine
// calls under its mutex for the baton holder's advances, sends and
// wake-ups — one node at a time in baton order, so the state stream is
// deterministic too.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

namespace teamnet::sim::des {

enum class GrantPolicyKind {
  /// Lexicographic minimum (time, node_id): the engine's historical rule
  /// and the default everywhere. Byte-compatible with pre-policy builds.
  canonical,
  /// Seeded stateless-hash choice among all simultaneously eligible nodes.
  random_tiebreak,
  /// PCT-style: a seeded priority permutation picks the highest-priority
  /// eligible node; at seeded change points the stepping node is demoted
  /// below everyone, forcing a deep preemption.
  pct,
};

const char* to_string(GrantPolicyKind kind);
std::optional<GrantPolicyKind> parse_grant_policy(std::string_view name);

/// splitmix64 finalizer — the stateless mixer shared by the hash-based
/// policies and the engine's schedule digest.
std::uint64_t mix64(std::uint64_t x);
std::uint64_t double_bits(double v);

class GrantPolicy {
 public:
  virtual ~GrantPolicy() = default;

  /// Picks the winner among `eligible` (non-empty, ascending node ids, all
  /// within the slack window of virtual time `time`). `salt` is engine
  /// state that only sends change (schedule-deterministic); policies may
  /// mix it in for variety across repeated ties at the same virtual time.
  /// Must be pure: same arguments + same policy state → same winner.
  virtual int choose(double time, const std::vector<int>& eligible,
                     std::uint64_t salt) const = 0;

  /// Called by the engine (under its mutex) each time `node`, holding the
  /// baton, performs a timed operation (advance, send or wake-up). The
  /// only place policy state may change.
  virtual void note_step(int /*node*/) {}

  /// Width of the eligibility window in virtual seconds. 0 (canonical)
  /// means only exact key ties are simultaneous. A positive slack widens
  /// "simultaneously eligible" to every node within `t_min + slack`,
  /// modelling bounded medium-arbitration jitter: real radios do not
  /// serialize near-coincident transmissions in timestamp order, so legal
  /// schedules include ones where a node a hair ahead captures the medium
  /// first. Reordering inside the window only perturbs virtual TIMES (the
  /// shared-medium cursor); per-link delivery content stays fire-order
  /// deterministic, so discrete protocol outcomes must not change — which
  /// is exactly the invariant the explorer checks. Must be a constant per
  /// policy instance (same purity argument as `choose`).
  virtual double slack() const { return 0.0; }
};

/// `schedule_seed`, `num_nodes` and `slack_s` are ignored by the canonical
/// policy; the perturbing policies use `slack_s` as their eligibility
/// window (see GrantPolicy::slack).
std::unique_ptr<GrantPolicy> make_grant_policy(GrantPolicyKind kind,
                                               std::uint64_t schedule_seed,
                                               int num_nodes,
                                               double slack_s = 0.0);

}  // namespace teamnet::sim::des
