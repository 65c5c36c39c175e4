// Latency-attribution aggregation for the load plane (DESIGN.md §15).
//
// obs::attribute() decomposes ONE query; a load run produces hundreds.
// This module folds the per-query QueryAttributions into a
// BreakdownSummary: per-phase end-to-end and critical-path totals,
// per-phase critical-contribution samples, the dominant-phase census
// ("what fraction of queries have their critical path topped by gather
// slack vs compute vs queueing"), straggler-slack distribution, and
// per-DegradationLevel latency splits. Each distribution keeps its raw
// samples, so its percentiles are exact (obs/percentile.hpp). The
// summary also carries the reconciliation census — how many queries' two
// partitions telescoped bit-exactly to the measured latency — which the
// determinism tests and the bench report both assert on.
//
// Serialization lives here (not in bench_common) so tests can link
// teamnet_load and byte-compare the JSON without pulling in the bench
// driver. Doubles are %.17g (obs/json.hpp), so a deterministic run emits
// a byte-stable document.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/critpath.hpp"

namespace teamnet::load {

/// Aggregate contribution of one AttrPhase across a run.
struct PhaseBreakdown {
  std::int64_t e2e_sum_ns = 0;   ///< total across the end-to-end partition
  std::int64_t crit_sum_ns = 0;  ///< total across the critical partition
  std::int64_t dominant_queries = 0;  ///< queries whose top slice is this
  /// Per-query critical-path contribution, ms (zero-ns slices skipped so
  /// the distribution describes the phase when it actually appears).
  std::vector<double> crit_ms;
};

/// Latency split for one net::DegradationLevel (full / quorum /
/// local_only).
struct LevelBreakdown {
  std::int64_t queries = 0;
  std::vector<double> latency_ms;
};

struct BreakdownSummary {
  std::int64_t queries = 0;
  /// Queries where BOTH partitions summed bit-exactly to total_ns.
  std::int64_t reconciled = 0;
  /// Largest |partition sum - total_ns| seen — 0 under discrete_event.
  std::int64_t max_residual_ns = 0;
  std::array<PhaseBreakdown, obs::kNumAttrPhases> phases{};
  /// Queries whose dominant critical slice falls in each CritKind.
  std::array<std::int64_t, obs::kNumCritKinds> dominant_kind_queries{};
  std::vector<double> latency_ms;          ///< arrival -> completion
  std::vector<double> straggler_slack_ms;  ///< per non-critical worker reply
  std::array<LevelBreakdown, 3> levels{};
  /// Phase with the largest aggregate crit_sum_ns (ties: lowest value).
  obs::AttrPhase dominant_phase = obs::AttrPhase::unattributed;

  /// Fraction of total critical-path nanoseconds spent in `phase` (0 when
  /// the run recorded nothing).
  double crit_share(obs::AttrPhase phase) const;
  /// Fraction of total critical-path nanoseconds spent in phases of
  /// `kind`.
  double kind_share(obs::CritKind kind) const;
  /// Fraction of queries whose dominant critical slice is of `kind`.
  double dominant_kind_fraction(obs::CritKind kind) const;
  std::int64_t crit_total_ns() const;
};

/// Folds `attrs[skip_warmup..]` into a summary. Samples keep query order
/// (and, within a query, worker order for the straggler slack).
BreakdownSummary summarize_attributions(
    const obs::AttributionSet& attrs, std::size_t skip_warmup);

/// Appends `summary` as a JSON object onto `out`; each distribution is
/// written as count, mean (summed in sample order), p50/p95/p99 by
/// nearest rank (null unless obs::kMinBeyond samples lie beyond) and max.
/// `indent` prefixes every line (the opening '{' is NOT prefixed — it
/// continues the current line, so callers embed the object after a key).
/// Byte-stable for deterministic runs.
void append_breakdown_json(std::string& out, const BreakdownSummary& summary,
                           const std::string& indent);

}  // namespace teamnet::load
