// Phase-split run statistics for the load-generation plane (DESIGN.md §14).
//
// A load run yields one QueryRecord per query: when it arrived (per the
// arrival process, on the virtual clock) and when its reply came back.
// Derived statistics are split into phases — warmup vs steady state — so
// cold-start effects (the arrival process ramping a closed-loop
// population, queues filling from empty) never pollute the numbers a
// baseline is gated on. A phase reports offered vs achieved rate and the
// time-average in-flight depth (queued + in service), computed exactly as
// the integral of interval overlap with the phase window — Little's law
// (L = λW) then holds by construction, which the unit tests exploit.
#pragma once

#include <cstdint>
#include <vector>

#include "load/histogram.hpp"

namespace teamnet::load {

/// One served query on the virtual clock. completion >= arrival always
/// (service cannot precede the arrival that triggered it).
struct QueryRecord {
  double arrival_s = 0.0;
  double completion_s = 0.0;
  int row = -1;       ///< dataset row served
  bool correct = false;
  int prediction = -1;  ///< the served class
  int chosen = -1;      ///< winning node (0 = master, 1.. = workers)
  /// net::DegradationLevel the serving path reported for this query (0 =
  /// full).
  int degradation = 0;
};

struct PhaseStats {
  std::int64_t queries = 0;        ///< records in this phase
  double window_start_s = 0.0;     ///< first arrival in the phase
  double arrivals_end_s = 0.0;     ///< last arrival in the phase
  double window_end_s = 0.0;       ///< last completion in the phase
  /// Integral over the phase window of the in-flight depth — every run
  /// query (any phase) contributes its [arrival, completion] overlap.
  double inflight_integral_s = 0.0;
  LatencyHistogram latency;        ///< per-query (completion - arrival), ms

  double duration_s() const { return window_end_s - window_start_s; }
  /// Arrival rate: queries per second over the arrival span. 0 when the
  /// span is empty (fewer than two distinct arrival instants).
  double offered_qps() const;
  /// Completion rate: queries per second over the full window.
  double achieved_qps() const;
  /// Time-average number of in-flight queries over the window.
  double mean_inflight() const;
};

/// Statistics for the phase holding records [begin, end) of `records`
/// (arrival order). The in-flight integral scans ALL records, so a warmup
/// query still in service when the steady window opens is charged to both
/// phases for the time it actually overlaps each.
PhaseStats make_phase_stats(const std::vector<QueryRecord>& records,
                            std::size_t begin, std::size_t end);

}  // namespace teamnet::load
