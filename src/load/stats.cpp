#include "load/stats.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace teamnet::load {

double PhaseStats::offered_qps() const {
  const double span = arrivals_end_s - window_start_s;
  return span > 0.0 ? static_cast<double>(queries) / span : 0.0;
}

double PhaseStats::achieved_qps() const {
  const double span = duration_s();
  return span > 0.0 ? static_cast<double>(queries) / span : 0.0;
}

double PhaseStats::mean_inflight() const {
  const double span = duration_s();
  return span > 0.0 ? inflight_integral_s / span : 0.0;
}

PhaseStats make_phase_stats(const std::vector<QueryRecord>& records,
                            std::size_t begin, std::size_t end) {
  TEAMNET_CHECK(begin <= end && end <= records.size());
  PhaseStats phase;
  if (begin == end) return phase;
  phase.queries = static_cast<std::int64_t>(end - begin);
  phase.window_start_s = records[begin].arrival_s;
  phase.arrivals_end_s = records[begin].arrival_s;
  phase.window_end_s = records[begin].completion_s;
  for (std::size_t i = begin; i < end; ++i) {
    const QueryRecord& r = records[i];
    TEAMNET_CHECK_MSG(r.completion_s >= r.arrival_s,
                      "query completed before it arrived");
    phase.arrivals_end_s = std::max(phase.arrivals_end_s, r.arrival_s);
    phase.window_end_s = std::max(phase.window_end_s, r.completion_s);
    phase.latency.record(1e3 * (r.completion_s - r.arrival_s));
  }
  // In-flight depth integral: overlap of every run query's service interval
  // with this phase's window, including queries from other phases that
  // straddle the boundary (e.g. a queued warmup query still unserved when
  // steady state opens).
  for (const QueryRecord& r : records) {
    const double lo = std::max(r.arrival_s, phase.window_start_s);
    const double hi = std::min(r.completion_s, phase.window_end_s);
    if (hi > lo) phase.inflight_integral_s += hi - lo;
  }
  return phase;
}

}  // namespace teamnet::load
