// Load-generation driver (DESIGN.md §14): feeds the real TeamNet serving
// protocol (CollaborativeMaster over a sim::Fleet) with queries timed by a
// seeded ArrivalProcess, entirely on the simulator's virtual clock. The
// master is pipelined: every arrived query is in flight at once, and each
// completes when its own gather target is met.
//
// The driver is the missing piece between the paper-scenario runners (one
// query at a time, latency = mean service time) and a perf baseline: it
// measures latency from ARRIVAL to completion, so queueing delay under an
// open-loop overload shows up in the tail exactly as it would on a real
// edge deployment. The whole run — arrival instants, per-query latencies,
// the JSON a bench emits — is byte-identical for a seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "load/arrival.hpp"
#include "load/stats.hpp"
#include "nn/module.hpp"
#include "obs/critpath.hpp"
#include "sim/scenario.hpp"

namespace teamnet::load {

struct LoadConfig {
  ArrivalConfig arrival;
  int num_queries = 200;
  /// First `warmup_queries` (arrival order) are excluded from steady-state
  /// statistics; must be < num_queries.
  int warmup_queries = 20;
  /// Hot-key class skew: > 0 draws query rows Zipf(s)-skewed over a seeded
  /// class permutation (see ZipfClassSampler); 0 keeps the uniform row
  /// sampling the paper-scenario drivers use.
  double zipf_exponent = 0.0;
  /// Seed for query-row sampling (the arrival process seeds separately via
  /// arrival.seed, so traffic shape and traffic content vary independently).
  std::uint64_t query_seed = 7;
  /// > 0 bounds each query with one shared deadline (master
  /// set_worker_timeout): at it the query completes with the answers it
  /// has. 0 keeps the wait-for-every-answer default; negative throws.
  double worker_timeout_s = 0.0;
  /// > 0 completes a query at a quorum of answers (set_gather_quorum);
  /// the stragglers' replies are then stale. 0 = full gather; negative
  /// throws.
  int gather_quorum = 0;
};

struct LoadResult {
  std::string approach;
  int num_nodes = 0;
  std::string arrival;  ///< arrival-process name ("open_poisson", ...)
  int num_queries = 0;
  int warmup_queries = 0;

  // Steady-state headline numbers (warmup excluded), over the steady
  // records' latencies: exact nearest-rank percentiles
  // (obs::nearest_rank_percentile), and the mean summed in arrival order.
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  double mean_inflight = 0.0;

  double accuracy_pct = 0.0;  ///< over every issued query (warmup included)
  double bytes_per_query = 0.0;
  double messages_per_query = 0.0;

  PhaseStats warmup;
  PhaseStats steady;
  /// Per-query arrival/completion/row/correct in arrival order — the raw
  /// material for determinism tests and offline analysis.
  std::vector<QueryRecord> records;
  /// Exact latency attribution per query (same order as `records`;
  /// records[i] is query id i+1). Under discrete_event both partitions of
  /// every entry telescope bit-exactly to the record's latency.
  std::vector<obs::QueryAttribution> attributions;
  std::uint64_t schedule_digest = 0;  ///< discrete_event only, 0 otherwise
};

/// Query rows for a load run: uniform when zipf_exponent <= 0 (identical to
/// the paper-scenario sampling for the same seed), Zipf class-skewed
/// otherwise.
std::vector<int> sample_load_rows(const data::Dataset& test, int n,
                                  std::uint64_t seed, double zipf_exponent);

/// Sets `result`'s phase statistics and steady-state headline numbers
/// (rates, percentiles, mean, max, in-flight depth) from result.records,
/// the first result.warmup_queries of them excluded.
void summarize_records(LoadResult& result);

/// Runs the TeamNet serving path (master = experts[0], workers serve the
/// rest over the simulated mesh) under `load`. experts.size() >= 2.
LoadResult run_teamnet_load(const std::vector<nn::Module*>& experts,
                            const data::Dataset& test,
                            const sim::ScenarioConfig& config,
                            const LoadConfig& load);

}  // namespace teamnet::load
