#include "load/loadgen.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "moe/moe_serving.hpp"
#include "net/collab.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/driver_util.hpp"

namespace teamnet::load {

namespace {

/// Coarse decade edges (ms) for the always-on metrics-registry histogram.
/// Fixed independently of LoadConfig::histogram so repeated runs in one
/// process (different layouts) never trip the registry's same-name /
/// same-edges invariant; the fine-grained percentiles come from the
/// per-run LatencyHistogram instead.
const std::vector<double>& metrics_latency_edges() {
  static const std::vector<double> edges{0.1, 1.0, 10.0, 100.0, 1e3, 1e4};
  return edges;
}

/// The protocol plumbing is identical for both serving paths — only master
/// construction and the experts the nodes serve differ. `make_master(
/// channels)` returns a unique_ptr to a master with infer/shutdown and the
/// net::MasterCore setters (both masters get them from that shared core).
template <typename MakeMaster>
LoadResult run_load_generic(const std::string& approach,
                            const std::vector<nn::Module*>& experts,
                            const data::Dataset& test,
                            const sim::ScenarioConfig& config,
                            const LoadConfig& load, MakeMaster make_master) {
  TEAMNET_CHECK_MSG(
      load.warmup_queries >= 0 && load.warmup_queries < load.num_queries,
      "warmup_queries must be in [0, num_queries)");

  sim::Fleet fleet(approach + "-load", config,
                   {.experts = experts, .num_queries = load.num_queries});
  auto master = make_master(fleet.worker_channels());
  fleet.attach(*master);
  if (load.worker_timeout_s > 0.0) {
    master->set_worker_timeout(load.worker_timeout_s);
  }

  const auto rows =
      sample_load_rows(test, load.num_queries, load.query_seed,
                       load.zipf_exponent);
  auto process = make_arrival_process(load.arrival);

  auto& registry = obs::MetricsRegistry::instance();
  auto& arrivals_counter = registry.counter("load.arrivals");
  auto& completions_counter = registry.counter("load.completions");
  auto& latency_histogram =
      registry.histogram("load.latency_ms", metrics_latency_edges());

  std::vector<QueryRecord> records;
  records.reserve(rows.size());
  int correct = 0;
  auto& recorder = obs::TimelineRecorder::instance();
  fleet.record_timelines();
  for (std::size_t q = 0; q < rows.size(); ++q) {
    const double now = fleet.now();
    const double t_arrival = process->next_arrival(now);
    // Open-loop: an arrival in the past means the query queued while the
    // master was busy — serve immediately, latency absorbs the wait. An
    // arrival in the future means the master idles until it.
    if (t_arrival > now) fleet.net().advance(0, t_arrival - now);
    arrivals_counter.increment();
    obs::trace_instant("load.arrival");
    recorder.note_arrival(t_arrival);
    auto res = master->infer(sim::query_row_tensor(test, rows[q]));
    const double t_completion = fleet.now();
    process->on_complete(t_completion);
    completions_counter.increment();
    latency_histogram.observe(1e3 * (t_completion - t_arrival));

    QueryRecord record;
    record.arrival_s = t_arrival;
    record.completion_s = t_completion;
    record.row = rows[q];
    record.correct =
        res.predictions[0] == test.labels[static_cast<std::size_t>(rows[q])];
    // SG-MoE has no degraded mode: its records keep level 0 (full).
    if constexpr (requires { res.degradation; }) {
      record.degradation = static_cast<int>(res.degradation);
    }
    if (record.correct) ++correct;
    records.push_back(record);
  }

  LoadResult result;
  result.schedule_digest = fleet.finish(*master);
  const std::vector<obs::QueryTimeline> timelines = fleet.take_timelines();
  result.approach = approach;
  result.num_nodes = static_cast<int>(experts.size());
  result.arrival = process->name();
  result.num_queries = load.num_queries;
  result.warmup_queries = load.warmup_queries;
  result.records = std::move(records);

  // Attribute every query's latency. Query ids are the master's monotone
  // sequence starting at 1, so records[q] is qid q+1; a qid the recorder
  // never saw (cannot happen on the in-process paths) degrades to an
  // all-zero attribution rather than misaligning the join.
  result.attributions.reserve(result.records.size());
  std::size_t ti = 0;
  for (std::size_t q = 0; q < result.records.size(); ++q) {
    const auto qid = static_cast<std::int64_t>(q) + 1;
    while (ti < timelines.size() && timelines[ti].qid < qid) ++ti;
    if (ti < timelines.size() && timelines[ti].qid == qid) {
      result.attributions.push_back(obs::attribute(timelines[ti]));
    } else {
      obs::QueryAttribution missing;
      missing.qid = qid;
      result.attributions.push_back(missing);
    }
  }

  const std::size_t warmup = static_cast<std::size_t>(load.warmup_queries);
  result.warmup = make_phase_stats(result.records, 0, warmup, load.histogram);
  result.steady = make_phase_stats(result.records, warmup,
                                   result.records.size(), load.histogram);
  result.offered_qps = result.steady.offered_qps();
  result.achieved_qps = result.steady.achieved_qps();
  result.p50_ms = result.steady.latency.percentile(50.0);
  result.p90_ms = result.steady.latency.percentile(90.0);
  result.p99_ms = result.steady.latency.percentile(99.0);
  result.p999_ms = result.steady.latency.percentile(99.9);
  result.mean_ms = result.steady.latency.mean();
  result.max_ms = result.steady.latency.max();
  result.mean_inflight = result.steady.mean_inflight();
  result.accuracy_pct = 100.0 * static_cast<double>(correct) /
                        static_cast<double>(load.num_queries);
  result.bytes_per_query =
      static_cast<double>(fleet.bytes()) / load.num_queries;
  result.messages_per_query =
      static_cast<double>(fleet.messages()) / load.num_queries;
  registry.gauge("load.achieved_qps").set(result.achieved_qps);
  registry.gauge("load.offered_qps").set(result.offered_qps);
  registry.gauge("load.mean_inflight").set(result.mean_inflight);
  registry.gauge("load.steady_window_s").set(result.steady.duration_s());
  registry.gauge("load.steady_queries")
      .set(static_cast<double>(result.steady.queries));
  // Export the steady-phase distribution at full resolution (the always-on
  // "load.latency_ms" above keeps coarse decade edges). Guarded on the
  // default layout: a same-process run with a custom layout would otherwise
  // trip the registry's same-name/same-edges invariant.
  if (load.histogram == LatencyHistogram::Config{}) {
    auto& steady_histogram = registry.histogram(
        "load.steady_latency_ms", result.steady.latency.upper_edges());
    const auto& edges = result.steady.latency.upper_edges();
    const auto counts = result.steady.latency.bucket_counts();
    for (std::size_t b = 0; b < counts.size(); ++b) {
      // Placing each bucket at its inclusive upper edge reproduces the
      // counts exactly (both histograms bucket by lower_bound); overflow
      // goes past the last edge.
      const double at = b < edges.size() ? edges[b] : edges.back() * 2.0;
      steady_histogram.observe_n(at, counts[b]);
    }
  }
  return result;
}

}  // namespace

std::vector<int> sample_load_rows(const data::Dataset& test, int n,
                                  std::uint64_t seed, double zipf_exponent) {
  if (zipf_exponent <= 0.0) return sim::sample_query_rows(test, n, seed);
  int num_classes = 0;
  for (int label : test.labels) num_classes = std::max(num_classes, label + 1);
  TEAMNET_CHECK_MSG(num_classes >= 1, "dataset has no labels");
  std::vector<std::vector<int>> by_class(
      static_cast<std::size_t>(num_classes));
  for (std::size_t r = 0; r < test.labels.size(); ++r) {
    by_class[static_cast<std::size_t>(test.labels[r])].push_back(
        static_cast<int>(r));
  }
  // Fork the seed so class choice and row-within-class choice come from
  // independent streams (the same class sequence replays under a different
  // row pick and vice versa).
  Rng base(seed);
  ZipfClassSampler zipf(num_classes, zipf_exponent, base.fork(1).engine()());
  Rng row_rng = base.fork(2);
  std::vector<int> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& bucket = by_class[static_cast<std::size_t>(zipf.sample())];
    if (bucket.empty()) {
      // A class with no test rows: fall back to a uniform row so skew
      // toward an unrepresented class cannot stall the generator.
      rows.push_back(
          row_rng.randint(0, static_cast<int>(test.size()) - 1));
      continue;
    }
    rows.push_back(bucket[static_cast<std::size_t>(
        row_rng.randint(0, static_cast<int>(bucket.size()) - 1))]);
  }
  return rows;
}

LoadResult run_teamnet_load(const std::vector<nn::Module*>& experts,
                            const data::Dataset& test,
                            const sim::ScenarioConfig& config,
                            const LoadConfig& load) {
  return run_load_generic(
      "TeamNet", experts, test, config, load,
      [&experts, &load](const std::vector<net::Channel*>& channels) {
        auto master = std::make_unique<net::CollaborativeMaster>(*experts[0],
                                                                 channels);
        if (load.gather_quorum > 0) {
          master->set_gather_quorum(load.gather_quorum);
        }
        return master;
      });
}

LoadResult run_sg_moe_load(moe::SgMoe& model, const data::Dataset& test,
                           const sim::ScenarioConfig& config,
                           const LoadConfig& load) {
  std::vector<nn::Module*> experts;
  for (int i = 0; i < model.num_experts(); ++i) {
    experts.push_back(&model.expert(i));
  }
  return run_load_generic(
      "SG-MoE", experts, test, config, load,
      [&model](const std::vector<net::Channel*>& channels) {
        return std::make_unique<moe::MoeMaster>(model, channels);
      });
}

}  // namespace teamnet::load
