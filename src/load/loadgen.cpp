#include "load/loadgen.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/collab.hpp"
#include "obs/metrics.hpp"
#include "obs/percentile.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/des/des_channel.hpp"
#include "sim/driver_util.hpp"

namespace teamnet::load {

/// The TeamNet fleet's master event loop on the discrete-event clock.
/// Node 0 waits in DesChannel::recv_any on its own worker channels for
/// whichever comes first: a worker reply, the next arrival, or the earliest
/// query deadline. A reply goes to the query it names and completes it
/// once its gather target is met; an arrival is dispatched at once — or,
/// if it came while the master was busy with a local forward, as soon as
/// that forward ends. Replies that
/// landed by then are read first: reading costs no virtual time, so their
/// queries complete at the earliest instant the master could see them. A
/// query whose target the local answer already meets (a quorum of one)
/// falls due at once. Every arrived query is in flight; a closed loop's
/// population bounds the depth. The loop ends once every query completed
/// and every reply was read.
LoadResult run_teamnet_load(const std::vector<nn::Module*>& experts,
                            const data::Dataset& test,
                            const sim::ScenarioConfig& config,
                            const LoadConfig& load) {
  TEAMNET_CHECK_MSG(
      load.warmup_queries >= 0 && load.warmup_queries < load.num_queries,
      "warmup_queries must be in [0, num_queries)");

  sim::Fleet fleet("TeamNet-load", config,
                   {.experts = experts, .num_queries = load.num_queries});
  net::CollaborativeMaster master(*experts[0], fleet.worker_channels());
  fleet.attach(master);
  master.set_worker_timeout(load.worker_timeout_s);
  master.set_gather_quorum(load.gather_quorum);

  const auto rows =
      sample_load_rows(test, load.num_queries, load.query_seed,
                       load.zipf_exponent);
  auto process = make_arrival_process(load.arrival);

  auto& registry = obs::MetricsRegistry::instance();
  auto& arrivals_counter = registry.counter("load.arrivals");
  auto& completions_counter = registry.counter("load.completions");
  // Coarse decade edges (ms): a live view only; LoadResult's percentiles
  // are exact over the records.
  auto& latency_histogram = registry.histogram(
      "load.latency_ms", {0.1, 1.0, 10.0, 100.0, 1e3, 1e4});

  // records[q] is query id q+1: the master issues ids from 1 in arrival
  // order.
  std::vector<QueryRecord> records(rows.size());
  int correct = 0;
  std::size_t completed = 0;
  auto complete = [&](std::int64_t qid) {
    const auto res = master.complete(qid);
    QueryRecord& record = records[static_cast<std::size_t>(qid - 1)];
    record.completion_s = fleet.now();
    record.prediction = res.predictions[0];
    record.chosen = res.chosen[0];
    record.correct =
        record.prediction == test.labels[static_cast<std::size_t>(record.row)];
    record.degradation = static_cast<int>(res.degradation);
    if (record.correct) ++correct;
    process->on_complete(record.completion_s);
    completions_counter.increment();
    latency_histogram.observe(1e3 * (record.completion_s - record.arrival_s));
    ++completed;
  };

  auto& recorder = obs::TimelineRecorder::instance();
  fleet.record_timelines();
  // Every worker answers every Infer in a fault-free fleet. Reading the
  // replies a quorum or a deadline left behind (stale by then) before
  // shutdown keeps the traffic totals whole and closes their flows.
  const std::size_t replies_due =
      rows.size() * fleet.worker_channels().size();
  std::size_t replies = 0;
  std::size_t issued = 0;
  while (completed < rows.size() || replies < replies_due) {
    const double arrival = issued < rows.size()
                               ? process->peek_arrival()
                               : std::numeric_limits<double>::infinity();
    const double until =
        std::max(fleet.now(), std::min(arrival, master.next_due()));
    if (auto got =
            sim::des::DesChannel::recv_any(fleet.worker_channels(), until)) {
      ++replies;
      if (const std::int64_t qid = master.deliver(got->first, got->second)) {
        complete(qid);
      }
      continue;
    }
    // Woken at `until`: a query fell due, or the next one arrived.
    if (const std::int64_t qid = master.due()) {
      complete(qid);
      continue;
    }
    if (arrival > fleet.now()) continue;
    const double t_arrival = process->next_arrival(fleet.now());
    arrivals_counter.increment();
    obs::trace_instant("load.arrival");
    recorder.note_arrival(t_arrival);
    records[issued].arrival_s = t_arrival;
    records[issued].row = rows[issued];
    master.submit(sim::query_row_tensor(test, rows[issued]));
    ++issued;
  }

  LoadResult result;
  result.schedule_digest = fleet.finish(master);
  const std::vector<obs::QueryTimeline> timelines = fleet.take_timelines();
  result.approach = "TeamNet";
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

  summarize_records(result);
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
  return result;
}

void summarize_records(LoadResult& result) {
  const auto& records = result.records;
  const std::size_t warmup = static_cast<std::size_t>(result.warmup_queries);
  result.warmup = make_phase_stats(records, 0, warmup);
  result.steady = make_phase_stats(records, warmup, records.size());
  std::vector<double> steady_ms;
  steady_ms.reserve(records.size() - warmup);
  for (std::size_t i = warmup; i < records.size(); ++i) {
    steady_ms.push_back(1e3 * (records[i].completion_s - records[i].arrival_s));
  }
  result.offered_qps = result.steady.offered_qps();
  result.achieved_qps = result.steady.achieved_qps();
  result.p50_ms = obs::nearest_rank_percentile(steady_ms, 50.0);
  result.p90_ms = obs::nearest_rank_percentile(steady_ms, 90.0);
  result.p99_ms = obs::nearest_rank_percentile(steady_ms, 99.0);
  result.p999_ms = obs::nearest_rank_percentile(steady_ms, 99.9);
  result.mean_ms = obs::sample_mean(steady_ms);
  result.max_ms = obs::nearest_rank_percentile(steady_ms, 100.0);
  result.mean_inflight = result.steady.mean_inflight();
}

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

}  // namespace teamnet::load
