// Latency-attribution sweep (DESIGN.md §15): the TeamNet serving path
// under seeded arrival processes, with every query's arrival→completion
// latency decomposed exactly — an end-to-end master-side partition and a
// critical-path partition through the broadcast→gather DAG — and folded
// into per-phase totals, a dominant-phase census, and straggler-slack
// distributions. Each row states its steady sample count `n`; a
// percentile with fewer than ten samples beyond it is null (and "-" in
// the table), so at --quick (n = 32) p99 is not published.
//
// The point of the sweep: WHERE the latency goes as load rises. The
// pipelined master dispatches every query on arrival, so the shared
// medium is the resource queries wait for: at k=2 the critical path is
// airtime + propagation; from k=4 the unicast broadcast's frames queue
// behind each other even at low load, and as the rate nears the medium's
// capacity the medium waits own the path. Master-side queueing is near
// zero — the queue moved from the master to the air.
//
// On the discrete-event clock every attribution telescopes bit-exactly
// (reconciled == queries, max_residual_ns == 0) and both --json and
// --breakdown are byte-stable across same-seed runs; the
// checked-in BENCH_breakdown.json freezes the flat --json rows, gated in
// CI by tools/bench_compare.py, while the rich --breakdown document is
// gated by double-run byte identity.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "load/breakdown.hpp"
#include "load/loadgen.hpp"
#include "obs/percentile.hpp"

namespace teamnet::bench {
namespace {

std::vector<std::pair<std::string, double>> extras(
    const load::LoadResult& r, const load::BreakdownSummary& s) {
  const double queries = s.queries > 0 ? static_cast<double>(s.queries) : 1.0;
  const auto n = static_cast<std::size_t>(r.steady.queries);
  return {{"offered_qps", r.offered_qps},
          {"achieved_qps", r.achieved_qps},
          {"n", static_cast<double>(n)},
          {"p50_ms", obs::published_percentile(r.p50_ms, n, 50.0)},
          {"p99_ms", obs::published_percentile(r.p99_ms, n, 99.0)},
          {"mean_ms", r.mean_ms},
          {"warmup_queries", static_cast<double>(r.warmup_queries)},
          {"reconciled_pct",
           100.0 * static_cast<double>(s.reconciled) / queries},
          {"max_residual_ns", static_cast<double>(s.max_residual_ns)},
          {"pct_crit_queueing",
           100.0 * s.kind_share(obs::CritKind::queueing)},
          {"pct_crit_serialization",
           100.0 * s.kind_share(obs::CritKind::serialization)},
          {"pct_crit_compute", 100.0 * s.kind_share(obs::CritKind::compute)},
          {"pct_crit_transit", 100.0 * s.kind_share(obs::CritKind::transit)},
          {"dom_queueing_pct",
           100.0 * s.dominant_kind_fraction(obs::CritKind::queueing)},
          {"dom_serialization_pct",
           100.0 * s.dominant_kind_fraction(obs::CritKind::serialization)},
          {"dom_compute_pct",
           100.0 * s.dominant_kind_fraction(obs::CritKind::compute)},
          {"dom_transit_pct",
           100.0 * s.dominant_kind_fraction(obs::CritKind::transit)},
          {"dominant_share_pct", 100.0 * s.crit_share(s.dominant_phase)},
          {"mean_slack_ms", obs::sample_mean(s.straggler_slack_ms)},
          {"quorum_queries", static_cast<double>(s.levels[1].queries)}};
}

int main_impl(int argc, char** argv) {
  Options opts = parse_options(argc, argv);
  print_banner("Latency attribution — critical-path breakdown sweep",
               "perf analysis extension; not a paper table");

  MnistSetup setup = mnist_setup(opts);

  sim::ScenarioConfig cfg;
  cfg.link = sim::socket_link();

  load::LoadConfig base;
  base.num_queries = opts.quick ? 40 : 200;
  base.warmup_queries = opts.quick ? 8 : 20;

  JsonReport report(opts, "latency_breakdown");
  BreakdownReport breakdown(opts, "latency_breakdown");
  Table table({"arrival", "nodes", "level", "p50 (ms)", "p99 (ms)",
               "top of critical path", "queue %", "serial %", "compute %",
               "transit %", "slack (ms)"});

  const int team_sizes[] = {2, 4, 8};
  const double rates[] = {50.0, 200.0};

  auto run_cell = [&](int k, const load::LoadConfig& load_cfg,
                      const std::string& level, const std::string& prefix) {
    auto team = train_mnist_teamnet(setup, k, opts);
    const auto r =
        load::run_teamnet_load(team.expert_ptrs(), setup.test, cfg, load_cfg);
    const auto summary = load::summarize_attributions(
        r.attributions, static_cast<std::size_t>(load_cfg.warmup_queries));
    const std::string label = prefix + load::to_string(load_cfg.arrival.kind) +
                              " k" + std::to_string(k) + " " + level;
    report.add(label, as_scenario(r), extras(r, summary));
    breakdown.add(label, summary);
    const auto n = static_cast<std::size_t>(r.steady.queries);
    table.add_row(
        {prefix + r.arrival, std::to_string(k), level,
         Table::num(obs::published_percentile(r.p50_ms, n, 50.0), 2),
         Table::num(obs::published_percentile(r.p99_ms, n, 99.0), 2),
         obs::to_string(summary.dominant_phase),
         Table::num(100.0 * summary.kind_share(obs::CritKind::queueing), 1),
         Table::num(
             100.0 * summary.kind_share(obs::CritKind::serialization), 1),
         Table::num(100.0 * summary.kind_share(obs::CritKind::compute), 1),
         Table::num(100.0 * summary.kind_share(obs::CritKind::transit), 1),
         Table::num(obs::sample_mean(summary.straggler_slack_ms), 2)});
  };

  for (const load::ArrivalKind kind :
       {load::ArrivalKind::open_poisson, load::ArrivalKind::bursty}) {
    for (const int k : team_sizes) {
      for (int level = 0; level < 2; ++level) {
        load::LoadConfig load_cfg = base;
        load_cfg.arrival.kind = kind;
        load_cfg.arrival.seed = 1000 + static_cast<std::uint64_t>(level);
        load_cfg.arrival.rate_qps = rates[level];
        run_cell(k, load_cfg, Table::num(rates[level], 0) + " q/s", "");
      }
    }
  }

  // Quorum leg: a bounded gather (quorum 2 — the master plus the first of
  // 3 workers — under a 6 ms deadline) at the overload rate exercises the
  // per-DegradationLevel split in the report. The pipelined master
  // completes each query the moment its quorum is in, so even this
  // fault-free run reports quorum-level queries; the stragglers' replies
  // land later and are discarded as stale.
  {
    load::LoadConfig load_cfg = base;
    load_cfg.arrival.kind = load::ArrivalKind::open_poisson;
    load_cfg.arrival.rate_qps = rates[1];
    load_cfg.arrival.seed = 3000;
    load_cfg.worker_timeout_s = 0.006;
    load_cfg.gather_quorum = 2;
    run_cell(4, load_cfg, Table::num(rates[1], 0) + " q/s", "quorum ");
  }

  std::printf("%s", table.to_string().c_str());
  report.write();
  breakdown.write();
  std::printf(
      "\nexpected shape: the pipelined master dispatches every query on\n"
      "arrival, so queries wait for the shared medium, not the master. At\n"
      "k=2 the critical path is the wire (airtime + propagation); from\n"
      "k=4 the unicast broadcast's frames queue behind each other even at\n"
      "50 q/s, and as the rate nears the medium's capacity (k=8 at 200\n"
      "q/s) the medium waits (queueing) own the critical path. Every\n"
      "query's two partitions telescope bit-exactly under discrete_event\n"
      "(reconciled == queries, max_residual_ns == 0).\n");
  write_observability_outputs(opts);
  return 0;
}

}  // namespace
}  // namespace teamnet::bench

int main(int argc, char** argv) { return teamnet::bench::main_impl(argc, argv); }
