// Load-generation sweep (DESIGN.md §14): the TeamNet serving path under
// seeded arrival processes — open-loop Poisson, closed-loop with think
// time, bursty diurnal-style waves — across team sizes and offered loads,
// reporting steady-state throughput and exact nearest-rank latency
// percentiles. Each row states its steady sample count `n`; a percentile
// with fewer than ten samples beyond it is null (and "-" in the table), so
// at --quick (n = 32) only p50, mean and max are published. Latency here
// is ARRIVAL-to-completion, so an
// open-loop rate above the service capacity shows up as queueing delay in
// the tail — the perf behaviour the paper-table benches (one query at a
// time) cannot express.
//
// On the discrete-event clock the whole sweep is bit-reproducible from
// the seeds, so --json output is byte-stable across same-seed runs; the
// checked-in BENCH_loadgen.json is the frozen --quick snapshot, gated in
// CI by tools/bench_compare.py.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "load/loadgen.hpp"
#include "obs/percentile.hpp"

namespace teamnet::bench {
namespace {

std::vector<std::pair<std::string, double>> extras(
    const load::LoadResult& r) {
  const auto n = static_cast<std::size_t>(r.steady.queries);
  return {{"offered_qps", r.offered_qps},
          {"achieved_qps", r.achieved_qps},
          {"n", static_cast<double>(n)},
          {"p50_ms", obs::published_percentile(r.p50_ms, n, 50.0)},
          {"p90_ms", obs::published_percentile(r.p90_ms, n, 90.0)},
          {"p99_ms", obs::published_percentile(r.p99_ms, n, 99.0)},
          {"p999_ms", obs::published_percentile(r.p999_ms, n, 99.9)},
          {"mean_ms", r.mean_ms},
          {"max_ms", r.max_ms},
          {"mean_inflight", r.mean_inflight},
          {"warmup_queries", static_cast<double>(r.warmup_queries)}};
}

int main_impl(int argc, char** argv) {
  Options opts = parse_options(argc, argv);
  print_banner("Load generation — arrival-process x team-size sweep",
               "perf baseline extension; not a paper table");

  MnistSetup setup = mnist_setup(opts);

  sim::ScenarioConfig cfg;
  cfg.link = sim::socket_link();

  load::LoadConfig base;
  base.num_queries = opts.quick ? 40 : 200;
  base.warmup_queries = opts.quick ? 8 : 20;

  JsonReport report(opts, "loadgen_sweep");
  Table table({"arrival", "nodes", "level", "offered q/s", "achieved q/s",
               "p50 (ms)", "p99 (ms)", "p99.9 (ms)", "max (ms)", "inflight",
               "accuracy (%)"});

  const int team_sizes[] = {2, 4, 8};
  // Two load levels per arrival shape: comfortably under the medium's
  // capacity, and near or past it (open-loop then queues; closed-loop
  // self-limits at a deeper population instead).
  const double rates[] = {50.0, 200.0};
  const int populations[] = {2, 8};

  auto run_cell = [&](int k, const load::LoadConfig& load_cfg,
                      const std::string& level, const std::string& prefix) {
    auto team = train_mnist_teamnet(setup, k, opts);
    const auto r =
        load::run_teamnet_load(team.expert_ptrs(), setup.test, cfg, load_cfg);
    const std::string label = prefix + load::to_string(load_cfg.arrival.kind) +
                              " k" + std::to_string(k) + " " + level;
    report.add(label, as_scenario(r), extras(r));
    const auto n = static_cast<std::size_t>(r.steady.queries);
    table.add_row({prefix + r.arrival, std::to_string(k), level,
                   Table::num(r.offered_qps, 1), Table::num(r.achieved_qps, 1),
                   Table::num(obs::published_percentile(r.p50_ms, n, 50.0), 2),
                   Table::num(obs::published_percentile(r.p99_ms, n, 99.0), 2),
                   Table::num(obs::published_percentile(r.p999_ms, n, 99.9), 2),
                   Table::num(r.max_ms, 2),
                   Table::num(r.mean_inflight, 2),
                   Table::num(r.accuracy_pct, 1)});
  };

  for (const load::ArrivalKind kind :
       {load::ArrivalKind::open_poisson, load::ArrivalKind::closed_loop,
        load::ArrivalKind::bursty}) {
    for (const int k : team_sizes) {
      for (int level = 0; level < 2; ++level) {
        load::LoadConfig load_cfg = base;
        load_cfg.arrival.kind = kind;
        load_cfg.arrival.seed = 1000 + static_cast<std::uint64_t>(level);
        std::string level_name;
        if (kind == load::ArrivalKind::closed_loop) {
          load_cfg.arrival.clients = populations[level];
          level_name = "c=" + std::to_string(populations[level]);
        } else {
          load_cfg.arrival.rate_qps = rates[level];
          level_name = Table::num(rates[level], 0) + " q/s";
        }
        run_cell(k, load_cfg, level_name, "");
      }
    }
  }

  // Hot-key skew leg: the same open-loop underload with Zipf(1.2) class
  // traffic, one row per team size — accuracy shifts with which classes
  // the seed makes hot, latency should not.
  for (const int k : team_sizes) {
    load::LoadConfig load_cfg = base;
    load_cfg.arrival.kind = load::ArrivalKind::open_poisson;
    load_cfg.arrival.rate_qps = rates[0];
    load_cfg.arrival.seed = 2000;
    load_cfg.zipf_exponent = 1.2;
    run_cell(k, load_cfg, Table::num(rates[0], 0) + " q/s", "zipf1.2 ");
  }

  std::printf("%s", table.to_string().c_str());
  report.write();
  std::printf(
      "\nexpected shape: the pipelined master keeps every arrived query in\n"
      "flight, so the shared medium sets capacity (~943 q/s at k=2, ~314\n"
      "at k=4, ~135 at k=8). Open-loop at 200 q/s is past it at k=8, where\n"
      "latency includes queueing delay and the tail grows with the run;\n"
      "the closed loop self-limits (in-flight <= population) and at c=8\n"
      "its achieved rate approaches the medium cap; the bursty wave lands\n"
      "between its trough and crest. Larger teams put more frames on the\n"
      "air per query, so p50 rises with k.\n");
  write_observability_outputs(opts);
  return 0;
}

}  // namespace
}  // namespace teamnet::bench

int main(int argc, char** argv) { return teamnet::bench::main_impl(argc, argv); }
