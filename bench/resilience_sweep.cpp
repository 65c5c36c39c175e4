// Degradation-plane bench (DESIGN.md §13): p50/p99/max latency and the
// degradation-level mix vs injected drop rate, with the full gather
// (quorum 0, no hedging) side by side against the SLO-aware mode
// (quorum gather + hedged dispatch to backup replicas). The headline
// shape: at >= 20% drops the full gather's slowest query pins at the
// gather deadline (a single lost reply burns the whole SLO) while
// quorum + hedging keeps even the max below it, trading a recorded
// fraction of quorum/local-only gathers for the latency win. Each row
// states its sample count `n`; a percentile with fewer than ten samples
// beyond it is null (and "-" in the table), so at --quick (n = 20) p99 is
// not published and the max is the tail number. The "multicast " rows
// repeat quorum+hedge with each Infer as one group frame, every receiver
// rolling its own link's faults (DESIGN.md §9), and add the air bytes.
// On the discrete-event clock every number is bit-reproducible, so --json
// output is byte-stable across same-seed runs; the checked-in
// BENCH_resilience.json is the frozen --quick snapshot of this sweep (the
// repo's first bench baseline).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "obs/percentile.hpp"

namespace teamnet::bench {
namespace {

/// Share of queries that completed at each degradation level, as "a/b/c".
std::string mix(const sim::ResilienceResult& r) {
  return std::to_string(r.full_gathers) + "/" +
         std::to_string(r.quorum_gathers) + "/" +
         std::to_string(r.local_only_gathers);
}

std::vector<std::pair<std::string, double>> extras(
    const sim::ResilienceResult& r) {
  const std::size_t n = r.latency_ms.size();
  return {{"n", static_cast<double>(n)},
          {"p50_ms", obs::published_percentile(r.p50_ms, n, 50.0)},
          {"p99_ms", obs::published_percentile(r.p99_ms, n, 99.0)},
          {"max_ms", r.max_ms},
          {"full_gathers", static_cast<double>(r.full_gathers)},
          {"quorum_gathers", static_cast<double>(r.quorum_gathers)},
          {"local_only_gathers", static_cast<double>(r.local_only_gathers)},
          {"hedges_sent", static_cast<double>(r.hedges_sent)},
          {"hedge_wins", static_cast<double>(r.hedge_wins)},
          {"hedge_duplicates", static_cast<double>(r.hedge_duplicates)},
          {"expired_drops", static_cast<double>(r.expired_drops)},
          {"faults_injected", static_cast<double>(r.faults_injected)}};
}

int main_impl(int argc, char** argv) {
  Options opts = parse_options(argc, argv);
  print_banner("Resilience — SLO-aware degradation plane sweep",
               "robustness extension; not a paper table");

  MnistSetup setup = mnist_setup(opts);
  auto team4 = train_mnist_teamnet(setup, 4, opts);

  sim::ScenarioConfig cfg;
  cfg.num_queries = opts.quick ? 20 : 48;
  cfg.link = sim::socket_link();

  const double slo_ms = 0.05 * 1000.0;  // worker_timeout_s below, in ms
  JsonReport report(opts, "resilience_sweep");
  Table table({"mode", "drop rate", "p50 (ms)", "p99 (ms)", "max (ms)",
               "accuracy (%)", "full/quorum/local", "hedges (sent/win/dup)",
               "expired"});
  // One row: quorum+hedge (`degraded`) or the full gather at `rate`.
  auto run_row = [&](double rate, bool degraded, bool multicast) {
    sim::ResilienceConfig res;
    res.faults.seed = 42;
    res.faults.drop_prob = rate;
    res.faults.duplicate_prob = rate / 4;
    res.worker_timeout_s = 0.05;
    res.probe_interval = 2;
    res.multicast = multicast;
    if (degraded) {
      res.quorum = 3;  // local expert + any 2 of the 3 remote answers
      res.hedging = true;
    }
    const auto r =
        sim::run_teamnet_resilience(team4.expert_ptrs(), setup.test, cfg, res);
    const std::string mode = std::string(multicast ? "multicast " : "") +
                             (degraded ? "quorum+hedge" : "full gather");
    const std::size_t n = r.latency_ms.size();
    auto row = extras(r);
    if (multicast) {
      row.emplace_back("air_bytes_per_query", r.air_bytes_per_query);
    }
    report.add(mode + " drop " + Table::num(rate, 2), r.scenario, row);
    table.add_row({mode, Table::num(rate, 2),
                   Table::num(obs::published_percentile(r.p50_ms, n, 50.0), 2),
                   Table::num(obs::published_percentile(r.p99_ms, n, 99.0), 2),
                   Table::num(r.max_ms, 2),
                   Table::num(r.scenario.accuracy_pct, 1), mix(r),
                   std::to_string(r.hedges_sent) + "/" +
                       std::to_string(r.hedge_wins) + "/" +
                       std::to_string(r.hedge_duplicates),
                   std::to_string(r.expired_drops)});
    // The acceptance property the suite also asserts (resilience_test)
    // on p99: with drops at or above 20%, the degraded mode's slowest
    // query stays under the gather SLO while the full gather burns it
    // on lost replies.
    if (degraded && rate >= 0.2) {
      std::printf("drop %.2f: %s max %.2f ms vs SLO %.0f ms — %s\n", rate,
                  mode.c_str(), r.max_ms, slo_ms,
                  r.max_ms < slo_ms ? "bounded" : "NOT bounded");
    }
  };
  const double rates[] = {0.0, 0.1, 0.2, 0.3};
  // The unicast rows are the frozen baseline; the "multicast " rows repeat
  // quorum+hedge at every drop rate with each Infer as one group frame,
  // every receiver rolling its own link's faults.
  for (double rate : rates) {
    run_row(rate, /*degraded=*/false, /*multicast=*/false);
    run_row(rate, /*degraded=*/true, /*multicast=*/false);
  }
  for (double rate : rates) {
    run_row(rate, /*degraded=*/true, /*multicast=*/true);
  }
  std::printf("%s", table.to_string().c_str());
  report.write();
  std::printf(
      "\nexpected shape: the full gather's max climbs to the %.0f ms SLO as\n"
      "soon as drops appear (one lost reply = one timed-out gather), while\n"
      "quorum+hedge completes at 3 of 4 answers or a backup replica's reply\n"
      "and keeps the max below the SLO at every swept drop rate; the\n"
      "full/quorum/local counters always sum to the query count.\n",
      slo_ms);
  write_observability_outputs(opts);
  return 0;
}

}  // namespace
}  // namespace teamnet::bench

int main(int argc, char** argv) { return teamnet::bench::main_impl(argc, argv); }
