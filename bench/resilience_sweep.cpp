// Degradation-plane bench (DESIGN.md §13): p50/p99 latency and the
// degradation-level mix vs injected drop rate, with the full gather
// (quorum 0, no hedging) side by side against the SLO-aware mode
// (quorum gather + hedged dispatch to backup replicas + circuit
// breakers). The headline shape: at >= 20% drops the full gather's p99
// pins at the gather deadline (a single lost reply burns the whole SLO)
// while quorum + hedging keeps the tail bounded below it, trading a
// recorded fraction of quorum/local-only gathers for the latency win.
// On the discrete-event clock every number is bit-reproducible, so --json
// output is byte-stable across same-seed runs; the checked-in
// BENCH_resilience.json is the frozen --quick snapshot of this sweep (the
// repo's first bench baseline).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"

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
  return {{"p50_ms", r.p50_ms},
          {"p99_ms", r.p99_ms},
          {"full_gathers", static_cast<double>(r.full_gathers)},
          {"quorum_gathers", static_cast<double>(r.quorum_gathers)},
          {"local_only_gathers", static_cast<double>(r.local_only_gathers)},
          {"hedges_sent", static_cast<double>(r.hedges_sent)},
          {"hedge_wins", static_cast<double>(r.hedge_wins)},
          {"hedge_duplicates", static_cast<double>(r.hedge_duplicates)},
          {"breaker_opens", static_cast<double>(r.breaker_opens)},
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
  Table table({"mode", "drop rate", "p50 (ms)", "p99 (ms)", "accuracy (%)",
               "full/quorum/local", "hedges (sent/win/dup)", "opens",
               "expired"});
  const double rates[] = {0.0, 0.1, 0.2, 0.3};
  for (double rate : rates) {
    for (int degraded = 0; degraded <= 1; ++degraded) {
      sim::ResilienceConfig res;
      res.faults.seed = 42;
      res.faults.drop_prob = rate;
      res.faults.duplicate_prob = rate / 4;
      res.worker_timeout_s = 0.05;
      res.probe_interval = 2;
      if (degraded != 0) {
        res.quorum = 3;  // local expert + any 2 of the 3 remote answers
        res.hedging = true;
      }
      const auto r = sim::run_teamnet_resilience(team4.expert_ptrs(),
                                                 setup.test, cfg, res);
      const std::string mode = degraded != 0 ? "quorum+hedge" : "full gather";
      report.add(mode + " drop " + Table::num(rate, 2), r.scenario,
                 extras(r));
      table.add_row({mode, Table::num(rate, 2), Table::num(r.p50_ms, 2),
                     Table::num(r.p99_ms, 2),
                     Table::num(r.scenario.accuracy_pct, 1), mix(r),
                     std::to_string(r.hedges_sent) + "/" +
                         std::to_string(r.hedge_wins) + "/" +
                         std::to_string(r.hedge_duplicates),
                     std::to_string(r.breaker_opens),
                     std::to_string(r.expired_drops)});
      // The acceptance property the suite also asserts (resilience_test):
      // with drops at or above 20%, the degraded mode's p99 stays under
      // the gather SLO while the full gather burns it on lost replies.
      if (degraded != 0 && rate >= 0.2) {
        std::printf("drop %.2f: quorum+hedge p99 %.2f ms vs SLO %.0f ms — %s\n",
                    rate, r.p99_ms, slo_ms,
                    r.p99_ms < slo_ms ? "bounded" : "NOT bounded");
      }
    }
  }
  std::printf("%s", table.to_string().c_str());
  report.write();
  std::printf(
      "\nexpected shape: the full gather's p99 climbs to the %.0f ms SLO as\n"
      "soon as drops appear (one lost reply = one timed-out gather), while\n"
      "quorum+hedge completes at 3 of 4 answers or a backup replica's reply\n"
      "and keeps p99 below the SLO at every swept drop rate; the\n"
      "full/quorum/local counters always sum to the query count.\n",
      slo_ms);
  write_observability_outputs(opts);
  return 0;
}

}  // namespace
}  // namespace teamnet::bench

int main(int argc, char** argv) { return teamnet::bench::main_impl(argc, argv); }
