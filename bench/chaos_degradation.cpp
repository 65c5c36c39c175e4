// Chaos bench: graceful degradation under injected faults. Sweeps the
// per-message fault rate on every master<->worker link and reports how
// accuracy tracks the number of live experts and how latency grows with
// the fault rate (timed-out gathers cost the full deadline). A final run
// scripts a partition/heal cycle to show probation rejoin closing the
// accuracy gap again.
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"

namespace teamnet::bench {
namespace {

double mean_live(const sim::ResilienceResult& r) {
  double sum = 0.0;
  for (int live : r.live_nodes) sum += live;
  return r.live_nodes.empty() ? 0.0 : sum / static_cast<double>(r.live_nodes.size());
}

int main_impl(int argc, char** argv) {
  Options opts = parse_options(argc, argv);
  print_banner("Chaos — degradation under fault injection",
               "robustness extension; not a paper table");

  MnistSetup setup = mnist_setup(opts);
  auto team4 = train_mnist_teamnet(setup, 4, opts);

  sim::ScenarioConfig cfg;
  cfg.num_queries = opts.quick ? 24 : 60;
  cfg.link = sim::socket_link();

  JsonReport report(opts, "chaos_degradation");
  Table table({"fault rate", "accuracy (%)", "mean live nodes",
               "latency (ms)", "faults", "stale", "rejoins"});
  // A chaos run is a resilience run with the SLO machinery off: a gather
  // deadline plus probation/rejoin only.
  sim::ResilienceConfig base;
  base.faults.seed = 42;
  base.drop_expired = false;
  const double rates[] = {0.0, 0.05, 0.1, 0.2, 0.3};
  for (double rate : rates) {
    sim::ResilienceConfig chaos = base;
    chaos.faults.drop_prob = rate;
    chaos.faults.corrupt_prob = rate / 4;
    chaos.faults.duplicate_prob = rate / 4;
    auto r = sim::run_teamnet_resilience(team4.expert_ptrs(), setup.test, cfg,
                                         chaos);
    report.add("fault rate " + Table::num(rate, 2), r.scenario);
    table.add_row({Table::num(rate, 2),
                   Table::num(r.scenario.accuracy_pct, 1),
                   Table::num(mean_live(r), 2),
                   Table::num(r.scenario.latency_ms, 2),
                   std::to_string(r.faults_injected),
                   std::to_string(r.stale_replies),
                   std::to_string(r.rejoins)});
  }

  // Scripted partition/heal on worker 1: the probation machinery must bring
  // the worker back, so late-window accuracy matches the fault-free run.
  sim::ResilienceConfig split = base;
  split.partition_worker = 0;
  split.partition_from_query = cfg.num_queries / 4;
  split.heal_at_query = cfg.num_queries / 2;
  split.probe_interval = 1;
  auto healed = sim::run_teamnet_resilience(team4.expert_ptrs(), setup.test,
                                            cfg, split);
  report.add("partition+heal", healed.scenario);
  table.add_row({"partition+heal",
                 Table::num(healed.scenario.accuracy_pct, 1),
                 Table::num(mean_live(healed), 2),
                 Table::num(healed.scenario.latency_ms, 2),
                 std::to_string(healed.faults_injected),
                 std::to_string(healed.stale_replies),
                 std::to_string(healed.rejoins)});
  std::printf("%s", table.to_string().c_str());
  report.write();
  std::printf("\nexpected shape: accuracy decays gently with the fault rate\n"
              "(the selection degrades to the surviving experts rather than\n"
              "failing), latency rises as timed-out gathers burn the full\n"
              "deadline, and the partition+heal row ends with rejoins >= 1\n"
              "— the partitioned worker returns to the live set.\n");
  write_observability_outputs(opts);
  return 0;
}

}  // namespace
}  // namespace teamnet::bench

int main(int argc, char** argv) { return teamnet::bench::main_impl(argc, argv); }
