// Ablation (paper §III): centralized gather-at-the-master selection versus
// decentralized allgather-of-summaries selection. Decentralized selection
// leaves every node holding the final answer (no coordinator, no single
// point of failure) at the cost of extra summary messages. This bench
// measures both protocols' traffic and virtual latency on the same team.
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"

namespace teamnet::bench {
namespace {

int main_impl(int argc, char** argv) {
  Options opts = parse_options(argc, argv);
  print_banner("Ablation — centralized vs decentralized result selection",
               "§III step 5 ('can be done distributedly')");

  MnistSetup setup = mnist_setup(opts);
  JsonReport report(opts, "ablation_decentralized");
  Table table({"protocol", "nodes", "messages/query", "KB/query",
               "latency (ms)", "who knows the answer"});
  for (int k : {2, 4}) {
    TrainedTeam team = train_mnist_teamnet(setup, k, opts);
    sim::ScenarioConfig cfg;
    cfg.num_queries = 30;
    apply_scheduler_options(cfg, opts);
    cfg.link = sim::socket_link();

    auto centralized = sim::run_teamnet(team.expert_ptrs(), setup.test, cfg);
    report.add("centralized k=" + std::to_string(k), centralized);
    table.add_row({"centralized", std::to_string(k),
                   Table::num(centralized.messages_per_query, 1),
                   Table::num(centralized.bytes_per_query / 1e3, 2),
                   Table::num(centralized.latency_ms, 2), "master only"});

    auto decentralized =
        sim::run_teamnet_decentralized(team.expert_ptrs(), setup.test, cfg);
    report.add("decentralized k=" + std::to_string(k), decentralized);
    table.add_row({"decentralized", std::to_string(k),
                   Table::num(decentralized.messages_per_query, 1),
                   Table::num(decentralized.bytes_per_query / 1e3, 2),
                   Table::num(decentralized.latency_ms, 2), "every node"});
  }
  std::printf("%s", table.to_string().c_str());
  report.write();
  std::printf("\nexpected shape: decentralized selection pays extra summary\n"
              "messages (allgather + barrier) for coordinator-free agreement;\n"
              "the gap grows with the number of nodes.\n");
  write_observability_outputs(opts);
  return 0;
}

}  // namespace
}  // namespace teamnet::bench

int main(int argc, char** argv) { return teamnet::bench::main_impl(argc, argv); }
