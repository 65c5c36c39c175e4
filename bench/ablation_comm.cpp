// Ablation: communication pattern. Quantifies WHY TeamNet wins against the
// model-parallel baselines: one broadcast + one gather per query versus one
// collective per layer. Reports messages, bytes and the latency breakdown
// on the same device/link for the same MNIST workload.
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"

namespace teamnet::bench {
namespace {

int main_impl(int argc, char** argv) {
  Options opts = parse_options(argc, argv);
  print_banner("Ablation — communication pattern (one-shot vs per-layer)",
               "§VI-C third experiment's explanation");

  MnistSetup setup = mnist_setup(opts);
  auto baseline = train_mnist_baseline(setup, opts);
  auto team2 = train_mnist_teamnet(setup, 2, opts);
  auto team4 = train_mnist_teamnet(setup, 4, opts);

  sim::ScenarioConfig cfg;
  cfg.num_queries = 40;
  // Same link for both patterns so only the pattern differs.
  cfg.link = sim::socket_link();

  Table table({"approach", "nodes", "messages/query", "KB/query",
               "latency (ms)"});
  auto add = [&](const sim::ScenarioResult& r) {
    table.add_row({r.approach, std::to_string(r.num_nodes),
                   Table::num(r.messages_per_query, 1),
                   Table::num(r.bytes_per_query / 1e3, 2),
                   Table::num(r.latency_ms, 2)});
  };
  add(sim::run_teamnet(team2.expert_ptrs(), setup.test, cfg));
  add(sim::run_teamnet(team4.expert_ptrs(), setup.test, cfg));
  add(sim::run_mpi_matrix(*baseline, setup.test, cfg, 2));
  add(sim::run_mpi_matrix(*baseline, setup.test, cfg, 4));
  std::printf("%s", table.to_string().c_str());
  std::printf("\nexpected shape: TeamNet's message count is K-1 broadcasts +\n"
              "K-1 gathers per query regardless of model depth; MPI-Matrix\n"
              "pays ~2(K-1) messages per Linear layer, so its latency scales\n"
              "with depth x nodes and dominates everything else.\n");
  write_observability_outputs(opts);
  return 0;
}

}  // namespace
}  // namespace teamnet::bench

int main(int argc, char** argv) { return teamnet::bench::main_impl(argc, argv); }
