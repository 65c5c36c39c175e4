// Reproduces Figure 5: handwritten digit recognition on Raspberry Pi 3B+.
// With more experts in TeamNet, inference gets faster and per-node memory /
// CPU consumption drops, while accuracy is not compromised.
#include <cstdio>

#include "bench_common.hpp"

namespace teamnet::bench {
namespace {

int main_impl(int argc, char** argv) {
  Options opts = parse_options(argc, argv);
  print_banner("Figure 5 — MNIST on Raspberry Pi 3 Model B+", "Figure 5");

  MnistSetup setup = mnist_setup(opts);
  auto baseline = train_mnist_baseline(setup, opts);
  auto team2 = train_mnist_teamnet(setup, 2, opts);
  auto team4 = train_mnist_teamnet(setup, 4, opts);

  sim::ScenarioConfig cfg;
  cfg.device = sim::raspberry_pi_3b();
  cfg.link = sim::socket_link();
  cfg.num_queries = 40;

  std::vector<PaperColumn> columns;
  columns.push_back({"MLP-8 (baseline)",
                     sim::run_baseline(*baseline, setup.test, cfg), -1, -1});
  columns.push_back({"2 x MLP-4 (TeamNet)",
                     sim::run_teamnet(team2.expert_ptrs(), setup.test, cfg), -1,
                     -1});
  columns.push_back({"4 x MLP-2 (TeamNet)",
                     sim::run_teamnet(team4.expert_ptrs(), setup.test, cfg), -1,
                     -1});
  print_comparison_table("Figure 5 (RPi 3B+, per-node metrics)", columns,
                         /*show_gpu_row=*/false);

  // The figure's qualitative claims, checked explicitly.
  const auto& b = columns[0].measured;
  const auto& t2 = columns[1].measured;
  const auto& t4 = columns[2].measured;
  std::printf("\nshape checks (paper: more experts -> faster, leaner):\n");
  std::printf("  latency   %s  (%.2f > %.2f > %.2f ms)\n",
              (b.latency_ms > t2.latency_ms && t2.latency_ms > t4.latency_ms)
                  ? "OK"
                  : "MISMATCH",
              b.latency_ms, t2.latency_ms, t4.latency_ms);
  std::printf("  memory    %s  (%.1f > %.1f > %.1f %%)\n",
              (b.usage.memory_pct > t2.usage.memory_pct &&
               t2.usage.memory_pct > t4.usage.memory_pct)
                  ? "OK"
                  : "MISMATCH",
              b.usage.memory_pct, t2.usage.memory_pct, t4.usage.memory_pct);
  std::printf("  accuracy  %s  (baseline %.1f vs TeamNet %.1f / %.1f %%)\n",
              (t2.accuracy_pct + 3.0 > b.accuracy_pct &&
               t4.accuracy_pct + 5.0 > b.accuracy_pct)
                  ? "OK"
                  : "MISMATCH",
              b.accuracy_pct, t2.accuracy_pct, t4.accuracy_pct);
  write_observability_outputs(opts);
  return 0;
}

}  // namespace
}  // namespace teamnet::bench

int main(int argc, char** argv) { return teamnet::bench::main_impl(argc, argv); }
