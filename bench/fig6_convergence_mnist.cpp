// Reproduces Figure 6: convergence of the proportion of training data
// assigned to each expert (MNIST). (a) two experts converge to 0.5;
// (b) four experts converge to 0.25; K=4 takes longer than K=2.
#include <cstdio>

#include "bench_common.hpp"

namespace teamnet::bench {
namespace {

void print_series(const core::ConvergenceTelemetry& tel, int k) {
  print_convergence_series(tel, k);
  const std::size_t total = tel.iterations();
  const int converged = tel.iterations_to_converge(0.15f, 5);
  if (converged >= 0) {
    std::printf("converged (|gamma - 1/K| < 0.15 for 5 iters) at iteration %d"
                " of %zu\n",
                converged, total);
  } else {
    std::printf("did not meet the strict convergence criterion within %zu"
                " iterations (see smoothed series above)\n",
                total);
  }
}

int main_impl(int argc, char** argv) {
  Options opts = parse_options(argc, argv);
  print_banner("Figure 6 — gate convergence on MNIST", "Figure 6(a), 6(b)");

  MnistSetup setup = mnist_setup(opts);
  auto team2 = train_mnist_teamnet(setup, 2, opts);
  auto team4 = train_mnist_teamnet(setup, 4, opts);

  print_series(team2.telemetry, 2);
  print_series(team4.telemetry, 4);

  // Full per-iteration series: into --json directly, and into the metrics
  // registry so a --metrics snapshot carries the same curves.
  JsonReport report(opts, "fig6_convergence_mnist");
  report.add_convergence("TeamNet x2", team2.telemetry);
  report.add_convergence("TeamNet x4", team4.telemetry);
  team2.telemetry.export_to_metrics("fig6.k2");
  team4.telemetry.export_to_metrics("fig6.k4");

  const int c2 = team2.telemetry.iterations_to_converge(0.15f, 5);
  const int c4 = team4.telemetry.iterations_to_converge(0.15f, 5);
  std::printf("\nshape check (paper: K=4 converges later than K=2, ~12k vs"
              " ~15k iters at full MNIST scale): K=2 -> %d, K=4 -> %d  %s\n",
              c2, c4,
              (c2 >= 0 && (c4 < 0 || c4 >= c2)) ? "OK" : "MISMATCH");
  report.write();
  write_observability_outputs(opts);
  return 0;
}

}  // namespace
}  // namespace teamnet::bench

int main(int argc, char** argv) { return teamnet::bench::main_impl(argc, argv); }
