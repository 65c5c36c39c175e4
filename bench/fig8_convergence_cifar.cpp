// Reproduces Figure 8: convergence of per-expert data proportions on CIFAR.
// (a) K=2 drifts early (both experts know little, uncertainty judgments are
// noisy) then converges to 0.5; (b) K=4 converges to 0.25, later than K=2.
#include <cstdio>

#include "bench_common.hpp"

namespace teamnet::bench {
namespace {

int main_impl(int argc, char** argv) {
  Options opts = parse_options(argc, argv);
  print_banner("Figure 8 — gate convergence on CIFAR", "Figure 8(a), 8(b)");

  CifarSetup setup = cifar_setup(opts);
  auto team2 = train_cifar_teamnet(setup, 2, opts);
  auto team4 = train_cifar_teamnet(setup, 4, opts);

  print_convergence_series(team2.telemetry, 2);
  print_convergence_series(team4.telemetry, 4);

  // Full per-iteration series: into --json directly, and into the metrics
  // registry so a --metrics snapshot carries the same curves.
  JsonReport report(opts, "fig8_convergence_cifar");
  report.add_convergence("TeamNet x2", team2.telemetry);
  report.add_convergence("TeamNet x4", team4.telemetry);
  team2.telemetry.export_to_metrics("fig8.k2");
  team4.telemetry.export_to_metrics("fig8.k4");

  const int c2 = team2.telemetry.iterations_to_converge(0.15f, 5);
  const int c4 = team4.telemetry.iterations_to_converge(0.15f, 5);
  std::printf("\nconvergence iteration (|gamma - 1/K| < 0.15 for 5 iters): "
              "K=2 -> %d, K=4 -> %d\n", c2, c4);
  // At this reduced dataset scale (1.4k samples vs the paper's 50k) both
  // runs converge within the first epoch, so K=2/K=4 can land within a few
  // iterations of each other; require only that K=4 is not decisively
  // faster.
  std::printf("shape check (paper: K=4 converges later, ~32k iters at full "
              "scale; near-ties expected at 25x reduced scale): %s\n",
              (c2 >= 0 && (c4 < 0 || c4 + 10 >= c2)) ? "OK" : "MISMATCH");
  report.write();
  write_observability_outputs(opts);
  return 0;
}

}  // namespace
}  // namespace teamnet::bench

int main(int argc, char** argv) { return teamnet::bench::main_impl(argc, argv); }
