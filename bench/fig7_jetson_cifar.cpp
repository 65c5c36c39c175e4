// Reproduces Figure 7: CIFAR image classification with SS-26 baseline vs
// TeamNet 2xSS-14 and 4xSS-8. (a) On Jetson CPUs more experts -> faster;
// (b) on Jetson GPUs two experts are the sweet spot because the fixed WiFi
// cost eats the gain from the smallest model.
#include <cstdio>

#include "bench_common.hpp"

namespace teamnet::bench {
namespace {

void run_device(const CifarSetup& setup, nn::ShakeShakeNet& baseline,
                const TrainedTeam& team2, const TrainedTeam& team4,
                const sim::DeviceProfile& device, char tag) {
  sim::ScenarioConfig cfg;
  cfg.device = device;
  cfg.link = sim::socket_link();
  cfg.num_queries = 20;

  std::vector<PaperColumn> columns;
  columns.push_back({"SS-26 (baseline)",
                     sim::run_baseline(baseline, setup.test, cfg), -1, -1});
  columns.push_back({"2 x SS-14 (TeamNet)",
                     sim::run_teamnet(team2.expert_ptrs(), setup.test, cfg), -1,
                     -1});
  columns.push_back({"4 x SS-8 (TeamNet)",
                     sim::run_teamnet(team4.expert_ptrs(), setup.test, cfg), -1,
                     -1});
  print_comparison_table(std::string("Figure 7(") + tag + ") " + device.name,
                         columns, device.uses_gpu);

  const auto& b = columns[0].measured;
  const auto& t2 = columns[1].measured;
  const auto& t4 = columns[2].measured;
  if (!device.uses_gpu) {
    std::printf("shape check (7a: more experts -> faster on CPU): %s "
                "(%.1f > %.1f > %.1f ms)\n",
                (b.latency_ms > t2.latency_ms && t2.latency_ms > t4.latency_ms)
                    ? "OK"
                    : "MISMATCH",
                b.latency_ms, t2.latency_ms, t4.latency_ms);
  } else {
    std::printf("shape check (7b: 2 experts fastest on GPU): %s "
                "(baseline %.2f, x2 %.2f, x4 %.2f ms)\n",
                (t2.latency_ms < b.latency_ms && t2.latency_ms < t4.latency_ms)
                    ? "OK"
                    : "MISMATCH",
                b.latency_ms, t2.latency_ms, t4.latency_ms);
  }
}

int main_impl(int argc, char** argv) {
  Options opts = parse_options(argc, argv);
  print_banner("Figure 7 — CIFAR on Jetson TX2 CPUs and GPUs",
               "Figure 7(a), 7(b)");

  CifarSetup setup = cifar_setup(opts);
  auto baseline = train_cifar_baseline(setup, opts);
  auto team2 = train_cifar_teamnet(setup, 2, opts);
  auto team4 = train_cifar_teamnet(setup, 4, opts);

  run_device(setup, *baseline, team2, team4, sim::jetson_tx2_cpu(), 'a');
  run_device(setup, *baseline, team2, team4, sim::jetson_tx2_gpu(), 'b');
  write_observability_outputs(opts);
  return 0;
}

}  // namespace
}  // namespace teamnet::bench

int main(int argc, char** argv) { return teamnet::bench::main_impl(argc, argv); }
