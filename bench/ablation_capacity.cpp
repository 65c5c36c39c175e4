// Ablation (paper §VII future work): capacity-weighted partitioning for
// heterogeneous edge fleets. A Jetson paired with a Raspberry Pi should not
// split the data 50/50 — the gate's set points become w_i / sum(w). This
// bench trains a 2-expert team with weights 1:1 vs 3:1 and reports the
// achieved data shares, per-node latency when the big expert is placed on
// the fast device, and accuracy.
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/teamnet.hpp"

namespace teamnet::bench {
namespace {

struct Outcome {
  std::string label;
  std::vector<float> final_share;
  double accuracy_pct;
};

Outcome run(const MnistSetup& setup, std::vector<float> weights,
            const Options& opts) {
  core::TeamNetConfig cfg;
  cfg.num_experts = 2;
  cfg.epochs = opts.quick ? 3 : 5;
  cfg.batch_size = 64;
  cfg.gate.capacity_weights = weights;
  cfg.seed = 101;
  const nn::MlpConfig expert_cfg = mnist_expert_cfg(setup, 2);
  core::TeamNetTrainer trainer(cfg, [&](int, Rng& rng) -> nn::ModulePtr {
    return std::make_unique<nn::MlpNet>(expert_cfg, rng);
  });
  core::TeamNetEnsemble ensemble = trainer.train(setup.train());

  Outcome out;
  out.label = weights.empty()
                  ? "uniform (paper)"
                  : Table::num(weights[0], 0) + ":" + Table::num(weights[1], 0);
  const auto& tel = trainer.telemetry();
  out.final_share =
      tel.smoothed_gamma(tel.iterations() - 1, tel.iterations() / 4);
  out.accuracy_pct = 100.0 * ensemble.evaluate_accuracy(setup.test);
  return out;
}

int main_impl(int argc, char** argv) {
  Options opts = parse_options(argc, argv);
  print_banner("Ablation — capacity-weighted partitions (heterogeneous fleet)",
               "§VII future work: unequal partition objectives");

  MnistSetup setup = mnist_setup(opts);
  Table table({"capacity weights", "expert-1 share", "expert-2 share",
               "accuracy (%)"});
  for (auto weights : std::vector<std::vector<float>>{
           {}, {2.0f, 1.0f}, {3.0f, 1.0f}}) {
    Outcome o = run(setup, weights, opts);
    table.add_row({o.label, Table::num(o.final_share[0], 2),
                   Table::num(o.final_share[1], 2),
                   Table::num(o.accuracy_pct, 1)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nexpected shape: the achieved data share tracks the declared\n"
              "capacity ratio (0.50, ~0.67, ~0.75 for expert 1) without a\n"
              "large accuracy penalty.\n");

  // Part 2: why it matters — a heterogeneous fleet (Jetson + RPi) is gated
  // by its slowest node. Matching expert size to device speed shortens the
  // critical path versus equal-size experts.
  std::printf("\n--- heterogeneous fleet: Jetson CPU (node 1) + RPi (node 2)"
              " ---\n");
  Rng rng(202);
  nn::MlpConfig big = mnist_expert_cfg(setup, 2);   // MLP-4
  nn::MlpConfig small = big;
  small.depth = 2;                                  // MLP-2 for the slow node
  nn::MlpNet equal_a(big, rng), equal_b(big, rng);
  nn::MlpNet matched_big(big, rng), matched_small(small, rng);
  for (nn::Module* m : {static_cast<nn::Module*>(&equal_a), 
                        static_cast<nn::Module*>(&equal_b),
                        static_cast<nn::Module*>(&matched_big),
                        static_cast<nn::Module*>(&matched_small)}) {
    m->set_training(false);
  }

  sim::ScenarioConfig scenario;
  scenario.num_queries = 30;
  scenario.link = sim::socket_link();
  const std::vector<sim::DeviceProfile> fleet = {sim::jetson_tx2_cpu(),
                                                 sim::raspberry_pi_3b()};
  auto equal = sim::run_teamnet_heterogeneous({&equal_a, &equal_b}, fleet,
                                              setup.test, scenario);
  auto matched = sim::run_teamnet_heterogeneous(
      {&matched_big, &matched_small}, fleet, setup.test, scenario);
  Table het({"expert sizing", "latency (ms)"});
  het.add_row({"equal (MLP-4 + MLP-4)", Table::num(equal.latency_ms, 2)});
  het.add_row({"capacity-matched (MLP-4 + MLP-2)",
               Table::num(matched.latency_ms, 2)});
  std::printf("%s", het.to_string().c_str());
  std::printf("\nexpected shape: the RPi straggler dominates the equal\n"
              "configuration; giving it the smaller expert cuts the\n"
              "per-query critical path.\n");
  write_observability_outputs(opts);
  return 0;
}

}  // namespace
}  // namespace teamnet::bench

int main(int argc, char** argv) { return teamnet::bench::main_impl(argc, argv); }
