// Reproduces Table I: handwritten digit recognition on Jetson TX2, CPU-only
// (a) and GPU+CPU (b). Columns: Baseline MLP-8, then TeamNet / MPI-Matrix /
// SG-MoE-G / SG-MoE-M at 2 and 4 edge nodes.
#include <cstdio>

#include "bench_common.hpp"

namespace teamnet::bench {
namespace {

struct PaperRow {
  double latency;
  double accuracy;
};

void run_device(JsonReport& report, const MnistSetup& setup,
                nn::MlpNet& baseline, const TrainedTeam& team2,
                const TrainedTeam& team4, moe::SgMoe& moe2, moe::SgMoe& moe4,
                const sim::DeviceProfile& device, const std::string& label,
                const std::vector<PaperRow>& paper) {
  sim::ScenarioConfig cfg;
  cfg.device = device;
  cfg.num_queries = 40;

  auto socket_cfg = cfg;
  socket_cfg.link = sim::socket_link();
  auto mpi_cfg = cfg;
  mpi_cfg.link = sim::mpi_link();
  auto grpc_cfg = cfg;
  grpc_cfg.link = sim::grpc_link();

  std::vector<PaperColumn> columns;
  auto add = [&](const std::string& header, sim::ScenarioResult result,
                 std::size_t paper_idx) {
    report.add(label + " / " + header, result);
    PaperColumn col;
    col.header = header;
    col.measured = std::move(result);
    if (paper_idx < paper.size()) {
      col.paper_latency_ms = paper[paper_idx].latency;
      col.paper_accuracy_pct = paper[paper_idx].accuracy;
    }
    columns.push_back(std::move(col));
  };

  add("Baseline", sim::run_baseline(baseline, setup.test, cfg), 0);
  add("TeamNet x2", sim::run_teamnet(team2.expert_ptrs(), setup.test, socket_cfg),
      1);
  add("MPI-Matrix x2", sim::run_mpi_matrix(baseline, setup.test, mpi_cfg, 2), 2);
  add("SG-MoE-G x2", sim::run_sg_moe(moe2, setup.test, grpc_cfg), 3);
  add("SG-MoE-M x2", sim::run_sg_moe(moe2, setup.test, mpi_cfg), 4);
  add("TeamNet x4", sim::run_teamnet(team4.expert_ptrs(), setup.test, socket_cfg),
      5);
  add("MPI-Matrix x4", sim::run_mpi_matrix(baseline, setup.test, mpi_cfg, 4), 6);
  add("SG-MoE-G x4", sim::run_sg_moe(moe4, setup.test, grpc_cfg), 7);
  add("SG-MoE-M x4", sim::run_sg_moe(moe4, setup.test, mpi_cfg), 8);

  print_comparison_table("Table I(" + label + ")", columns, device.uses_gpu);
}

int main_impl(int argc, char** argv) {
  Options opts = parse_options(argc, argv);
  print_banner("Table I — MNIST on Jetson TX2 (CPU-only and GPU+CPU)",
               "Table I(a) and I(b)");

  MnistSetup setup = mnist_setup(opts);
  std::printf("dataset: %lld train / %lld test, MLP hidden=%lld\n",
              static_cast<long long>(setup.train_size()),
              static_cast<long long>(setup.test.size()),
              static_cast<long long>(setup.mlp8.hidden));

  auto baseline = train_mnist_baseline(setup, opts);
  auto team2 = train_mnist_teamnet(setup, 2, opts);
  auto team4 = train_mnist_teamnet(setup, 4, opts);
  auto moe2 = train_mnist_sgmoe(setup, 2, opts);
  auto moe4 = train_mnist_sgmoe(setup, 4, opts);

  // Paper Table I(a): Baseline, TeamNet/MPI/SG-MoE-G/SG-MoE-M x2, then x4.
  const std::vector<PaperRow> paper_cpu = {
      {3.4, 98.8},  {3.2, 98.7}, {108.2, 98.7}, {5.9, 98.6}, {6.9, 98.6},
      {3.3, 98.7},  {189.0, 98.7}, {4.1, 98.5}, {10.3, 98.5}};
  const std::vector<PaperRow> paper_gpu = {
      {0.3, 98.8},  {1.5, 98.8}, {104.8, 98.8}, {5.8, 98.7}, {3.2, 98.6},
      {2.6, 98.7},  {187.7, 98.8}, {4.5, 98.5}, {6.9, 98.5}};

  JsonReport report(opts, "table1_jetson_mnist");
  run_device(report, setup, *baseline, team2, team4, *moe2, *moe4,
             sim::jetson_tx2_cpu(), "a: Jetson TX2 CPU only", paper_cpu);
  run_device(report, setup, *baseline, team2, team4, *moe2, *moe4,
             sim::jetson_tx2_gpu(), "b: Jetson TX2 GPU and CPU", paper_gpu);
  report.write();
  write_observability_outputs(opts);
  return 0;
}

}  // namespace
}  // namespace teamnet::bench

int main(int argc, char** argv) { return teamnet::bench::main_impl(argc, argv); }
