// Reproduces Table II: image classification (CIFAR-10-like) on Jetson TX2,
// CPU-only (a) and GPU+CPU (b). Columns: Base SS-26, then TeamNet /
// MPI-Kernel / MPI-Branch / SG-MoE-G / SG-MoE-M at 2 nodes and TeamNet /
// MPI-Kernel / SG-MoE at 4 nodes (MPI-Branch only exists for 2 nodes).
#include <cstdio>

#include "bench_common.hpp"

namespace teamnet::bench {
namespace {

struct PaperRow {
  double latency;
  double accuracy;
};

void run_device(JsonReport& report, const CifarSetup& setup,
                nn::ShakeShakeNet& baseline, const TrainedTeam& team2,
                const TrainedTeam& team4, moe::SgMoe& moe2, moe::SgMoe& moe4,
                const sim::DeviceProfile& device, const std::string& label,
                const std::vector<PaperRow>& paper) {
  sim::ScenarioConfig cfg;
  cfg.device = device;
  cfg.num_queries = 20;

  auto socket_cfg = cfg;
  socket_cfg.link = sim::socket_link();
  auto mpi_cfg = cfg;
  mpi_cfg.link = sim::mpi_link();
  auto grpc_cfg = cfg;
  grpc_cfg.link = sim::grpc_link();

  std::vector<PaperColumn> columns;
  auto add = [&](const std::string& header, sim::ScenarioResult result,
                 std::size_t idx) {
    report.add(label + " / " + header, result);
    PaperColumn col;
    col.header = header;
    col.measured = std::move(result);
    if (idx < paper.size()) {
      col.paper_latency_ms = paper[idx].latency;
      col.paper_accuracy_pct = paper[idx].accuracy;
    }
    columns.push_back(std::move(col));
  };

  add("Base", sim::run_baseline(baseline, setup.test, cfg), 0);
  add("TeamNet x2", sim::run_teamnet(team2.expert_ptrs(), setup.test, socket_cfg),
      1);
  add("MPI-Kernel x2", sim::run_mpi_kernel(baseline, setup.test, mpi_cfg, 2), 2);
  add("MPI-Branch x2", sim::run_mpi_branch(baseline, setup.test, mpi_cfg), 3);
  add("SG-MoE-G x2", sim::run_sg_moe(moe2, setup.test, grpc_cfg), 4);
  add("SG-MoE-M x2", sim::run_sg_moe(moe2, setup.test, mpi_cfg), 5);
  add("TeamNet x4", sim::run_teamnet(team4.expert_ptrs(), setup.test, socket_cfg),
      6);
  add("MPI-Kernel x4", sim::run_mpi_kernel(baseline, setup.test, mpi_cfg, 4), 7);
  add("SG-MoE-G x4", sim::run_sg_moe(moe4, setup.test, grpc_cfg), 8);
  add("SG-MoE-M x4", sim::run_sg_moe(moe4, setup.test, mpi_cfg), 9);

  print_comparison_table("Table II(" + label + ")", columns, device.uses_gpu);
}

int main_impl(int argc, char** argv) {
  Options opts = parse_options(argc, argv);
  print_banner("Table II — CIFAR-10 image classification on Jetson TX2",
               "Table II(a) and II(b)");

  CifarSetup setup = cifar_setup(opts);
  std::printf("dataset: %lld train / %lld test, Shake-Shake base channels %lld\n",
              static_cast<long long>(setup.train_size()),
              static_cast<long long>(setup.test.size()),
              static_cast<long long>(setup.ss26.base_channels));

  auto baseline = train_cifar_baseline(setup, opts);
  auto team2 = train_cifar_teamnet(setup, 2, opts);
  auto team4 = train_cifar_teamnet(setup, 4, opts);
  auto moe2 = train_cifar_sgmoe(setup, 2, opts);
  auto moe4 = train_cifar_sgmoe(setup, 4, opts);

  // Paper Table II rows: Base, TeamNet/Kernel/Branch/SG-G/SG-M x2,
  // TeamNet/Kernel/SG-G/SG-M x4.
  const std::vector<PaperRow> paper_cpu = {
      {378.2, 94.0}, {179.5, 93.7}, {2684.3, 93.9}, {1227.8, 93.9},
      {157.3, 89.7}, {192.4, 90.1}, {84.8, 92.4},   {6722.7, 93.6},
      {67.8, 87.1},  {71.6, 87.8}};
  const std::vector<PaperRow> paper_gpu = {
      {14.3, 93.9}, {11.4, 93.8}, {2611.7, 93.9}, {1002.7, 94.0},
      {31.7, 89.4}, {29.4, 89.0}, {13.1, 92.8},   {7062.9, 93.5},
      {30.6, 87.3}, {29.5, 87.3}};

  JsonReport report(opts, "table2_jetson_cifar");
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
