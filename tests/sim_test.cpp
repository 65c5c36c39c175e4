// Edge-simulator tests: device math, resource model, and integration tests
// over the scenario drivers asserting the paper's qualitative shape (who is
// faster than whom) on small trained models.
#include <gtest/gtest.h>

#include "core/teamnet.hpp"
#include "data/synthetic_mnist.hpp"
#include "moe/sg_moe.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "sim/scenario.hpp"

namespace teamnet {
namespace {

TEST(Device, ComputeTimeScalesWithFlops) {
  auto cpu = sim::jetson_tx2_cpu();
  EXPECT_DOUBLE_EQ(cpu.compute_time(0), 0.0);
  EXPECT_NEAR(cpu.compute_time(static_cast<std::int64_t>(cpu.flops_per_s)), 1.0,
              1e-9);
  EXPECT_THROW(cpu.compute_time(-1), InvariantError);
}

TEST(Device, ProfileOrdering) {
  // GPU >> Jetson CPU > RPi, and RAM: Jetson 8 GB vs RPi 1 GB.
  EXPECT_GT(sim::jetson_tx2_gpu().flops_per_s,
            5 * sim::jetson_tx2_cpu().flops_per_s);
  EXPECT_GT(sim::jetson_tx2_cpu().flops_per_s,
            2 * sim::raspberry_pi_3b().flops_per_s);
  EXPECT_GT(sim::jetson_tx2_cpu().memory_bytes,
            4 * sim::raspberry_pi_3b().memory_bytes);
}

TEST(Resource, SmallerModelUsesLessMemory) {
  Rng rng(1);
  nn::MlpConfig big_cfg, small_cfg;
  big_cfg.depth = 8;
  big_cfg.hidden = 128;
  small_cfg.depth = 2;
  small_cfg.hidden = 128;
  nn::MlpNet big(big_cfg, rng), small(small_cfg, rng);
  const auto device = sim::raspberry_pi_3b();
  auto ub = sim::estimate_resources(
      device, sim::model_working_set_bytes(big, {784}), 1.0);
  auto us = sim::estimate_resources(
      device, sim::model_working_set_bytes(small, {784}), 1.0);
  EXPECT_GT(ub.memory_pct, us.memory_pct);
  EXPECT_GT(us.memory_pct, 0.0);
}

TEST(Resource, IdleNodeShowsLowUtilization) {
  const auto device = sim::jetson_tx2_cpu();
  auto busy = sim::estimate_resources(device, 1 << 20, 1.0);
  auto idle = sim::estimate_resources(device, 1 << 20, 0.2);
  EXPECT_GT(busy.cpu_pct, idle.cpu_pct);
  EXPECT_NEAR(busy.cpu_pct, device.max_utilization, 1e-9);
  EXPECT_EQ(busy.gpu_pct, 0.0);
}

TEST(Resource, GpuDeviceReportsGpuUtilization) {
  const auto device = sim::jetson_tx2_gpu();
  auto usage = sim::estimate_resources(device, 1 << 20, 0.5);
  EXPECT_GT(usage.gpu_pct, 0.0);
  EXPECT_GT(usage.cpu_pct, 0.0);
  EXPECT_LT(usage.cpu_pct, device.max_utilization);
}

TEST(Calibration, ProtocolOverheadOrdering) {
  EXPECT_LT(sim::kSocketOverheadS, sim::kGrpcOverheadS);
  EXPECT_LT(sim::kGrpcOverheadS, sim::kMpiOverheadS);
  EXPECT_NEAR(sim::grpc_link().per_message_overhead_s, sim::kGrpcOverheadS,
              1e-12);
}

/// Shared fixture: a small MNIST problem with a trained baseline, TeamNet
/// ensemble, and SG-MoE, reused across the scenario shape tests.
class ScenarioShape : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::MnistConfig mc;
    mc.num_samples = 1200;  // 28x28 keeps glyphs above stroke resolution
    dataset_ = new data::Dataset(data::make_synthetic_mnist(mc));
    auto split = dataset_->split(0.25);
    test_ = new data::Dataset(std::move(split.first));
    train_ = new data::Dataset(std::move(split.second));

    Rng rng(5);
    nn::MlpConfig bc;
    bc.in_features = kFeatures;
    bc.depth = 8;
    bc.hidden = 64;
    baseline_ = new nn::MlpNet(bc, rng);
    {
      nn::Sgd opt(baseline_->parameters(), {});
      Rng srng(6);
      data::BatchIterator it(*train_, 64, &srng);
      for (int e = 0; e < 3; ++e) {
        it.reset();
        for (auto b = it.next(); b.size() > 0; b = it.next()) {
          ag::backward(nn::cross_entropy_loss(
              baseline_->forward(ag::constant(b.x)), b.y));
          opt.step();
        }
      }
      baseline_->set_training(false);
    }

    core::TeamNetConfig tc;
    tc.num_experts = 2;
    tc.epochs = 3;
    tc.batch_size = 64;
    core::TeamNetTrainer trainer(tc, [](int, Rng& r) -> nn::ModulePtr {
      nn::MlpConfig c;
      c.in_features = kFeatures;
      c.depth = 4;
      c.hidden = 64;
      return std::make_unique<nn::MlpNet>(c, r);
    });
    ensemble_ = new core::TeamNetEnsemble(trainer.train(*train_));

    moe::SgMoeConfig sc;
    sc.num_experts = 2;
    sc.epochs = 3;
    sg_moe_ = new moe::SgMoe(sc, kFeatures, [](int, Rng& r) -> nn::ModulePtr {
      nn::MlpConfig c;
      c.in_features = kFeatures;
      c.depth = 4;
      c.hidden = 64;
      return std::make_unique<nn::MlpNet>(c, r);
    });
    sg_moe_->train(*train_);

    // Big UNTRAINED architectures for latency-shape tests: virtual latency
    // depends only on FLOPs and message sizes, not on learned weights, and
    // the compute/communication trade-off only appears at realistic widths.
    Rng brng(8);
    nn::MlpConfig big8;
    big8.in_features = kFeatures;
    big8.depth = 8;
    big8.hidden = 512;
    big_baseline_ = new nn::MlpNet(big8, brng);
    big_baseline_->set_training(false);
    nn::MlpConfig big4 = big8;
    big4.depth = 4;
    big_expert0_ = new nn::MlpNet(big4, brng);
    big_expert1_ = new nn::MlpNet(big4, brng);
    big_expert0_->set_training(false);
    big_expert1_->set_training(false);
  }

  static void TearDownTestSuite() {
    delete big_expert1_;
    delete big_expert0_;
    delete big_baseline_;
    big_expert1_ = big_expert0_ = big_baseline_ = nullptr;
    delete sg_moe_;
    delete ensemble_;
    delete baseline_;
    delete train_;
    delete test_;
    delete dataset_;
    sg_moe_ = nullptr;
    ensemble_ = nullptr;
    baseline_ = nullptr;
    train_ = test_ = dataset_ = nullptr;
  }

  static sim::ScenarioConfig fast_config() {
    sim::ScenarioConfig cfg;
    cfg.num_queries = 10;
    return cfg;
  }

  static constexpr std::int64_t kFeatures = 28 * 28;

  static data::Dataset* dataset_;
  static data::Dataset* train_;
  static data::Dataset* test_;
  static nn::MlpNet* baseline_;
  static core::TeamNetEnsemble* ensemble_;
  static moe::SgMoe* sg_moe_;
  static nn::MlpNet* big_baseline_;
  static nn::MlpNet* big_expert0_;
  static nn::MlpNet* big_expert1_;
};

data::Dataset* ScenarioShape::dataset_ = nullptr;
data::Dataset* ScenarioShape::train_ = nullptr;
data::Dataset* ScenarioShape::test_ = nullptr;
nn::MlpNet* ScenarioShape::baseline_ = nullptr;
core::TeamNetEnsemble* ScenarioShape::ensemble_ = nullptr;
moe::SgMoe* ScenarioShape::sg_moe_ = nullptr;
nn::MlpNet* ScenarioShape::big_baseline_ = nullptr;
nn::MlpNet* ScenarioShape::big_expert0_ = nullptr;
nn::MlpNet* ScenarioShape::big_expert1_ = nullptr;

TEST_F(ScenarioShape, BaselineLatencyMatchesAnalyticModel) {
  auto cfg = fast_config();
  auto result = sim::run_baseline(*baseline_, *test_, cfg);
  const double expected_ms =
      1e3 * cfg.device.compute_time(baseline_->analyze({kFeatures}).flops);
  EXPECT_NEAR(result.latency_ms, expected_ms, 1e-9);
  EXPECT_GT(result.accuracy_pct, 50.0);
}

TEST_F(ScenarioShape, TeamNetProtocolRunsAndReportsTraffic) {
  std::vector<nn::Module*> experts = {&ensemble_->expert(0),
                                      &ensemble_->expert(1)};
  auto result = sim::run_teamnet(experts, *test_, fast_config());
  EXPECT_EQ(result.num_nodes, 2);
  EXPECT_GT(result.latency_ms, 0.0);
  // Figure 1's protocol: one broadcast + one gather = 2 messages/query.
  EXPECT_NEAR(result.messages_per_query, 2.0, 1e-9);
  EXPECT_GT(result.bytes_per_query, kFeatures * 4);  // at least the input
  EXPECT_GT(result.accuracy_pct, 50.0);
}

TEST_F(ScenarioShape, MpiMatrixIsFarSlowerThanTeamNet) {
  std::vector<nn::Module*> experts = {&ensemble_->expert(0),
                                      &ensemble_->expert(1)};
  auto cfg = fast_config();
  auto teamnet = sim::run_teamnet(experts, *test_, cfg);
  auto mpi_cfg = cfg;
  mpi_cfg.link = sim::mpi_link();
  auto mpi = sim::run_mpi_matrix(*baseline_, *test_, mpi_cfg, 2);
  // Paper Table I: MPI-Matrix is 1-2 orders of magnitude slower.
  EXPECT_GT(mpi.latency_ms, 5.0 * teamnet.latency_ms);
  EXPECT_GT(mpi.messages_per_query, teamnet.messages_per_query);
}

TEST_F(ScenarioShape, TeamNetBeatsBaselineOnCpuLosesOnGpu) {
  // Uses the realistic-width untrained models: the trade-off is purely
  // architectural (FLOPs vs WiFi bytes).
  std::vector<nn::Module*> experts = {big_expert0_, big_expert1_};
  auto cpu_cfg = fast_config();
  auto t_cpu = sim::run_teamnet(experts, *test_, cpu_cfg);
  auto b_cpu = sim::run_baseline(*big_baseline_, *test_, cpu_cfg);

  auto gpu_cfg = fast_config();
  gpu_cfg.device = sim::jetson_tx2_gpu();
  auto t_gpu = sim::run_teamnet(experts, *test_, gpu_cfg);
  auto b_gpu = sim::run_baseline(*big_baseline_, *test_, gpu_cfg);

  // Table I's headline shape: the WiFi round trip is worth paying on the
  // CPU-bound device but overwhelms the GPU's tiny compute time.
  EXPECT_LT(t_cpu.latency_ms, b_cpu.latency_ms);
  EXPECT_GT(t_gpu.latency_ms, b_gpu.latency_ms);
}

TEST_F(ScenarioShape, SgMoeScenarioRunsWithBothProtocols) {
  auto grpc_cfg = fast_config();
  grpc_cfg.link = sim::grpc_link();
  auto g = sim::run_sg_moe(*sg_moe_, *test_, grpc_cfg);

  auto mpi_cfg = fast_config();
  mpi_cfg.link = sim::mpi_link();
  auto m = sim::run_sg_moe(*sg_moe_, *test_, mpi_cfg);

  EXPECT_GT(g.latency_ms, 0.0);
  // Same protocol, heavier per-message cost -> slower (SG-MoE-M rows).
  EXPECT_GE(m.latency_ms, g.latency_ms);
  EXPECT_EQ(g.accuracy_pct, m.accuracy_pct);
}

TEST_F(ScenarioShape, BothApproachesLearnTheTask) {
  std::vector<nn::Module*> experts = {&ensemble_->expert(0),
                                      &ensemble_->expert(1)};
  auto cfg = fast_config();
  auto t = sim::run_teamnet(experts, *test_, cfg);
  auto s = sim::run_sg_moe(*sg_moe_, *test_, cfg);
  // Both approaches must clearly beat chance on this small training budget;
  // the full accuracy comparison (paper Tables I-II) lives in the benches.
  EXPECT_GT(t.accuracy_pct, 55.0);
  EXPECT_GT(s.accuracy_pct, 55.0);
  EXPECT_GT(t.accuracy_pct + 15.0, s.accuracy_pct);
}

TEST_F(ScenarioShape, TeamNetMasterCoolerThanBaseline) {
  std::vector<nn::Module*> experts = {&ensemble_->expert(0),
                                      &ensemble_->expert(1)};
  auto cfg = fast_config();
  auto t = sim::run_teamnet(experts, *test_, cfg);
  auto b = sim::run_baseline(*baseline_, *test_, cfg);
  EXPECT_LT(t.usage.cpu_pct, b.usage.cpu_pct);
  EXPECT_LT(t.usage.memory_pct, b.usage.memory_pct);
}

}  // namespace
}  // namespace teamnet

namespace teamnet {
namespace {

TEST(Heterogeneous, StragglerGatesLatencyAndMatchingHelps) {
  Rng rng(90);
  nn::MlpConfig big;
  big.in_features = 28 * 28;
  big.depth = 4;
  big.hidden = 256;
  nn::MlpConfig small = big;
  small.depth = 2;
  nn::MlpNet a(big, rng), b(big, rng), c(big, rng), d(small, rng);
  for (nn::Module* m :
       std::initializer_list<nn::Module*>{&a, &b, &c, &d}) {
    m->set_training(false);
  }

  data::MnistConfig mc;
  mc.num_samples = 64;
  auto test = data::make_synthetic_mnist(mc);

  sim::ScenarioConfig cfg;
  cfg.num_queries = 8;
  const std::vector<sim::DeviceProfile> fleet = {sim::jetson_tx2_cpu(),
                                                 sim::raspberry_pi_3b()};
  auto equal = sim::run_teamnet_heterogeneous({&a, &b}, fleet, test, cfg);
  auto matched = sim::run_teamnet_heterogeneous({&c, &d}, fleet, test, cfg);
  // The RPi running the same big expert is ~4x slower than the Jetson, so
  // it gates the equal configuration; the small expert shortens it.
  EXPECT_LT(matched.latency_ms, equal.latency_ms);

  // Size validation.
  EXPECT_THROW(
      sim::run_teamnet_heterogeneous({&a, &b}, {sim::jetson_tx2_cpu()}, test,
                                     cfg),
      InvariantError);
}

// Every driver reports per-query means, so a run of zero queries divided
// 0 by 0 and a negative count threw std::length_error from the row
// sampler; both are rejected up front as invalid configurations.
TEST(ScenarioConfigCheck, RejectsQueryCountBelowOne) {
  Rng rng(91);
  nn::MlpConfig mc;
  mc.in_features = 28 * 28;
  mc.depth = 2;
  mc.hidden = 16;
  nn::MlpNet a(mc, rng), b(mc, rng);
  data::MnistConfig dc;
  dc.num_samples = 16;
  const auto test = data::make_synthetic_mnist(dc);
  moe::SgMoeConfig sc;
  sc.num_experts = 2;
  moe::SgMoe sg(sc, mc.in_features, [&mc](int, Rng& r) -> nn::ModulePtr {
    return std::make_unique<nn::MlpNet>(mc, r);
  });

  for (int n : {0, -1}) {
    sim::ScenarioConfig cfg;
    cfg.num_queries = n;
    EXPECT_THROW(sim::run_teamnet({&a, &b}, test, cfg), InvariantError) << n;
    EXPECT_THROW(sim::run_teamnet_resilience({&a, &b}, test, cfg, {}),
                 InvariantError)
        << n;
    EXPECT_THROW(sim::run_sg_moe(sg, test, cfg), InvariantError) << n;
    EXPECT_THROW(sim::run_mpi_matrix(a, test, cfg, 2), InvariantError) << n;
    EXPECT_THROW(sim::run_teamnet_decentralized({&a, &b}, test, cfg),
                 InvariantError)
        << n;
  }
}

// A query that throws mid-run (the master's own expert cannot take the
// input; the workers drop it and keep serving) surfaces as the error, with
// every serving node woken and joined — fault-free and fault-wrapped
// fleets, backups included.
TEST(FleetTeardown, QueryErrorJoinsEveryNode) {
  Rng rng(92);
  nn::MlpConfig mc;
  mc.in_features = 8;
  mc.depth = 2;
  mc.hidden = 8;
  nn::MlpNet a(mc, rng), b(mc, rng), c(mc, rng);
  data::MnistConfig dc;
  dc.num_samples = 16;
  const auto test = data::make_synthetic_mnist(dc);  // 784 features, not 8
  sim::ResilienceConfig res;
  res.hedging = true;
  sim::ScenarioConfig cfg;
  cfg.num_queries = 2;
  EXPECT_THROW(sim::run_teamnet({&a, &b, &c}, test, cfg), Error);
  EXPECT_THROW(sim::run_teamnet_resilience({&a, &b, &c}, test, cfg, res),
               Error);
}

}  // namespace
}  // namespace teamnet
