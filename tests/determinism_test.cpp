// Determinism gate (ctest label `determinism`, run under Release and TSan
// in CI): every scenario driver, run twice with the same seed under the
// discrete-event scheduler, must produce byte-identical results —
// latency_ms and every other double included, compared as raw bytes, not
// within a tolerance. TEAMNET_DETERMINISM_SEED sweeps the seed in CI.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/blobs.hpp"
#include "moe/sg_moe.hpp"
#include "nn/mlp.hpp"
#include "nn/shake_shake.hpp"
#include "sim/scenario.hpp"

namespace teamnet {
namespace {

std::uint64_t determinism_seed() {
  const char* env = std::getenv("TEAMNET_DETERMINISM_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 123u;
}

// ---- byte-exact serialization ----------------------------------------------

void put_double(std::string& out, double v) {
  char raw[sizeof v];
  std::memcpy(raw, &v, sizeof v);
  out.append(raw, sizeof v);
}

std::string result_bytes(const sim::ScenarioResult& r) {
  std::string out = r.approach;
  out += '\0';
  out += std::to_string(r.num_nodes);
  out += '\0';
  put_double(out, r.latency_ms);
  put_double(out, r.accuracy_pct);
  put_double(out, r.usage.memory_pct);
  put_double(out, r.usage.cpu_pct);
  put_double(out, r.usage.gpu_pct);
  put_double(out, r.bytes_per_query);
  put_double(out, r.messages_per_query);
  return out;
}

std::string result_bytes(const sim::ResilienceResult& r) {
  std::string out = result_bytes(r.scenario);
  out += '\0';
  for (double ms : r.latency_ms) put_double(out, ms);
  put_double(out, r.p50_ms);
  put_double(out, r.p99_ms);
  out += '\0';
  for (int level : r.degradation) out += std::to_string(level) + ",";
  out += '\0';
  for (char c : r.correct) out += c ? '1' : '0';
  out += '\0';
  for (int v : r.live_nodes) out += std::to_string(v) + ",";
  out += '\0';
  out += r.fault_schedule;
  for (std::int64_t v :
       {r.full_gathers, r.quorum_gathers, r.local_only_gathers,
        r.hedges_sent, r.hedge_wins, r.hedge_duplicates, r.rejoins,
        r.stale_replies, r.expired_drops, r.faults_injected}) {
    out += '\0';
    out += std::to_string(v);
  }
  return out;
}

// ---- shared fixtures --------------------------------------------------------

data::Dataset blob_test_set() {
  data::BlobsConfig cfg;
  cfg.num_samples = 200;
  cfg.num_classes = 4;
  cfg.dims = 8;
  cfg.seed = 21;
  return data::make_blobs(cfg);
}

/// 8x8 3-channel image dataset for the Shake-Shake MPI drivers; labels are
/// arbitrary (the gate here is bit-stability, not model quality).
data::Dataset image_test_set() {
  data::Dataset set;
  Rng rng(31);
  set.images = Tensor::randn({24, 3, 8, 8}, rng);
  set.num_classes = 4;
  for (int i = 0; i < 24; ++i) set.labels.push_back(i % 4);
  return set;
}

sim::ScenarioConfig des_config() {
  sim::ScenarioConfig cfg;
  cfg.num_queries = 8;
  cfg.link = net::LinkProfile{0.0005, 0.0, 0.0};
  cfg.seed = determinism_seed();
  return cfg;
}

std::vector<std::unique_ptr<nn::MlpNet>> make_experts(int k) {
  std::vector<std::unique_ptr<nn::MlpNet>> experts;
  for (int i = 0; i < k; ++i) {
    nn::MlpConfig cfg;
    cfg.in_features = 8;
    cfg.num_classes = 4;
    cfg.depth = 2;
    cfg.hidden = 12;
    Rng rng(100 + i);
    experts.push_back(std::make_unique<nn::MlpNet>(cfg, rng));
  }
  return experts;
}

std::vector<nn::Module*> expert_ptrs(
    const std::vector<std::unique_ptr<nn::MlpNet>>& experts) {
  std::vector<nn::Module*> ptrs;
  for (const auto& e : experts) ptrs.push_back(e.get());
  return ptrs;
}

std::unique_ptr<nn::ShakeShakeNet> make_shake_shake() {
  nn::ShakeShakeConfig cfg;
  cfg.depth = 8;
  cfg.base_channels = 2;
  cfg.image_size = 8;
  cfg.num_classes = 4;
  Rng rng(43);
  auto model = std::make_unique<nn::ShakeShakeNet>(cfg, rng);
  model->set_training(false);
  return model;
}

// ---- one test per scenario driver ------------------------------------------

TEST(Determinism, Baseline) {
  const auto experts = make_experts(1);
  const auto test = blob_test_set();
  const auto a = sim::run_baseline(*experts[0], test, des_config());
  const auto b = sim::run_baseline(*experts[0], test, des_config());
  EXPECT_EQ(result_bytes(a), result_bytes(b));
}

TEST(Determinism, TeamNet) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  const auto a = sim::run_teamnet(ptrs, test, des_config());
  const auto b = sim::run_teamnet(ptrs, test, des_config());
  EXPECT_EQ(result_bytes(a), result_bytes(b));
}

TEST(Determinism, TeamNetHeterogeneous) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  const std::vector<sim::DeviceProfile> devices = {
      sim::jetson_tx2_cpu(), sim::raspberry_pi_3b(), sim::raspberry_pi_3b()};
  const auto a =
      sim::run_teamnet_heterogeneous(ptrs, devices, test, des_config());
  const auto b =
      sim::run_teamnet_heterogeneous(ptrs, devices, test, des_config());
  EXPECT_EQ(result_bytes(a), result_bytes(b));
}

TEST(Determinism, MpiMatrix) {
  nn::MlpConfig cfg;
  cfg.in_features = 8;
  cfg.num_classes = 4;
  cfg.depth = 3;
  cfg.hidden = 12;
  Rng rng(7);
  nn::MlpNet model(cfg, rng);
  const auto test = blob_test_set();
  const auto a = sim::run_mpi_matrix(model, test, des_config(), 3);
  const auto b = sim::run_mpi_matrix(model, test, des_config(), 3);
  EXPECT_EQ(result_bytes(a), result_bytes(b));
}

TEST(Determinism, MpiKernel) {
  auto model = make_shake_shake();
  const auto test = image_test_set();
  auto cfg = des_config();
  cfg.num_queries = 4;  // conv inference is the slow part; 4 is plenty
  const auto a = sim::run_mpi_kernel(*model, test, cfg, 2);
  const auto b = sim::run_mpi_kernel(*model, test, cfg, 2);
  EXPECT_EQ(result_bytes(a), result_bytes(b));
}

TEST(Determinism, MpiBranch) {
  auto model = make_shake_shake();
  const auto test = image_test_set();
  auto cfg = des_config();
  cfg.num_queries = 4;
  const auto a = sim::run_mpi_branch(*model, test, cfg);
  const auto b = sim::run_mpi_branch(*model, test, cfg);
  EXPECT_EQ(result_bytes(a), result_bytes(b));
}

TEST(Determinism, SgMoe) {
  moe::SgMoeConfig cfg;
  cfg.num_experts = 3;
  cfg.epochs = 1;
  moe::SgMoe model(cfg, 8, [](int /*index*/, Rng& rng) {
    nn::MlpConfig mc;
    mc.in_features = 8;
    mc.num_classes = 4;
    mc.depth = 2;
    mc.hidden = 10;
    return std::make_unique<nn::MlpNet>(mc, rng);
  });
  const auto test = blob_test_set();
  model.train(test);
  const auto a = sim::run_sg_moe(model, test, des_config());
  const auto b = sim::run_sg_moe(model, test, des_config());
  EXPECT_EQ(result_bytes(a), result_bytes(b));
}

TEST(Determinism, TeamNetDecentralized) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  const auto a = sim::run_teamnet_decentralized(ptrs, test, des_config());
  const auto b = sim::run_teamnet_decentralized(ptrs, test, des_config());
  EXPECT_EQ(result_bytes(a), result_bytes(b));
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
}

/// A chaos run: resilience with the SLO machinery off.
TEST(Determinism, TeamNetChaos) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  sim::ResilienceConfig chaos;
  chaos.drop_expired = false;
  chaos.faults.seed = determinism_seed();
  chaos.faults.drop_prob = 0.2;
  chaos.faults.corrupt_prob = 0.1;
  chaos.faults.duplicate_prob = 0.15;
  chaos.worker_timeout_s = 0.25;
  chaos.probe_interval = 2;
  chaos.partition_worker = 0;
  chaos.partition_from_query = 3;
  chaos.heal_at_query = 6;
  const auto a = sim::run_teamnet_resilience(ptrs, test, des_config(), chaos);
  const auto b = sim::run_teamnet_resilience(ptrs, test, des_config(), chaos);
  EXPECT_EQ(result_bytes(a), result_bytes(b));
}

/// The full degradation plane — drops, duplicates, quorum gather, hedged
/// dispatch to backup replicas, expired-request drops —
/// must still be bit-stable under the discrete-event scheduler, per-query
/// latencies included.
TEST(Determinism, TeamNetResilience) {
  const auto experts = make_experts(3);
  const auto ptrs = expert_ptrs(experts);
  const auto test = blob_test_set();
  sim::ResilienceConfig res;
  res.faults.seed = determinism_seed();
  res.faults.drop_prob = 0.2;
  res.faults.duplicate_prob = 0.15;
  res.worker_timeout_s = 0.05;
  res.quorum = 2;
  res.hedging = true;
  const auto a = sim::run_teamnet_resilience(ptrs, test, des_config(), res);
  const auto b = sim::run_teamnet_resilience(ptrs, test, des_config(), res);
  EXPECT_EQ(result_bytes(a), result_bytes(b));
  EXPECT_EQ(a.scenario.schedule_digest, b.scenario.schedule_digest);
}

}  // namespace
}  // namespace teamnet
