// Message-passing runtime tests: collectives (TEST_P over world sizes) and
// the three partitioned executors, which must match single-node inference:
// MPI-Kernel and MPI-Branch bit for bit, MPI-Matrix within 1e-4 (its
// allreduce sums the partial products in a different order).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>

#include "mpi/communicator.hpp"
#include "mpi/partitioned.hpp"
#include "net/transport.hpp"
#include "nn/mlp.hpp"
#include "nn/shake_shake.hpp"
#include "tensor/ops.hpp"

namespace teamnet {
namespace {

/// Runs `body(rank, comm)` on `n` rank threads over an in-proc mesh.
void run_world(int n, const std::function<void(int, mpi::Communicator&)>& body) {
  // Build a plain (non-sim) mesh of in-proc pairs.
  std::vector<std::vector<net::ChannelPtr>> mesh(static_cast<std::size_t>(n));
  for (auto& row : mesh) row.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      auto [a, b] = net::make_inproc_pair();
      mesh[i][j] = std::move(a);
      mesh[j][i] = std::move(b);
    }
  }
  std::vector<std::thread> threads;
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      std::vector<net::Channel*> peers(static_cast<std::size_t>(n), nullptr);
      for (int p = 0; p < n; ++p) {
        if (p != r) peers[static_cast<std::size_t>(p)] = mesh[r][p].get();
      }
      mpi::Communicator comm(r, peers);
      body(r, comm);
    });
  }
  for (auto& t : threads) t.join();
}

class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, BcastDeliversRootTensor) {
  const int n = GetParam();
  run_world(n, [](int rank, mpi::Communicator& comm) {
    Tensor t = rank == 1 ? Tensor({3}, {1, 2, 3}) : Tensor({1});
    Tensor out = comm.bcast(t, 1);
    EXPECT_TRUE(out.allclose(Tensor({3}, {1, 2, 3})));
  });
}

TEST_P(CollectiveSweep, GatherCollectsInRankOrder) {
  const int n = GetParam();
  run_world(n, [n](int rank, mpi::Communicator& comm) {
    Tensor mine = Tensor::full({2}, static_cast<float>(rank));
    auto all = comm.gather(mine, 0);
    if (rank == 0) {
      ASSERT_EQ(static_cast<int>(all.size()), n);
      for (int r = 0; r < n; ++r) {
        EXPECT_FLOAT_EQ(all[static_cast<std::size_t>(r)][0],
                        static_cast<float>(r));
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectiveSweep, AllgatherGivesEveryoneEverything) {
  const int n = GetParam();
  run_world(n, [n](int rank, mpi::Communicator& comm) {
    auto all = comm.allgather(Tensor::full({1}, static_cast<float>(rank * 10)));
    ASSERT_EQ(static_cast<int>(all.size()), n);
    for (int r = 0; r < n; ++r) {
      EXPECT_FLOAT_EQ(all[static_cast<std::size_t>(r)][0],
                      static_cast<float>(r * 10));
    }
  });
}

TEST_P(CollectiveSweep, AllreduceSumsAcrossRanks) {
  const int n = GetParam();
  run_world(n, [n](int rank, mpi::Communicator& comm) {
    Tensor mine = Tensor::full({4}, static_cast<float>(rank + 1));
    Tensor sum = comm.allreduce_sum(mine);
    const float expected = static_cast<float>(n * (n + 1) / 2);
    for (float v : sum.values()) EXPECT_FLOAT_EQ(v, expected);
  });
}

TEST_P(CollectiveSweep, BarrierCompletes) {
  const int n = GetParam();
  run_world(n, [](int, mpi::Communicator& comm) { comm.barrier(); });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveSweep,
                         ::testing::Values(2, 3, 4, 5));

TEST(Communicator, RejectsBadWiring) {
  auto [a, b] = net::make_inproc_pair();
  // Self channel must be null.
  EXPECT_THROW(mpi::Communicator(0, {a.get(), b.get()}), InvariantError);
  // Peer channel must be present.
  EXPECT_THROW(mpi::Communicator(0, {nullptr, nullptr}), InvariantError);
}

/// Bitwise float equality, so -0 vs +0 and NaN payloads count as different.
void expect_bit_identical(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "element " << i << ": " << got[i] << " vs " << want[i];
  }
}

class PartitionSweep : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSweep, MpiMatrixMatchesSingleNodeMlp) {
  const int n = GetParam();
  Rng rng(41);
  nn::MlpConfig cfg;
  cfg.in_features = 20;
  cfg.num_classes = 5;
  cfg.depth = 4;
  cfg.hidden = 16;
  nn::MlpNet model(cfg, rng);
  model.set_training(false);
  Tensor x = Tensor::randn({3, 20}, rng);
  Tensor expected = model.predict(x);

  run_world(n, [&](int, mpi::Communicator& comm) {
    mpi::MpiMatrixMlp executor(model, comm);
    Tensor got = executor.infer(x);
    EXPECT_TRUE(got.allclose(expected, 1e-4f));
  });
}

TEST_P(PartitionSweep, MpiKernelMatchesSingleNodeShakeShake) {
  const int n = GetParam();
  Rng rng(43);
  nn::ShakeShakeConfig cfg;
  cfg.depth = 8;
  cfg.base_channels = 4;
  cfg.image_size = 8;
  nn::ShakeShakeNet model(cfg, rng);
  model.set_training(false);
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  Tensor expected = model.predict(x);

  run_world(n, [&](int, mpi::Communicator& comm) {
    mpi::MpiKernelShakeShake executor(model, comm);
    expect_bit_identical(executor.infer(x), expected);
  });
}

INSTANTIATE_TEST_SUITE_P(Nodes, PartitionSweep, ::testing::Values(2, 4));

TEST(MpiBranch, MatchesSingleNodeShakeShake) {
  Rng rng(47);
  nn::ShakeShakeConfig cfg;
  cfg.depth = 8;
  cfg.base_channels = 4;
  cfg.image_size = 8;
  nn::ShakeShakeNet model(cfg, rng);
  model.set_training(false);
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  Tensor expected = model.predict(x);

  run_world(2, [&](int, mpi::Communicator& comm) {
    mpi::MpiBranchShakeShake executor(model, comm);
    expect_bit_identical(executor.infer(x), expected);
  });
}

TEST(MpiBranch, RequiresTwoRanks) {
  Rng rng(48);
  nn::ShakeShakeConfig cfg;
  cfg.depth = 8;
  cfg.base_channels = 4;
  cfg.image_size = 8;
  nn::ShakeShakeNet model(cfg, rng);
  model.set_training(false);
  run_world(3, [&](int, mpi::Communicator& comm) {
    EXPECT_THROW(mpi::MpiBranchShakeShake(model, comm), InvariantError);
  });
}

TEST(Partitioned, RequiresEvalMode) {
  Rng rng(49);
  nn::MlpConfig cfg;
  cfg.in_features = 4;
  cfg.depth = 2;
  cfg.hidden = 4;
  nn::MlpNet model(cfg, rng);
  model.set_training(true);
  run_world(2, [&](int, mpi::Communicator& comm) {
    EXPECT_THROW(mpi::MpiMatrixMlp(model, comm), InvariantError);
  });
}

TEST(Partitioned, ComputeSharesSumToWholeModel) {
  // Across ranks, partitioned FLOPs for Linear layers must sum to the
  // single-node total (duplicate local work like ReLU is charged per rank).
  Rng rng(51);
  nn::MlpConfig cfg;
  cfg.in_features = 20;
  cfg.num_classes = 5;
  cfg.depth = 3;
  cfg.hidden = 16;
  nn::MlpNet model(cfg, rng);
  model.set_training(false);
  Tensor x = Tensor::randn({1, 20}, rng);

  std::mutex mu;
  std::int64_t total_linear_flops = 0;
  run_world(2, [&](int, mpi::Communicator& comm) {
    std::int64_t mine = 0;
    mpi::MpiMatrixMlp executor(model, comm, [&mine](std::int64_t f) { mine += f; });
    executor.infer(x);
    std::lock_guard<std::mutex> lock(mu);
    total_linear_flops += mine;
  });

  std::int64_t expected = model.analyze({20}).flops;
  // Subtract the ReLU flops once (each rank was charged them separately).
  std::int64_t relu_flops = 2 * cfg.hidden;  // two ReLUs of width hidden
  EXPECT_EQ(total_linear_flops, expected + relu_flops);
}

}  // namespace
}  // namespace teamnet

#include "core/teamnet.hpp"
#include "mpi/decentralized.hpp"
#include "nn/serialize.hpp"

namespace teamnet {
namespace {

TEST(Decentralized, AllRanksAgreeAndMatchCentralizedSelection) {
  // Build 3 distinct experts; decentralized selection must equal the
  // centralized argmin-entropy ensemble on every rank.
  Rng rng(61);
  nn::MlpConfig cfg;
  cfg.in_features = 8;
  cfg.num_classes = 4;
  cfg.depth = 2;
  cfg.hidden = 12;
  std::vector<nn::ModulePtr> experts;
  for (int i = 0; i < 3; ++i) {
    experts.push_back(std::make_unique<nn::MlpNet>(cfg, rng));
    experts.back()->set_training(false);
  }
  Tensor x = Tensor::randn({6, 8}, rng);

  // Centralized reference.
  std::vector<nn::ModulePtr> copy;
  {
    Rng rng2(61);
    for (int i = 0; i < 3; ++i) {
      auto e = std::make_unique<nn::MlpNet>(cfg, rng2);
      nn::deserialize_parameters(nn::serialize_parameters(*experts[i]), *e);
      copy.push_back(std::move(e));
    }
  }
  core::TeamNetEnsemble ensemble(std::move(copy));
  auto expected = ensemble.infer(x);

  std::mutex mu;
  std::vector<std::vector<int>> per_rank_predictions(3);
  run_world(3, [&](int rank, mpi::Communicator& comm) {
    auto result = mpi::decentralized_infer(
        comm, *experts[static_cast<std::size_t>(rank)], x);
    std::lock_guard<std::mutex> lock(mu);
    per_rank_predictions[static_cast<std::size_t>(rank)] = result.predictions;
    EXPECT_EQ(result.winner, expected.chosen);
  });
  for (const auto& preds : per_rank_predictions) {
    EXPECT_EQ(preds, expected.predictions);
  }
}

TEST(Decentralized, ComputeHookChargesLocalExpertOnly) {
  Rng rng(62);
  nn::MlpConfig cfg;
  cfg.in_features = 8;
  cfg.num_classes = 4;
  cfg.depth = 2;
  cfg.hidden = 12;
  std::vector<nn::ModulePtr> experts;
  for (int i = 0; i < 2; ++i) {
    experts.push_back(std::make_unique<nn::MlpNet>(cfg, rng));
    experts.back()->set_training(false);
  }
  Tensor x = Tensor::randn({5, 8}, rng);
  const std::int64_t expected_flops =
      experts[0]->analyze({8}).flops * x.dim(0);

  run_world(2, [&](int rank, mpi::Communicator& comm) {
    std::int64_t charged = 0;
    mpi::decentralized_infer(comm, *experts[static_cast<std::size_t>(rank)], x,
                             [&charged](std::int64_t f) { charged += f; });
    EXPECT_EQ(charged, expected_flops);
  });
}

}  // namespace
}  // namespace teamnet
