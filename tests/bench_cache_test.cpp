// Bench checkpoint store (bench::load_or_train): a cache entry loads whole or
// not at all, a missing or truncated file retrains the entire entry, and a
// loaded entry replays the trained weights and gate telemetry bit for bit.
// A two-expert MLP team on Gaussian blobs keeps every case in milliseconds.
// The benches' set-ups build their test split eagerly and their training
// rows only when something trains, so a warm cache never builds them.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/teamnet.hpp"
#include "data/blobs.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"

namespace teamnet {
namespace {

namespace fs = std::filesystem;

constexpr int kExperts = 2;

nn::ModulePtr tiny_mlp(int /*index*/, Rng& rng) {
  nn::MlpConfig cfg;
  cfg.in_features = 8;
  cfg.num_classes = 4;
  cfg.depth = 2;
  cfg.hidden = 16;
  return std::make_unique<nn::MlpNet>(cfg, rng);
}

/// Loads the team from `dir` or trains it, counting training runs.
bench::TrainedTeam load_or_train_team(const std::string& dir, int& trainings) {
  bench::TrainedTeam team;
  Rng rng(5);
  for (int i = 0; i < kExperts; ++i) team.experts.push_back(tiny_mlp(i, rng));
  const auto entry = [&team] {
    bench::CacheEntry e{"tiny_team", {}, &team.telemetry};
    for (std::size_t i = 0; i < team.experts.size(); ++i) {
      e.modules.emplace_back("_e" + std::to_string(i), team.experts[i].get());
    }
    return e;
  };
  bench::load_or_train(dir, entry(), [&] {
    ++trainings;
    data::BlobsConfig blobs;
    blobs.num_samples = 256;
    core::TeamNetConfig cfg;
    cfg.num_experts = kExperts;
    cfg.epochs = 2;
    cfg.batch_size = 32;
    core::TeamNetTrainer trainer(cfg, tiny_mlp);
    team.experts = trainer.train(data::make_blobs(blobs)).release_experts();
    team.telemetry = trainer.telemetry();
    return entry();
  });
  return team;
}

std::vector<std::uint32_t> bits(const std::vector<float>& values) {
  std::vector<std::uint32_t> out;
  for (float v : values) out.push_back(std::bit_cast<std::uint32_t>(v));
  return out;
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

class BenchCache : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("bench_cache_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<fs::path> entry_files() const {
    std::vector<fs::path> files;
    for (const auto& f : fs::directory_iterator(dir_)) files.push_back(f.path());
    std::sort(files.begin(), files.end());
    return files;
  }

  std::string dir_;
};

TEST_F(BenchCache, SecondCallLoadsInsteadOfTraining) {
  int trainings = 0;
  load_or_train_team(dir_, trainings);
  EXPECT_EQ(trainings, 1);
  load_or_train_team(dir_, trainings);
  EXPECT_EQ(trainings, 1);
  // Two experts and the telemetry, no temp files left behind.
  const fs::path dir(dir_);
  const std::vector<fs::path> want = {dir / "tiny_team.telemetry.tnet",
                                      dir / "tiny_team_e0.tnet",
                                      dir / "tiny_team_e1.tnet"};
  EXPECT_EQ(entry_files(), want);
}

TEST_F(BenchCache, ReloadedWeightsAreBitIdentical) {
  int trainings = 0;
  const bench::TrainedTeam trained = load_or_train_team(dir_, trainings);
  const bench::TrainedTeam loaded = load_or_train_team(dir_, trainings);
  ASSERT_EQ(trainings, 1);
  ASSERT_EQ(loaded.experts.size(), trained.experts.size());
  for (std::size_t i = 0; i < trained.experts.size(); ++i) {
    EXPECT_EQ(nn::serialize_parameters(*loaded.experts[i]),
              nn::serialize_parameters(*trained.experts[i]))
        << "expert " << i;
  }
}

TEST_F(BenchCache, TelemetryRoundTripsBitExactly) {
  int trainings = 0;
  const auto trained = load_or_train_team(dir_, trainings).telemetry.series();
  const auto loaded = load_or_train_team(dir_, trainings).telemetry.series();
  ASSERT_EQ(trainings, 1);
  ASSERT_GT(trained.objective.size(), 0u);
  ASSERT_EQ(loaded.gamma_bar.size(), trained.gamma_bar.size());
  for (std::size_t t = 0; t < trained.gamma_bar.size(); ++t) {
    EXPECT_EQ(bits(loaded.gamma_bar[t]), bits(trained.gamma_bar[t]))
        << "iteration " << t;
  }
  EXPECT_EQ(bits(loaded.objective), bits(trained.objective));
  EXPECT_EQ(loaded.gate_iters, trained.gate_iters);
}

TEST_F(BenchCache, AnyMissingOrTruncatedFileRetrainsTheWholeEntry) {
  int trainings = 0;
  load_or_train_team(dir_, trainings);
  ASSERT_EQ(trainings, 1);
  const std::vector<fs::path> files = entry_files();
  ASSERT_EQ(files.size(), 3u);
  std::vector<std::string> contents;
  for (const auto& f : files) contents.push_back(read_file(f));

  int expected = 1;
  for (const auto& damaged : files) {
    for (const bool truncate : {false, true}) {
      if (truncate) {
        fs::resize_file(damaged, fs::file_size(damaged) / 2);
      } else {
        fs::remove(damaged);
      }
      load_or_train_team(dir_, trainings);
      EXPECT_EQ(trainings, ++expected)
          << damaged << (truncate ? " truncated" : " deleted");
      // The retrained entry is complete again: same files, same bytes
      // (training is deterministic), no temp files left behind.
      ASSERT_EQ(entry_files(), files);
      for (std::size_t i = 0; i < files.size(); ++i) {
        EXPECT_EQ(read_file(files[i]), contents[i]) << files[i];
      }
      load_or_train_team(dir_, trainings);
      EXPECT_EQ(trainings, expected);
    }
  }
}

/// Equal shapes, labels and bytes.
void expect_same_rows(const data::Dataset& got, const data::Dataset& want) {
  EXPECT_EQ(got.images.shape(), want.images.shape());
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.num_classes, want.num_classes);
  ASSERT_EQ(got.images.numel(), want.images.numel());
  EXPECT_EQ(std::memcmp(got.images.data(), want.images.data(),
                        static_cast<std::size_t>(got.images.numel()) *
                            sizeof(float)),
            0);
}

bench::Options quick_options(const std::string& cache_dir) {
  bench::Options opts;
  opts.quick = true;
  opts.cache_dir = cache_dir;
  return opts;
}

/// A set-up's test split and training rows are the halves that splitting
/// the whole --quick set at 0.2 makes; its training-row count needs no
/// build, and the rows, once built, are kept.
template <class Setup>
void expect_halves_of(const Setup& setup, const data::Dataset& all) {
  const auto [test, train] = all.split(0.2);
  expect_same_rows(setup.test, test);
  EXPECT_EQ(setup.train_size(), train.size());
  EXPECT_FALSE(setup.train_rows.built());
  const data::Dataset& rows = setup.train();
  EXPECT_TRUE(setup.train_rows.built());
  expect_same_rows(rows, train);
  EXPECT_EQ(&setup.train(), &rows);
}

TEST(BenchSetup, MnistRowsAreTheWholeSetsSplit) {
  data::MnistConfig mc;
  mc.num_samples = 1200;
  mc.seed = 11;
  expect_halves_of(bench::mnist_setup(quick_options("unused")),
                   data::make_synthetic_mnist(mc));
}

TEST(BenchSetup, CifarRowsAreTheWholeSetsSplit) {
  data::CifarConfig cc;
  cc.num_samples = 800;
  cc.image_size = 16;
  cc.seed = 13;
  expect_halves_of(bench::cifar_setup(quick_options("unused")),
                   data::make_synthetic_cifar(cc));
}

TEST_F(BenchCache, WarmCacheTeamNeverBuildsTheTrainingRows) {
  const bench::Options opts = quick_options(dir_);
  const bench::MnistSetup cold = bench::mnist_setup(opts);
  bench::train_mnist_teamnet(cold, 4, opts);
  EXPECT_TRUE(cold.train_rows.built()) << "a miss trains on the rows";
  const bench::MnistSetup warm = bench::mnist_setup(opts);
  bench::train_mnist_teamnet(warm, 4, opts);
  EXPECT_FALSE(warm.train_rows.built()) << "a hit only loads";
}

}  // namespace
}  // namespace teamnet
