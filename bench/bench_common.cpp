#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace teamnet::bench {

namespace {

using obs::json_double;
using obs::json_escape;

Tensor encode_telemetry(const core::ConvergenceTelemetry& telemetry) {
  const auto s = telemetry.series();
  const std::size_t cols = (s.gamma_bar.empty() ? 0 : s.gamma_bar[0].size()) + 2;
  Tensor out({static_cast<std::int64_t>(s.objective.size()),
              static_cast<std::int64_t>(cols)});
  float* row = out.data();
  for (std::size_t t = 0; t < s.objective.size(); ++t, row += cols) {
    TEAMNET_CHECK(s.gamma_bar[t].size() + 2 == cols);
    std::copy(s.gamma_bar[t].begin(), s.gamma_bar[t].end(), row);
    row[cols - 2] = s.objective[t];
    row[cols - 1] = static_cast<float>(s.gate_iters[t]);
  }
  return out;
}

core::ConvergenceTelemetry decode_telemetry(const std::vector<Tensor>& tensors) {
  if (tensors.size() != 1 || tensors[0].rank() != 2 || tensors[0].dim(1) < 2) {
    throw SerializationError("telemetry checkpoint is not one [T, k+2] tensor");
  }
  const std::int64_t cols = tensors[0].dim(1);
  core::ConvergenceTelemetry telemetry;
  for (std::int64_t t = 0; t < tensors[0].dim(0); ++t) {
    const float* row = tensors[0].data() + t * cols;
    telemetry.record(std::vector<float>(row, row + cols - 2), row[cols - 2],
                     static_cast<int>(row[cols - 1]));
  }
  return telemetry;
}

/// The Baseline recipe both datasets share: one Net built from `init_seed`
/// and trained by plain supervised SGD (batch order seeded by `seed`). The
/// cached model loads into a zero-built load target; a miss trains a fresh
/// seeded model, never the target a failed load partly wrote. Here and in
/// the two recipes below, only a miss asks `setup` for its training rows.
template <class Net, class NetConfig, class Setup>
std::unique_ptr<Net> cached_baseline(const Options& opts,
                                     const std::string& stem,
                                     const NetConfig& cfg,
                                     std::uint64_t init_seed,
                                     const Setup& setup, int epochs,
                                     std::int64_t batch_size, float lr,
                                     std::uint64_t seed) {
  auto model = std::make_unique<Net>(cfg);
  load_or_train(opts.cache_dir, {stem, {{"", model.get()}}}, [&] {
    Rng init(init_seed);
    model = std::make_unique<Net>(cfg, init);
    model->set_training(true);
    nn::SgdConfig sgd;
    sgd.lr = lr;
    nn::Sgd opt(model->parameters(), sgd);
    Rng rng(seed);
    data::BatchIterator batches(setup.train(), batch_size, &rng);
    for (int e = 0; e < epochs; ++e) {
      batches.reset();
      for (auto b = batches.next(); b.size() > 0; b = batches.next()) {
        ag::backward(
            nn::cross_entropy_loss(model->forward(ag::constant(b.x)), b.y));
        opt.step();
      }
      LOG_INFO("baseline epoch " << e + 1 << "/" << epochs);
    }
    return CacheEntry{stem, {{"", model.get()}}};
  });
  model->set_training(false);
  return model;
}

CacheEntry team_entry(const std::string& stem, TrainedTeam& team) {
  CacheEntry entry{stem, {}, &team.telemetry};
  for (std::size_t i = 0; i < team.experts.size(); ++i) {
    entry.modules.emplace_back("_e" + std::to_string(i), team.experts[i].get());
  }
  return entry;
}

/// The TeamNet recipe both datasets share: `cfg.num_experts` experts of
/// type Net, loaded into zero-built load targets when the entry is cached
/// and trained by core::TeamNetTrainer (seeded by `cfg.seed`, which draws
/// each expert's init) when it is not.
template <class Net, class NetConfig, class Setup>
TrainedTeam cached_team(const Options& opts, const std::string& stem,
                        const NetConfig& expert_cfg,
                        const core::TeamNetConfig& cfg, const Setup& setup) {
  TrainedTeam team;
  for (int i = 0; i < cfg.num_experts; ++i) {
    team.experts.push_back(std::make_unique<Net>(expert_cfg));
  }
  load_or_train(opts.cache_dir, team_entry(stem, team), [&] {
    core::TeamNetTrainer trainer(cfg, [&expert_cfg](int, Rng& rng) {
      return nn::ModulePtr(std::make_unique<Net>(expert_cfg, rng));
    });
    team.experts = trainer.train(setup.train()).release_experts();
    team.telemetry = trainer.telemetry();
    return team_entry(stem, team);
  });
  for (auto& expert : team.experts) expert->set_training(false);
  return team;
}

/// The SG-MoE recipe both datasets share: a gate on `gate_in` features and
/// `cfg.num_experts` experts of type Net, trained by moe::SgMoe::train on a
/// freshly built model.
template <class Net, class NetConfig, class Setup>
std::unique_ptr<moe::SgMoe> cached_sgmoe(const Options& opts,
                                         const std::string& stem,
                                         const NetConfig& expert_cfg,
                                         const moe::SgMoeConfig& cfg,
                                         std::int64_t gate_in,
                                         const Setup& setup) {
  const auto make = [&] {
    return std::make_unique<moe::SgMoe>(
        cfg, gate_in, [&expert_cfg](int, Rng& rng) -> nn::ModulePtr {
          return std::make_unique<Net>(expert_cfg, rng);
        });
  };
  const auto entry = [&stem, &cfg](moe::SgMoe& model) {
    CacheEntry e{stem, {{"_gate", &model.gate()}}};
    for (int i = 0; i < cfg.num_experts; ++i) {
      e.modules.emplace_back("_e" + std::to_string(i), &model.expert(i));
    }
    return e;
  };
  auto model = make();
  load_or_train(opts.cache_dir, entry(*model), [&] {
    model = make();
    model->train(setup.train());
    return entry(*model);
  });
  for (int i = 0; i < cfg.num_experts; ++i) model->expert(i).set_training(false);
  return model;
}

std::string fmt(double v, int digits = 1) { return Table::num(v, digits); }

/// Bad output paths are usage errors: diagnose on stderr and exit(2) like
/// the other flag errors instead of aborting on an uncaught exception.
void require_writable_parent_or_exit(const std::string& path,
                                     const char* flag) {
  try {
    obs::require_writable_parent(path, flag);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

[[noreturn]] void usage_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--verbose] [--cache-dir DIR] "
               "[--json PATH] [--trace PATH] [--metrics PATH] "
               "[--breakdown PATH]\n",
               argv0);
  std::exit(2);
}

}  // namespace

void load_or_train(const std::string& dir, const CacheEntry& cached,
                   const std::function<CacheEntry()>& train) {
  const auto file = [&dir](const CacheEntry& entry, const std::string& suffix) {
    return (std::filesystem::path(dir) / (entry.stem + suffix + ".tnet"))
        .string();
  };
  try {
    for (const auto& [suffix, module] : cached.modules) {
      nn::load_module(file(cached, suffix), *module);
    }
    if (cached.telemetry != nullptr) {
      *cached.telemetry =
          decode_telemetry(nn::load_tensors(file(cached, ".telemetry")));
    }
    return;
  } catch (const Error& e) {
    LOG_INFO("cache miss for " << cached.stem << " (" << e.what()
                               << "); training");
  }
  const CacheEntry trained = train();
  std::filesystem::create_directories(dir);
  for (const auto& [suffix, module] : trained.modules) {
    nn::save_module(file(trained, suffix), *module);
  }
  if (trained.telemetry != nullptr) {
    nn::save_tensors(file(trained, ".telemetry"),
                     {encode_telemetry(*trained.telemetry)});
  }
}

Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      opts.cache_dir = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      opts.json_path = argv[++i];
      require_writable_parent_or_exit(opts.json_path, "--json");
    } else if (arg == "--trace" && i + 1 < argc) {
      opts.trace_path = argv[++i];
      require_writable_parent_or_exit(opts.trace_path, "--trace");
    } else if (arg == "--metrics" && i + 1 < argc) {
      opts.metrics_path = argv[++i];
      require_writable_parent_or_exit(opts.metrics_path, "--metrics");
    } else if (arg == "--breakdown" && i + 1 < argc) {
      opts.breakdown_path = argv[++i];
      require_writable_parent_or_exit(opts.breakdown_path, "--breakdown");
    } else if (arg == "--verbose") {
      log::set_level(log::Level::Info);
    } else {
      usage_exit(argv[0]);
    }
  }
  if (!opts.trace_path.empty()) obs::Tracer::instance().start();
  return opts;
}

void write_observability_outputs(const Options& opts) {
  if (!opts.trace_path.empty()) {
    obs::Tracer::instance().write(opts.trace_path);
    std::printf("wrote trace to %s\n", opts.trace_path.c_str());
  }
  if (!opts.metrics_path.empty()) {
    obs::write_metrics_json(opts.metrics_path);
    std::printf("wrote metrics snapshot to %s\n", opts.metrics_path.c_str());
  }
}

void print_banner(const std::string& experiment, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Reproduces: %s — TeamNet (ICDCS 2019)\n", paper_ref.c_str());
  std::printf("Synthetic datasets + virtual-time edge simulation; compare\n");
  std::printf("SHAPE (orderings, ratios, crossovers) to the paper, not\n");
  std::printf("absolute values. See DESIGN.md / EXPERIMENTS.md.\n");
  std::printf("==============================================================\n");
}

namespace {

data::Dataset make_rows(const data::MnistConfig& config, std::int64_t begin,
                        std::int64_t end) {
  return data::make_synthetic_mnist(config, begin, end);
}

data::Dataset make_rows(const data::CifarConfig& config, std::int64_t begin,
                        std::int64_t end) {
  return data::make_synthetic_cifar(config, begin, end);
}

/// The test split: rows [0, split_row(n, kTestFraction)) of the set.
template <class Config>
data::Dataset test_rows(const Config& config) {
  return make_rows(config, 0,
                   data::split_row(config.num_samples, kTestFraction));
}

}  // namespace

template <class Config>
const data::Dataset& TrainRows<Config>::get() const {
  if (!rows_) {
    rows_ = make_rows(config_,
                      data::split_row(config_.num_samples, kTestFraction),
                      config_.num_samples);
  }
  return *rows_;
}

template class TrainRows<data::MnistConfig>;
template class TrainRows<data::CifarConfig>;

MnistSetup mnist_setup(const Options& opts) {
  data::MnistConfig mc;
  mc.num_samples = opts.quick ? 1200 : 2500;
  mc.seed = 11;
  nn::MlpConfig mlp8;
  mlp8.in_features = 28 * 28;
  mlp8.depth = 8;
  mlp8.hidden = opts.quick ? 128 : 512;
  nn::MlpConfig mlp4 = mlp8;
  mlp4.depth = 4;
  nn::MlpConfig mlp2 = mlp8;
  mlp2.depth = 2;
  return {test_rows(mc), TrainRows(mc), mlp8, mlp4, mlp2};
}

const nn::MlpConfig& mnist_expert_cfg(const MnistSetup& setup, int num_experts) {
  // 2 and 4 nodes are the paper's configurations (§VI-C); 8 nodes extends
  // the ladder for the load-generation sweep, reusing the shallowest expert
  // (the paper's depth-halving rule bottoms out at 2 layers).
  TEAMNET_CHECK_MSG(num_experts == 2 || num_experts == 4 || num_experts == 8,
                    "supported team sizes: 2, 4 (paper) and 8 (loadgen)");
  return num_experts == 2 ? setup.mlp4 : setup.mlp2;
}

CifarSetup cifar_setup(const Options& opts) {
  data::CifarConfig cc;
  cc.num_samples = opts.quick ? 800 : 1800;
  cc.image_size = 16;
  cc.seed = 13;
  nn::ShakeShakeConfig ss26;
  ss26.depth = 26;
  ss26.image_size = 16;
  ss26.base_channels = opts.quick ? 6 : 10;
  nn::ShakeShakeConfig ss14 = ss26;
  ss14.depth = 14;
  nn::ShakeShakeConfig ss8 = ss26;
  ss8.depth = 8;
  return {test_rows(cc), TrainRows(cc), ss26, ss14, ss8};
}

const nn::ShakeShakeConfig& cifar_expert_cfg(const CifarSetup& setup,
                                             int num_experts) {
  TEAMNET_CHECK_MSG(num_experts == 2 || num_experts == 4,
                    "paper evaluates 2 or 4 nodes");
  return num_experts == 2 ? setup.ss14 : setup.ss8;
}

std::unique_ptr<nn::MlpNet> train_mnist_baseline(const MnistSetup& setup,
                                                 const Options& opts) {
  return cached_baseline<nn::MlpNet>(
      opts,
      "mnist_mlp8_h" + std::to_string(setup.mlp8.hidden) + "_n" +
          std::to_string(setup.train_size()),
      setup.mlp8, 21, setup, opts.quick ? 3 : 6, 64, 0.05f, 22);
}

TrainedTeam train_mnist_teamnet(const MnistSetup& setup, int num_experts,
                                const Options& opts, core::GateKind gate) {
  const nn::MlpConfig& expert_cfg = mnist_expert_cfg(setup, num_experts);
  core::TeamNetConfig cfg;
  cfg.num_experts = num_experts;
  cfg.epochs = opts.quick ? 3 : 6;
  cfg.batch_size = 64;
  cfg.gate_kind = gate;
  cfg.seed = 33;
  return cached_team<nn::MlpNet>(
      opts,
      "mnist_teamnet_k" + std::to_string(num_experts) + "_h" +
          std::to_string(expert_cfg.hidden) + "_n" +
          std::to_string(setup.train_size()) + "_" + core::to_string(gate),
      expert_cfg, cfg, setup);
}

std::unique_ptr<moe::SgMoe> train_mnist_sgmoe(const MnistSetup& setup,
                                              int num_experts,
                                              const Options& opts) {
  const nn::MlpConfig& expert_cfg = mnist_expert_cfg(setup, num_experts);
  moe::SgMoeConfig cfg;
  cfg.num_experts = num_experts;
  // Top-1 routing: the paper characterizes SG-MoE's data assignment as
  // random/non-specializing (§VI-C, §VI-D). With k=1 the gate receives no
  // cross-entropy gradient (only the load-balance term), so experts see
  // noisy, semantically incoherent shards — the behaviour the paper
  // compares against. k=2 would turn K=2 into a dense ensemble instead.
  cfg.top_k = 1;
  cfg.epochs = opts.quick ? 3 : 6;
  cfg.seed = 35;
  return cached_sgmoe<nn::MlpNet>(
      opts,
      "mnist_sgmoe_v2_k" + std::to_string(num_experts) + "_h" +
          std::to_string(expert_cfg.hidden) + "_n" +
          std::to_string(setup.train_size()),
      expert_cfg, cfg, 28 * 28, setup);
}

std::unique_ptr<nn::ShakeShakeNet> train_cifar_baseline(const CifarSetup& setup,
                                                        const Options& opts) {
  return cached_baseline<nn::ShakeShakeNet>(
      opts,
      "cifar_ss26_c" + std::to_string(setup.ss26.base_channels) + "_n" +
          std::to_string(setup.train_size()),
      setup.ss26, 41, setup, opts.quick ? 2 : 4, 32, 0.03f, 42);
}

TrainedTeam train_cifar_teamnet(const CifarSetup& setup, int num_experts,
                                const Options& opts) {
  const nn::ShakeShakeConfig& expert_cfg = cifar_expert_cfg(setup, num_experts);
  core::TeamNetConfig cfg;
  cfg.num_experts = num_experts;
  cfg.epochs = opts.quick ? 2 : 4;
  cfg.batch_size = 32;
  cfg.sgd.lr = 0.03f;
  cfg.seed = 53;
  return cached_team<nn::ShakeShakeNet>(
      opts,
      "cifar_teamnet_k" + std::to_string(num_experts) + "_d" +
          std::to_string(expert_cfg.depth) + "_c" +
          std::to_string(expert_cfg.base_channels) + "_n" +
          std::to_string(setup.train_size()),
      expert_cfg, cfg, setup);
}

std::unique_ptr<moe::SgMoe> train_cifar_sgmoe(const CifarSetup& setup,
                                              int num_experts,
                                              const Options& opts) {
  const nn::ShakeShakeConfig& expert_cfg = cifar_expert_cfg(setup, num_experts);
  moe::SgMoeConfig cfg;
  cfg.num_experts = num_experts;
  cfg.top_k = 1;  // see the MNIST trainer's note on SG-MoE routing
  cfg.epochs = opts.quick ? 2 : 4;
  cfg.sgd.lr = 0.03f;
  cfg.batch_size = 32;
  cfg.seed = 55;
  return cached_sgmoe<nn::ShakeShakeNet>(
      opts,
      "cifar_sgmoe_v2_k" + std::to_string(num_experts) + "_d" +
          std::to_string(expert_cfg.depth) + "_n" +
          std::to_string(setup.train_size()),
      expert_cfg, cfg, 3 * setup.ss26.image_size * setup.ss26.image_size,
      setup);
}

sim::ScenarioResult as_scenario(const load::LoadResult& r) {
  sim::ScenarioResult sr;
  sr.approach = r.approach;
  sr.num_nodes = r.num_nodes;
  sr.latency_ms = r.mean_ms;
  sr.accuracy_pct = r.accuracy_pct;
  sr.bytes_per_query = r.bytes_per_query;
  sr.messages_per_query = r.messages_per_query;
  sr.schedule_digest = r.schedule_digest;
  return sr;
}

JsonReport::JsonReport(const Options& opts, std::string experiment)
    : path_(opts.json_path),
      experiment_(std::move(experiment)) {}

void JsonReport::add(const std::string& label,
                     const sim::ScenarioResult& result) {
  if (path_.empty()) return;
  rows_.push_back({label, result, {}});
}

void JsonReport::add(const std::string& label,
                     const sim::ScenarioResult& result,
                     std::vector<std::pair<std::string, double>> extras) {
  if (path_.empty()) return;
  rows_.push_back({label, result, std::move(extras)});
}

void JsonReport::add_convergence(const std::string& label,
                                 const core::ConvergenceTelemetry& telemetry) {
  if (path_.empty()) return;
  convergence_.push_back({label, telemetry.series()});
}

void JsonReport::write() const {
  if (path_.empty()) return;
  std::ofstream os(path_);
  if (!os.good()) {
    throw Error("cannot open --json output file: " + path_);
  }
  os << "{\n"
     << "  \"experiment\": \"" << json_escape(experiment_) << "\",\n"
     << "  \"scheduler\": \"discrete_event\",\n"
     << "  \"results\": [";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& row = rows_[i];
    const sim::ScenarioResult& r = row.result;
    os << (i == 0 ? "" : ",") << "\n    {"
       << "\"label\": \"" << json_escape(row.label) << "\", "
       << "\"approach\": \"" << json_escape(r.approach) << "\", "
       << "\"nodes\": " << r.num_nodes << ", "
       << "\"latency_ms\": " << json_double(r.latency_ms) << ", "
       << "\"accuracy_pct\": " << json_double(r.accuracy_pct) << ", "
       << "\"bytes_per_query\": " << json_double(r.bytes_per_query) << ", "
       << "\"messages_per_query\": " << json_double(r.messages_per_query);
    for (const auto& extra : row.extras) {
      os << ", \"" << json_escape(extra.first)
         << "\": " << json_double(extra.second);
    }
    os << "}";
  }
  os << "\n  ]";
  if (!convergence_.empty()) {
    os << ",\n  \"convergence\": [";
    const auto array = [&os](const auto& values) {
      os << "[";
      for (std::size_t t = 0; t < values.size(); ++t) {
        os << (t == 0 ? "" : ", ") << json_double(values[t]);
      }
      os << "]";
    };
    for (std::size_t i = 0; i < convergence_.size(); ++i) {
      const auto& s = convergence_[i].series;
      os << (i == 0 ? "" : ",") << "\n    {\"label\": \""
         << json_escape(convergence_[i].label) << "\", \"gamma_bar\": [";
      for (std::size_t t = 0; t < s.gamma_bar.size(); ++t) {
        os << (t == 0 ? "" : ", ");
        array(s.gamma_bar[t]);
      }
      os << "], \"objective\": ";
      array(s.objective);
      os << ", \"gate_iters\": ";
      array(s.gate_iters);
      os << "}";
    }
    os << "\n  ]";
  }
  os << "\n}\n";
  if (!os.good()) {
    throw Error("failed writing --json output file: " + path_);
  }
  std::printf("\nwrote %zu result rows to %s\n", rows_.size(), path_.c_str());
}

BreakdownReport::BreakdownReport(const Options& opts, std::string experiment)
    : path_(opts.breakdown_path),
      experiment_(std::move(experiment)) {}

void BreakdownReport::add(const std::string& label,
                          const load::BreakdownSummary& summary) {
  if (path_.empty()) return;
  rows_.emplace_back(label, summary);
}

void BreakdownReport::write() const {
  if (path_.empty()) return;
  std::string doc;
  doc += "{\n";
  doc += "  \"experiment\": \"" + json_escape(experiment_) + "\",\n";
  doc += "  \"scheduler\": \"discrete_event\",\n";
  doc += "  \"breakdowns\": [";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    doc += (i == 0 ? "" : ",");
    doc += "\n    {\n      \"label\": \"" + json_escape(rows_[i].first) +
           "\",\n      \"summary\": ";
    load::append_breakdown_json(doc, rows_[i].second, "      ");
    doc += "\n    }";
  }
  doc += "\n  ]\n}\n";
  std::ofstream os(path_, std::ios::binary);
  if (!os.good()) {
    throw Error("cannot open --breakdown output file: " + path_);
  }
  os << doc;
  os.flush();
  if (!os.good()) {
    throw Error("failed writing --breakdown output file: " + path_);
  }
  std::printf("wrote %zu breakdown rows to %s\n", rows_.size(), path_.c_str());
}

void print_convergence_series(const core::ConvergenceTelemetry& tel, int k) {
  const float set_point = 1.0f / static_cast<float>(k);
  std::printf("\n(%c) %d experts — smoothed gamma per expert (set point %.2f)\n",
              k == 2 ? 'a' : 'b', k, set_point);
  std::printf("%10s", "iteration");
  for (int i = 0; i < k; ++i) std::printf("  expert%-3d", i + 1);
  std::printf("  max|dev|\n");
  const std::size_t total = tel.iterations();
  const std::size_t window = std::max<std::size_t>(1, total / 20);
  const std::size_t step = std::max<std::size_t>(1, total / 16);
  for (std::size_t t = step - 1; t < total; t += step) {
    auto gamma = tel.smoothed_gamma(t, window);
    std::printf("%10zu", t + 1);
    float dev = 0.0f;
    for (float g : gamma) {
      std::printf("  %8.3f", g);
      dev = std::max(dev, std::abs(g - set_point));
    }
    std::printf("  %7.3f\n", dev);
  }
}

void print_comparison_table(const std::string& title,
                            const std::vector<PaperColumn>& columns,
                            bool show_gpu_row) {
  std::printf("\n--- %s ---\n", title.c_str());
  std::vector<std::string> header = {""};
  for (const auto& c : columns) header.push_back(c.header);
  Table table(header);

  auto metric_row = [&](const std::string& name, auto getter, int digits) {
    std::vector<std::string> row = {name};
    for (const auto& c : columns) row.push_back(fmt(getter(c.measured), digits));
    table.add_row(std::move(row));
  };
  metric_row("Accuracy (%)",
             [](const sim::ScenarioResult& r) { return r.accuracy_pct; }, 1);
  metric_row("Inference Time (ms)",
             [](const sim::ScenarioResult& r) { return r.latency_ms; }, 2);
  metric_row("Memory Usage (%)",
             [](const sim::ScenarioResult& r) { return r.usage.memory_pct; }, 1);
  metric_row("CPU Usage (%)",
             [](const sim::ScenarioResult& r) { return r.usage.cpu_pct; }, 1);
  if (show_gpu_row) {
    metric_row("GPU Usage (%)",
               [](const sim::ScenarioResult& r) { return r.usage.gpu_pct; }, 1);
  }
  metric_row("Messages / query",
             [](const sim::ScenarioResult& r) { return r.messages_per_query; },
             1);
  metric_row("KBytes / query",
             [](const sim::ScenarioResult& r) { return r.bytes_per_query / 1e3; },
             2);
  std::printf("%s", table.to_string().c_str());

  // Paper block (only the cells the paper reports).
  Table paper(header);
  std::vector<std::string> lat = {"paper: Inference Time (ms)"};
  std::vector<std::string> acc = {"paper: Accuracy (%)"};
  bool have_any = false;
  for (const auto& c : columns) {
    lat.push_back(c.paper_latency_ms >= 0 ? fmt(c.paper_latency_ms, 1) : "-");
    acc.push_back(c.paper_accuracy_pct >= 0 ? fmt(c.paper_accuracy_pct, 1) : "-");
    have_any = have_any || c.paper_latency_ms >= 0 || c.paper_accuracy_pct >= 0;
  }
  if (have_any) {
    paper.add_row(std::move(acc));
    paper.add_row(std::move(lat));
    std::printf("%s", paper.to_string().c_str());
  }
}

}  // namespace teamnet::bench
