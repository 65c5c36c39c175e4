#include "bench_common.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hpp"
#include "common/table.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace teamnet::bench {

namespace {

namespace fs = std::filesystem;

std::string cache_path(const Options& opts, const std::string& key) {
  fs::create_directories(opts.cache_dir);
  return (fs::path(opts.cache_dir) / key).string();
}

bool exists(const std::string& path) { return fs::exists(path); }

void save_telemetry(const std::string& path,
                    const core::ConvergenceTelemetry& tel) {
  std::ofstream os(path);
  for (std::size_t t = 0; t < tel.iterations(); ++t) {
    for (float g : tel.gamma_bar(t)) os << g << ' ';
    os << tel.objective(t) << ' ' << tel.gate_iters(t) << '\n';
  }
}

core::ConvergenceTelemetry load_telemetry(const std::string& path, int k) {
  core::ConvergenceTelemetry tel;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::vector<float> gamma(static_cast<std::size_t>(k));
    for (auto& g : gamma) ls >> g;
    float objective = 0.0f;
    int iters = 0;
    ls >> objective >> iters;
    tel.record(gamma, objective, iters);
  }
  return tel;
}

/// Plain supervised training of a single model (the Baseline columns).
void train_supervised(nn::Module& model, const data::Dataset& train, int epochs,
                      std::int64_t batch_size, float lr, std::uint64_t seed) {
  model.set_training(true);
  nn::SgdConfig sgd;
  sgd.lr = lr;
  nn::Sgd opt(model.parameters(), sgd);
  Rng rng(seed);
  data::BatchIterator batches(train, batch_size, &rng);
  for (int e = 0; e < epochs; ++e) {
    batches.reset();
    for (auto b = batches.next(); b.size() > 0; b = batches.next()) {
      ag::backward(nn::cross_entropy_loss(model.forward(ag::constant(b.x)), b.y));
      opt.step();
    }
    LOG_INFO("baseline epoch " << e + 1 << "/" << epochs);
  }
  model.set_training(false);
}

std::string fmt(double v, int digits = 1) { return Table::num(v, digits); }

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// %.17g round-trips every finite double exactly; non-finite values have no
/// JSON spelling, so they degrade to null rather than corrupt the document.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

namespace {

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

}  // namespace

void apply_scheduler_options(sim::ScenarioConfig& config,
                             const Options& opts) {
  config.grant_policy = opts.grant_policy;
  config.schedule_seed = opts.schedule_seed;
  config.schedule_slack_s = opts.schedule_slack_s;
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
    } else if (arg == "--trace-sched") {
      opts.trace_sched = true;
    } else if (arg == "--grant-policy" && i + 1 < argc) {
      const std::string name = argv[++i];
      const auto kind = sim::des::parse_grant_policy(name);
      if (!kind) {
        std::fprintf(stderr, "unknown --grant-policy %s (want canonical, "
                             "random-tiebreak or pct)\n", name.c_str());
        std::exit(2);
      }
      opts.grant_policy = *kind;
    } else if (arg == "--schedule-seed" && i + 1 < argc) {
      opts.schedule_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--schedule-slack" && i + 1 < argc) {
      opts.schedule_slack_s = std::strtod(argv[++i], nullptr);
    } else if (arg == "--verbose") {
      log::set_level(log::Level::Info);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--verbose] [--cache-dir DIR] "
                   "[--json PATH] [--trace PATH] [--metrics PATH] "
                   "[--trace-sched] "
                   "[--grant-policy canonical|random-tiebreak|pct] "
                   "[--schedule-seed N] [--schedule-slack S]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (!opts.trace_path.empty()) {
    obs::Tracer::instance().set_scheduler_events(opts.trace_sched);
    obs::Tracer::instance().start();
  }
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

MnistSetup mnist_setup(const Options& opts) {
  data::MnistConfig mc;
  mc.num_samples = opts.quick ? 1200 : 2500;
  mc.seed = 11;
  data::Dataset all = data::make_synthetic_mnist(mc);
  auto [test, train] = all.split(0.2);

  MnistSetup setup;
  setup.test = std::move(test);
  setup.train = std::move(train);
  setup.mlp8.in_features = 28 * 28;
  setup.mlp8.depth = 8;
  setup.mlp8.hidden = opts.quick ? 128 : 512;
  setup.mlp4 = setup.mlp8;
  setup.mlp4.depth = 4;
  setup.mlp2 = setup.mlp8;
  setup.mlp2.depth = 2;
  return setup;
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
  data::Dataset all = data::make_synthetic_cifar(cc);
  auto [test, train] = all.split(0.2);

  CifarSetup setup;
  setup.test = std::move(test);
  setup.train = std::move(train);
  setup.ss26.depth = 26;
  setup.ss26.image_size = 16;
  setup.ss26.base_channels = opts.quick ? 6 : 10;
  setup.ss14 = setup.ss26;
  setup.ss14.depth = 14;
  setup.ss8 = setup.ss26;
  setup.ss8.depth = 8;
  return setup;
}

const nn::ShakeShakeConfig& cifar_expert_cfg(const CifarSetup& setup,
                                             int num_experts) {
  TEAMNET_CHECK_MSG(num_experts == 2 || num_experts == 4,
                    "paper evaluates 2 or 4 nodes");
  return num_experts == 2 ? setup.ss14 : setup.ss8;
}

std::unique_ptr<nn::MlpNet> train_mnist_baseline(const MnistSetup& setup,
                                                 const Options& opts) {
  Rng rng(21);
  auto model = std::make_unique<nn::MlpNet>(setup.mlp8, rng);
  const std::string path = cache_path(
      opts, "mnist_mlp8_h" + std::to_string(setup.mlp8.hidden) + "_n" +
                std::to_string(setup.train.size()) + ".tnet");
  if (exists(path)) {
    try {
      nn::load_module(path, *model);
      model->set_training(false);
      return model;
    } catch (const Error& e) {
      LOG_WARN("stale cache " << path << " (" << e.what() << "); retraining");
    }
  }
  const int epochs = opts.quick ? 3 : 6;
  train_supervised(*model, setup.train, epochs, 64, 0.05f, 22);
  nn::save_module(path, *model);
  return model;
}

TrainedTeam train_mnist_teamnet(const MnistSetup& setup, int num_experts,
                                const Options& opts, core::GateKind gate) {
  const nn::MlpConfig& expert_cfg = mnist_expert_cfg(setup, num_experts);
  const std::string stem =
      "mnist_teamnet_k" + std::to_string(num_experts) + "_h" +
      std::to_string(expert_cfg.hidden) + "_n" +
      std::to_string(setup.train.size()) + "_" + core::to_string(gate);

  TrainedTeam team;
  const std::string tele_path = cache_path(opts, stem + ".telemetry");
  bool cached = exists(tele_path);
  for (int i = 0; cached && i < num_experts; ++i) {
    cached = exists(cache_path(opts, stem + "_e" + std::to_string(i) + ".tnet"));
  }

  if (cached) {
    try {
      Rng rng(31);
      for (int i = 0; i < num_experts; ++i) {
        auto expert = std::make_unique<nn::MlpNet>(expert_cfg, rng);
        nn::load_module(
            cache_path(opts, stem + "_e" + std::to_string(i) + ".tnet"),
            *expert);
        expert->set_training(false);
        team.experts.push_back(std::move(expert));
      }
      team.telemetry = load_telemetry(tele_path, num_experts);
      return team;
    } catch (const Error& e) {
      LOG_WARN("stale cache for " << stem << " (" << e.what()
                                  << "); retraining");
      team.experts.clear();
    }
  }

  core::TeamNetConfig cfg;
  cfg.num_experts = num_experts;
  cfg.epochs = opts.quick ? 3 : 6;
  cfg.batch_size = 64;
  cfg.gate_kind = gate;
  cfg.seed = 33;
  core::TeamNetTrainer trainer(cfg, [&expert_cfg](int, Rng& rng) -> nn::ModulePtr {
    return std::make_unique<nn::MlpNet>(expert_cfg, rng);
  });
  core::TeamNetEnsemble ensemble = trainer.train(setup.train);
  team.telemetry = trainer.telemetry();
  team.experts = ensemble.release_experts();

  for (int i = 0; i < num_experts; ++i) {
    nn::save_module(cache_path(opts, stem + "_e" + std::to_string(i) + ".tnet"),
                    *team.experts[static_cast<std::size_t>(i)]);
  }
  save_telemetry(tele_path, team.telemetry);
  return team;
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
  auto model = std::make_unique<moe::SgMoe>(
      cfg, 28 * 28, [&expert_cfg](int, Rng& rng) -> nn::ModulePtr {
        return std::make_unique<nn::MlpNet>(expert_cfg, rng);
      });

  const std::string stem = "mnist_sgmoe_v2_k" + std::to_string(num_experts) +
                           "_h" + std::to_string(expert_cfg.hidden) + "_n" +
                           std::to_string(setup.train.size());
  const std::string gate_path = cache_path(opts, stem + "_gate.tnet");
  bool cached = exists(gate_path);
  for (int i = 0; cached && i < num_experts; ++i) {
    cached = exists(cache_path(opts, stem + "_e" + std::to_string(i) + ".tnet"));
  }
  if (cached) {
    try {
      nn::load_module(gate_path, model->gate());
      for (int i = 0; i < num_experts; ++i) {
        nn::load_module(
            cache_path(opts, stem + "_e" + std::to_string(i) + ".tnet"),
            model->expert(i));
        model->expert(i).set_training(false);
      }
      return model;
    } catch (const Error& e) {
      LOG_WARN("stale cache for " << stem << " (" << e.what()
                                  << "); retraining");
    }
  }
  model->train(setup.train);
  nn::save_module(gate_path, model->gate());
  for (int i = 0; i < num_experts; ++i) {
    nn::save_module(cache_path(opts, stem + "_e" + std::to_string(i) + ".tnet"),
                    model->expert(i));
  }
  return model;
}

std::unique_ptr<nn::ShakeShakeNet> train_cifar_baseline(const CifarSetup& setup,
                                                        const Options& opts) {
  Rng rng(41);
  auto model = std::make_unique<nn::ShakeShakeNet>(setup.ss26, rng);
  const std::string path = cache_path(
      opts, "cifar_ss26_c" + std::to_string(setup.ss26.base_channels) + "_n" +
                std::to_string(setup.train.size()) + ".tnet");
  if (exists(path)) {
    try {
      nn::load_module(path, *model);
      model->set_training(false);
      return model;
    } catch (const Error& e) {
      LOG_WARN("stale cache " << path << " (" << e.what() << "); retraining");
    }
  }
  const int epochs = opts.quick ? 2 : 4;
  train_supervised(*model, setup.train, epochs, 32, 0.03f, 42);
  nn::save_module(path, *model);
  return model;
}

TrainedTeam train_cifar_teamnet(const CifarSetup& setup, int num_experts,
                                const Options& opts) {
  const nn::ShakeShakeConfig& expert_cfg = cifar_expert_cfg(setup, num_experts);
  const std::string stem =
      "cifar_teamnet_k" + std::to_string(num_experts) + "_d" +
      std::to_string(expert_cfg.depth) + "_c" +
      std::to_string(expert_cfg.base_channels) + "_n" +
      std::to_string(setup.train.size());

  TrainedTeam team;
  const std::string tele_path = cache_path(opts, stem + ".telemetry");
  bool cached = exists(tele_path);
  for (int i = 0; cached && i < num_experts; ++i) {
    cached = exists(cache_path(opts, stem + "_e" + std::to_string(i) + ".tnet"));
  }
  if (cached) {
    try {
      Rng rng(51);
      for (int i = 0; i < num_experts; ++i) {
        auto expert = std::make_unique<nn::ShakeShakeNet>(expert_cfg, rng);
        nn::load_module(
            cache_path(opts, stem + "_e" + std::to_string(i) + ".tnet"),
            *expert);
        expert->set_training(false);
        team.experts.push_back(std::move(expert));
      }
      team.telemetry = load_telemetry(tele_path, num_experts);
      return team;
    } catch (const Error& e) {
      LOG_WARN("stale cache for " << stem << " (" << e.what()
                                  << "); retraining");
      team.experts.clear();
    }
  }

  core::TeamNetConfig cfg;
  cfg.num_experts = num_experts;
  cfg.epochs = opts.quick ? 2 : 4;
  cfg.batch_size = 32;
  cfg.sgd.lr = 0.03f;
  cfg.seed = 53;
  core::TeamNetTrainer trainer(cfg, [&expert_cfg](int, Rng& rng) -> nn::ModulePtr {
    return std::make_unique<nn::ShakeShakeNet>(expert_cfg, rng);
  });
  core::TeamNetEnsemble ensemble = trainer.train(setup.train);
  team.telemetry = trainer.telemetry();
  team.experts = ensemble.release_experts();

  for (int i = 0; i < num_experts; ++i) {
    nn::save_module(cache_path(opts, stem + "_e" + std::to_string(i) + ".tnet"),
                    *team.experts[static_cast<std::size_t>(i)]);
  }
  save_telemetry(tele_path, team.telemetry);
  return team;
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
  const std::int64_t gate_in = 3 * setup.ss26.image_size * setup.ss26.image_size;
  auto model = std::make_unique<moe::SgMoe>(
      cfg, gate_in, [&expert_cfg](int, Rng& rng) -> nn::ModulePtr {
        return std::make_unique<nn::ShakeShakeNet>(expert_cfg, rng);
      });

  const std::string stem = "cifar_sgmoe_v2_k" + std::to_string(num_experts) +
                           "_d" + std::to_string(expert_cfg.depth) + "_n" +
                           std::to_string(setup.train.size());
  const std::string gate_path = cache_path(opts, stem + "_gate.tnet");
  bool cached = exists(gate_path);
  for (int i = 0; cached && i < num_experts; ++i) {
    cached = exists(cache_path(opts, stem + "_e" + std::to_string(i) + ".tnet"));
  }
  if (cached) {
    try {
      nn::load_module(gate_path, model->gate());
      for (int i = 0; i < num_experts; ++i) {
        nn::load_module(
            cache_path(opts, stem + "_e" + std::to_string(i) + ".tnet"),
            model->expert(i));
        model->expert(i).set_training(false);
      }
      return model;
    } catch (const Error& e) {
      LOG_WARN("stale cache for " << stem << " (" << e.what()
                                  << "); retraining");
    }
  }
  model->train(setup.train);
  nn::save_module(gate_path, model->gate());
  for (int i = 0; i < num_experts; ++i) {
    nn::save_module(cache_path(opts, stem + "_e" + std::to_string(i) + ".tnet"),
                    model->expert(i));
  }
  return model;
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
       << "\"latency_ms\": " << json_number(r.latency_ms) << ", "
       << "\"accuracy_pct\": " << json_number(r.accuracy_pct) << ", "
       << "\"bytes_per_query\": " << json_number(r.bytes_per_query) << ", "
       << "\"messages_per_query\": " << json_number(r.messages_per_query);
    for (const auto& extra : row.extras) {
      os << ", \"" << json_escape(extra.first)
         << "\": " << json_number(extra.second);
    }
    os << "}";
  }
  os << "\n  ]";
  if (!convergence_.empty()) {
    os << ",\n  \"convergence\": [";
    for (std::size_t i = 0; i < convergence_.size(); ++i) {
      const ConvergenceRow& row = convergence_[i];
      const auto& s = row.series;
      os << (i == 0 ? "" : ",") << "\n    {\"label\": \""
         << json_escape(row.label) << "\", \"gamma_bar\": [";
      for (std::size_t t = 0; t < s.gamma_bar.size(); ++t) {
        os << (t == 0 ? "[" : ", [");
        for (std::size_t e = 0; e < s.gamma_bar[t].size(); ++e) {
          os << (e == 0 ? "" : ", ")
             << json_number(static_cast<double>(s.gamma_bar[t][e]));
        }
        os << "]";
      }
      os << "], \"objective\": [";
      for (std::size_t t = 0; t < s.objective.size(); ++t) {
        os << (t == 0 ? "" : ", ")
           << json_number(static_cast<double>(s.objective[t]));
      }
      os << "], \"gate_iters\": [";
      for (std::size_t t = 0; t < s.gate_iters.size(); ++t) {
        os << (t == 0 ? "" : ", ") << s.gate_iters[t];
      }
      os << "]}";
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
