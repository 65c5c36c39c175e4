// edge_node — a deployable TeamNet node. The same binary runs as:
//
//   trainer : train K experts on the synthetic dataset and write
//             checkpoints that workers/masters can load
//   worker  : serve one expert over TCP
//   master  : coordinate collaborative inference across workers and
//             evaluate on the test set
//
// A complete three-terminal session (here runnable against localhost):
//
//   ./edge_node train  --experts 2 --out /tmp/team            # once
//   ./edge_node worker --listen 7001 --weights /tmp/team/expert1.tnet
//   ./edge_node master --workers 127.0.0.1:7001 --weights /tmp/team/expert0.tnet
//
// The demo subcommand runs all three roles in one process:
//
//   ./edge_node demo
//
// Every subcommand accepts --trace PATH (Chrome trace-event JSON of the
// run, wall-clock timestamps) and --metrics PATH (protocol counter
// snapshot); see DESIGN.md §10.
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/teamnet.hpp"
#include "data/synthetic_mnist.hpp"
#include "net/collab.hpp"
#include "net/fault.hpp"
#include "net/tcp.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace teamnet;

namespace {

constexpr int kDepth = 4;
constexpr int kHidden = 64;

/// Wall-clock TimeSource for real-TCP runs: seconds since process start on
/// the steady clock (the time-source rule — never mix wall and virtual
/// time in one trace).
obs::TimeSource steady_seconds() {
  static const auto t0 = std::chrono::steady_clock::now();
  const auto epoch = t0;  // one shared epoch; copy avoids capturing a static
  return [epoch] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
  };
}

nn::MlpConfig expert_config() {
  nn::MlpConfig cfg;
  cfg.depth = kDepth;
  cfg.hidden = kHidden;
  return cfg;
}

data::Dataset test_set() {
  data::MnistConfig cfg;
  cfg.num_samples = 600;
  cfg.seed = 77;  // disjoint from the training seed below
  return data::make_synthetic_mnist(cfg);
}

void usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  edge_node train  --experts K --out DIR\n"
               "  edge_node worker --listen PORT --weights FILE\n"
               "  edge_node master --workers host:port[,host:port...] "
               "--weights FILE\n"
               "                   [--chaos-seed N --chaos-drop P]\n"
               "  edge_node demo\n"
               "\n"
               "--chaos-seed N (N != 0) wraps every worker link in a seeded\n"
               "fault injector (drop rate P, default 0.05) and enables the\n"
               "gather deadline + probation machinery.\n"
               "\n"
               "Any subcommand also takes --trace PATH (Chrome trace-event\n"
               "JSON, open in Perfetto) and --metrics PATH (counter\n"
               "snapshot).\n");
}

[[noreturn]] void usage_exit(const std::string& error) {
  std::fprintf(stderr, "error: %s\n\n", error.c_str());
  usage();
  std::exit(2);
}

/// Parses all of `text` as an integer in [min, max]; anything else (empty,
/// a sign, trailing junk, out of range) prints the usage and exits 2.
std::uint64_t parse_integer(const std::string& flag, const std::string& text,
                            std::uint64_t min, std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    usage_exit(flag + " needs an integer in [" + std::to_string(min) + ", " +
               std::to_string(max) + "], got '" + text + "'");
  }
  return value;
}

std::uint16_t parse_port(const std::string& flag, const std::string& text) {
  return static_cast<std::uint16_t>(parse_integer(flag, text, 0, 65535));
}

/// Parses all of `text` as a probability in [0, 1], or exits 2.
double parse_probability(const std::string& flag, const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= 0.0 && value <= 1.0)) {
    usage_exit(flag + " needs a number in [0, 1], got '" + text + "'");
  }
  return value;
}

int cmd_train(int experts, const std::string& out_dir) {
  data::MnistConfig data_cfg;
  data_cfg.num_samples = 2000;
  data::Dataset train = data::make_synthetic_mnist(data_cfg);

  core::TeamNetConfig cfg;
  cfg.num_experts = experts;
  cfg.epochs = 5;
  core::TeamNetTrainer trainer(cfg, [](int, Rng& rng) -> nn::ModulePtr {
    return std::make_unique<nn::MlpNet>(expert_config(), rng);
  });
  std::printf("training %d experts...\n", experts);
  core::TeamNetEnsemble ensemble = trainer.train(train);
  for (int i = 0; i < experts; ++i) {
    const std::string path = out_dir + "/expert" + std::to_string(i) + ".tnet";
    nn::save_module(path, ensemble.expert(i));
    std::printf("wrote %s\n", path.c_str());
  }
  std::printf("ensemble accuracy on a fresh test draw: %.1f%%\n",
              100.0 * ensemble.evaluate_accuracy(test_set()));
  return 0;
}

int cmd_worker(std::uint16_t port, const std::string& weights) {
  nn::MlpNet expert(expert_config());
  nn::load_module(weights, expert);
  net::TcpListener listener(port);
  std::printf("worker: serving %s on 127.0.0.1:%u\n", weights.c_str(),
              listener.port());
  auto channel = listener.accept();
  net::CollaborativeWorker worker(expert, *channel);
  worker.serve();
  std::printf("worker: shutdown after %lld requests\n",
              static_cast<long long>(worker.requests_served()));
  return 0;
}

int cmd_master(const std::vector<std::string>& workers,
               const std::string& weights, std::uint64_t chaos_seed,
               double chaos_drop) {
  nn::MlpNet expert(expert_config());
  nn::load_module(weights, expert);

  std::vector<net::ChannelPtr> channels;
  std::vector<net::Channel*> ptrs;
  Rng chaos_rng(chaos_seed);
  for (const auto& address : workers) {
    const auto colon = address.find(':');
    TEAMNET_CHECK_MSG(colon != std::string::npos, "worker must be host:port");
    auto channel = net::tcp_connect(
        address.substr(0, colon),
        parse_port("--workers", address.substr(colon + 1)));
    if (chaos_seed != 0) {
      // Chaos mode: inject seeded faults on this link so the deadline +
      // probation machinery can be exercised against real TCP workers.
      net::FaultProfile profile;
      profile.seed = chaos_rng.fork(channels.size()).engine()();
      profile.drop_prob = chaos_drop;
      profile.duplicate_prob = chaos_drop / 2;
      channel = net::make_faulty_channel(std::move(channel), profile);
    }
    channels.push_back(std::move(channel));
    ptrs.push_back(channels.back().get());
    std::printf("master: connected to %s%s\n", address.c_str(),
                chaos_seed != 0 ? " (chaos)" : "");
  }

  net::CollaborativeMaster master(expert, ptrs);
  if (chaos_seed != 0) {
    master.set_worker_timeout(1.0);
    master.set_probe_interval(2);
  }
  data::Dataset test = test_set();
  std::size_t correct = 0;
  for (std::int64_t r = 0; r < test.size(); ++r) {
    Tensor query({1, test.images.dim(1)});
    std::copy(test.images.data() + r * test.images.dim(1),
              test.images.data() + (r + 1) * test.images.dim(1), query.data());
    auto result = master.infer(query);
    if (result.predictions[0] == test.labels[static_cast<std::size_t>(r)]) {
      ++correct;
    }
  }
  std::printf("master: collaborative accuracy over %lld queries: %.1f%%\n",
              static_cast<long long>(test.size()),
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(test.size()));
  if (chaos_seed != 0) {
    std::printf("master: chaos stats: %d failed, %lld stale discarded, "
                "%lld rejoins\n",
                master.failed_workers(),
                static_cast<long long>(master.stale_replies_discarded()),
                static_cast<long long>(master.rejoins()));
  }
  master.shutdown();
  return 0;
}

int cmd_demo() {
  const std::string dir = "/tmp/teamnet_edge_demo";
  std::filesystem::create_directories(dir);
  if (cmd_train(2, dir) != 0) return 1;

  net::TcpListener listener(0);
  const std::uint16_t port = listener.port();
  std::thread worker([&listener, dir] {
    // Same steady-clock epoch as the master track, so the demo trace shows
    // both roles on one consistent timeline.
    obs::TraceTrack track(1, steady_seconds(), "worker");
    nn::MlpNet expert(expert_config());
    nn::load_module(dir + "/expert1.tnet", expert);
    auto channel = listener.accept();
    net::CollaborativeWorker w(expert, *channel);
    w.serve();
  });
  const int rc = cmd_master({"127.0.0.1:" + std::to_string(port)},
                            dir + "/expert0.tnet", /*chaos_seed=*/0,
                            /*chaos_drop=*/0.0);
  worker.join();
  return rc;
}

std::string flag_value(int argc, char** argv, const std::string& flag,
                       const std::string& fallback = "") {
  for (int i = 2; i + 1 < argc; ++i) {
    if (flag == argv[i]) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    const std::string trace_path = flag_value(argc, argv, "--trace");
    const std::string metrics_path = flag_value(argc, argv, "--metrics");
    if (!trace_path.empty()) obs::require_writable_parent(trace_path, "--trace");
    if (!metrics_path.empty()) {
      obs::require_writable_parent(metrics_path, "--metrics");
    }
    if (!trace_path.empty()) obs::Tracer::instance().start();
    // The main thread plays one role per subcommand; real TCP means the
    // wall clock is the track's TimeSource.
    obs::TraceTrack track(0, steady_seconds(), command);
    int rc = 2;
    bool handled = true;
    if (command == "train") {
      const std::string out = flag_value(argc, argv, "--out", ".");
      std::filesystem::create_directories(out);
      rc = cmd_train(static_cast<int>(parse_integer(
                         "--experts", flag_value(argc, argv, "--experts", "2"),
                         1, std::numeric_limits<int>::max())),
                     out);
    } else if (command == "worker") {
      rc = cmd_worker(
          parse_port("--listen", flag_value(argc, argv, "--listen", "0")),
          flag_value(argc, argv, "--weights"));
    } else if (command == "master") {
      std::vector<std::string> workers;
      std::string list = flag_value(argc, argv, "--workers");
      std::size_t pos = 0;
      while (pos != std::string::npos && !list.empty()) {
        const std::size_t comma = list.find(',', pos);
        workers.push_back(list.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos));
        pos = comma == std::string::npos ? comma : comma + 1;
      }
      TEAMNET_CHECK_MSG(!workers.empty(), "--workers required");
      rc = cmd_master(
          workers, flag_value(argc, argv, "--weights"),
          parse_integer("--chaos-seed",
                        flag_value(argc, argv, "--chaos-seed", "0"), 0,
                        std::numeric_limits<std::uint64_t>::max()),
          parse_probability("--chaos-drop",
                            flag_value(argc, argv, "--chaos-drop", "0.05")));
    } else if (command == "demo") {
      rc = cmd_demo();
    } else {
      handled = false;
    }
    if (handled) {
      if (!trace_path.empty()) {
        obs::Tracer::instance().write(trace_path);
        std::printf("wrote trace to %s\n", trace_path.c_str());
      }
      if (!metrics_path.empty()) {
        obs::write_metrics_json(metrics_path);
        std::printf("wrote metrics snapshot to %s\n", metrics_path.c_str());
      }
      return rc;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
