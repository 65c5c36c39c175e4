// Schedule-exploring race detector CLI (DESIGN.md §11).
//
//   schedule_explore --scenario=chaos --seed=3 --schedules=50
//     runs the scenario once under the canonical grant policy, then 50 more
//     times under perturbed (random-tiebreak / PCT) schedules, and exits
//     nonzero if any discrete outcome depended on the schedule, any run
//     deadlocked, or any engine/protocol invariant tripped. Violations are
//     printed with a ready-to-paste replay command.
//
//   schedule_explore --scenario=chaos --seed=3 --replay --policy=pct
//       --schedule-seed=17 [--trace=out.json]
//     re-runs exactly one schedule (a counterexample) and prints its digest
//     and discrete outcome; --trace captures a Perfetto-loadable trace of
//     the replayed interleaving.
//
// The report is byte-stable for a fixed flag set: CI diffs two invocations
// to prove the explorer itself is deterministic.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "explore/explore_scenarios.hpp"

namespace teamnet {
namespace {

struct Cli {
  std::string scenario = "teamnet";
  std::uint64_t seed = 123;
  int queries = 8;
  int schedules = 50;
  std::uint64_t schedule_seed0 = 1;
  bool mutate = false;
  bool replay = false;
  sim::des::GrantPolicyKind policy = sim::des::GrantPolicyKind::canonical;
  std::uint64_t schedule_seed = 0;
  std::string trace_path;
  bool trace_sched = false;
  double latency_s = -1.0;    ///< <0: keep the scenario default
  double bandwidth_bps = -1.0;
  double overhead_s = -1.0;
  double timeout_s = -1.0;    ///< chaos gather deadline
  double slack_s = -1.0;      ///< perturbed-policy eligibility window
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n\n"
            << "usage: schedule_explore --scenario=NAME [options]\n"
            << "  --scenario=NAME       teamnet|mpi|sg-moe|chaos|resilience|load|\n"
            << "                        multicast|resilience-multicast\n"
            << "  --seed=N              scenario seed (default 123)\n"
            << "  --queries=N           queries per run, >= 1 (default 8)\n"
            << "  --schedules=N         perturbed schedules, >= 1 (default 50)\n"
            << "  --schedule-seed0=N    first schedule seed (default 1)\n"
            << "  --mutate              arm the pre-query-id gather mutant\n"
            << "                        (chaos scenario; mutation-gate use)\n"
            << "  --replay              run ONE schedule instead of exploring\n"
            << "  --policy=P            replay: canonical|random-tiebreak|pct\n"
            << "  --schedule-seed=N     replay: the schedule seed\n"
            << "  --trace=PATH          replay: write Chrome trace JSON\n"
            << "  --trace-sched         include DES scheduler events\n"
            << "  --latency=S --bandwidth=BPS --overhead=S\n"
            << "                        link overrides (defaults: contended)\n"
            << "  --timeout=S           chaos gather deadline override\n"
            << "  --slack=S             perturbed-policy eligibility window\n";
  std::exit(2);
}

/// Parses all of `text` as an integer in [min, max]; anything else (empty,
/// a sign, trailing junk, out of range) is a usage error naming `flag`.
std::uint64_t parse_integer(const std::string& flag, const std::string& text,
                            std::uint64_t min, std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    usage(flag + " needs an integer in [" + std::to_string(min) + ", " +
          std::to_string(max) + "], got '" + text + "'");
  }
  return value;
}

std::uint64_t parse_seed(const std::string& flag, const std::string& text) {
  return parse_integer(flag, text, 0,
                       std::numeric_limits<std::uint64_t>::max());
}

int parse_positive(const std::string& flag, const std::string& text) {
  return static_cast<int>(
      parse_integer(flag, text, 1, std::numeric_limits<int>::max()));
}

/// Parses all of `text` as a finite number >= 0, or dies with the usage.
double parse_non_negative(const std::string& flag, const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value < 0.0) {
    usage(flag + " needs a finite number >= 0, got '" + text + "'");
  }
  return value;
}

/// Accepts --flag=value and --flag value; returns the value or dies.
std::string flag_value(int argc, char** argv, int& i, const std::string& arg,
                       std::size_t eq) {
  if (eq != std::string::npos) return arg.substr(eq + 1);
  if (i + 1 >= argc) usage("missing value for " + arg);
  return argv[++i];
}

Cli parse(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    auto value = [&] { return flag_value(argc, argv, i, arg, eq); };
    if (name == "--scenario") {
      cli.scenario = value();
    } else if (name == "--seed") {
      cli.seed = parse_seed(name, value());
    } else if (name == "--queries") {
      cli.queries = parse_positive(name, value());
    } else if (name == "--schedules") {
      cli.schedules = parse_positive(name, value());
    } else if (name == "--schedule-seed0") {
      cli.schedule_seed0 = parse_seed(name, value());
    } else if (name == "--schedule-seed") {
      cli.schedule_seed = parse_seed(name, value());
    } else if (name == "--mutate") {
      cli.mutate = true;
    } else if (name == "--replay") {
      cli.replay = true;
    } else if (name == "--policy") {
      const auto kind = sim::des::parse_grant_policy(value());
      if (!kind) usage("unknown --policy (canonical|random-tiebreak|pct)");
      cli.policy = *kind;
    } else if (name == "--trace") {
      cli.trace_path = value();
    } else if (name == "--trace-sched") {
      cli.trace_sched = true;
    } else if (name == "--latency") {
      cli.latency_s = parse_non_negative(name, value());
    } else if (name == "--bandwidth") {
      cli.bandwidth_bps = parse_non_negative(name, value());
    } else if (name == "--overhead") {
      cli.overhead_s = parse_non_negative(name, value());
    } else if (name == "--timeout") {
      cli.timeout_s = parse_non_negative(name, value());
    } else if (name == "--slack") {
      cli.slack_s = parse_non_negative(name, value());
    } else {
      usage("unknown flag: " + arg);
    }
  }
  if (!cli.trace_path.empty() && !cli.replay) {
    usage("--trace only applies to --replay (one schedule per trace file)");
  }
  return cli;
}

int run(const Cli& cli) {
  sim::ExploreScenarioOptions options;
  options.seed = cli.seed;
  options.num_queries = cli.queries;
  options.chaos.test_pre_qid_gather = cli.mutate;
  if (cli.latency_s >= 0.0) options.link.latency_s = cli.latency_s;
  if (cli.bandwidth_bps >= 0.0) options.link.bandwidth_bps = cli.bandwidth_bps;
  if (cli.overhead_s >= 0.0) {
    options.link.per_message_overhead_s = cli.overhead_s;
  }
  if (cli.timeout_s >= 0.0) options.chaos.worker_timeout_s = cli.timeout_s;
  if (cli.slack_s >= 0.0) options.schedule_slack_s = cli.slack_s;
  const auto runner = sim::make_explore_runner(cli.scenario, options);

  if (cli.replay) {
    if (!cli.trace_path.empty()) {
      obs::Tracer::instance().set_scheduler_events(cli.trace_sched);
      obs::Tracer::instance().start();
    }
    sim::des::ScheduleCase c;
    c.policy = cli.policy;
    c.schedule_seed = cli.schedule_seed;
    const sim::des::RunOutcome outcome = runner(c);
    if (!cli.trace_path.empty()) {
      obs::Tracer::instance().write(cli.trace_path);
      std::cout << "wrote trace to " << cli.trace_path << "\n";
    }
    std::cout << "replay policy=" << to_string(c.policy)
              << " schedule_seed=" << c.schedule_seed << "\n"
              << "digest=0x" << std::hex << outcome.digest << std::dec << "\n";
    if (outcome.deadlocked) {
      std::cout << "DEADLOCK\n";
      return 1;
    }
    if (!outcome.error.empty()) {
      std::cout << "ERROR: " << outcome.error << "\n";
      return 1;
    }
    std::cout << outcome.discrete;
    return 0;
  }

  sim::des::ExploreConfig config;
  config.num_schedules = cli.schedules;
  config.schedule_seed0 = cli.schedule_seed0;
  // Every fixture-shaping flag must make it into the repro prefix, or the
  // printed counterexample would replay a different fixture than the one
  // that diverged.
  std::ostringstream prefix;
  prefix << "schedule_explore --scenario=" << cli.scenario
         << " --seed=" << cli.seed << " --queries=" << cli.queries;
  if (cli.mutate) prefix << " --mutate";
  if (cli.latency_s >= 0.0) prefix << " --latency=" << cli.latency_s;
  if (cli.bandwidth_bps >= 0.0) prefix << " --bandwidth=" << cli.bandwidth_bps;
  if (cli.overhead_s >= 0.0) prefix << " --overhead=" << cli.overhead_s;
  if (cli.timeout_s >= 0.0) prefix << " --timeout=" << cli.timeout_s;
  if (cli.slack_s >= 0.0) prefix << " --slack=" << cli.slack_s;
  config.repro_prefix = prefix.str();
  const auto report = sim::des::explore_schedules(runner, config);
  std::cout << sim::des::format_report(report);
  return report.passed() ? 0 : 1;
}

}  // namespace
}  // namespace teamnet

int main(int argc, char** argv) {
  try {
    return teamnet::run(teamnet::parse(argc, argv));
  } catch (const teamnet::Error& e) {
    std::cerr << "schedule_explore: " << e.what() << "\n";
    return 2;
  }
}
