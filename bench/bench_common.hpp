// Shared infrastructure for the paper-reproduction benches: dataset +
// architecture setups matching §VI, cached model training (weights and gate
// telemetry are stored under ./bench_cache so the table and figure benches
// that share models train them only once), and table printing in the
// paper's row layout with the paper's reported numbers alongside.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/teamnet.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_mnist.hpp"
#include "load/breakdown.hpp"
#include "load/loadgen.hpp"
#include "moe/sg_moe.hpp"
#include "nn/mlp.hpp"
#include "nn/shake_shake.hpp"
#include "sim/scenario.hpp"

namespace teamnet::bench {

struct Options {
  bool quick = false;  ///< --quick: smaller data/epochs for smoke runs
  std::string cache_dir = "bench_cache";
  std::string json_path;     ///< --json PATH: machine-readable results sink
  std::string trace_path;    ///< --trace PATH: Chrome trace-event JSON sink
  std::string metrics_path;  ///< --metrics PATH: metrics snapshot JSON sink
  /// --breakdown PATH: per-scenario latency-attribution report (rich
  /// nested JSON — per-phase critical-path totals, dominant-phase census,
  /// straggler slack, per-degradation-level splits). Byte-stable under
  /// discrete_event; CI gates it by double-run byte identity, while the
  /// flat --json row carries the compare-gated headline shares.
  std::string breakdown_path;
};

/// Parses the shared bench flags. Every output-file flag (--json, --trace,
/// --metrics) fails fast with a teamnet::Error naming the flag and path when
/// the parent directory does not exist, instead of discovering the problem
/// after minutes of training. --trace also arms the process tracer;
/// write_observability_outputs() drains it.
Options parse_options(int argc, char** argv);

/// Writes the trace (--trace) and metrics snapshot (--metrics) if those
/// options were given. Call once at the end of main, after the last
/// scenario completes (an atexit hook would also fire on std::exit from
/// usage errors, writing empty files).
void write_observability_outputs(const Options& opts);

/// Prints the standard bench banner (what is being reproduced + caveats).
void print_banner(const std::string& experiment, const std::string& paper_ref);

/// A load run's headline columns as the ScenarioResult JsonReport speaks
/// (the load-specific metrics ride in a row's extras).
sim::ScenarioResult as_scenario(const load::LoadResult& r);

/// Machine-readable results sink behind --json: collects one row per
/// measured scenario and writes them as a single JSON document (experiment
/// name, the scheduler tag — always "discrete_event", kept so frozen
/// baselines and tools/bench_compare.py read unchanged — and per-row
/// approach/nodes/latency/accuracy/traffic). Doubles are emitted with
/// %.17g so a bit-stable run produces a byte-stable file. No-op when the
/// option was not given.
class JsonReport {
 public:
  JsonReport(const Options& opts, std::string experiment);
  void add(const std::string& label, const sim::ScenarioResult& result);
  /// Same row, plus bench-specific numeric fields appended to the JSON
  /// object (e.g. the resilience sweep's p50/p99 and degradation-mix
  /// counters). Keys must be valid JSON identifiers; values are emitted
  /// with the same %.17g rule as the standard columns.
  void add(const std::string& label, const sim::ScenarioResult& result,
           std::vector<std::pair<std::string, double>> extras);
  /// Attaches the full per-iteration convergence series (gamma-bar per
  /// expert, gate objective, inner-loop iterations) for one trained team.
  /// The figure benches use this so --json carries the exact curves the
  /// terminal plot renders.
  void add_convergence(const std::string& label,
                       const core::ConvergenceTelemetry& telemetry);
  /// Writes the collected rows to Options::json_path. Call once at exit.
  void write() const;

 private:
  std::string path_;
  std::string experiment_;
  struct Row {
    std::string label;
    sim::ScenarioResult result;
    std::vector<std::pair<std::string, double>> extras;
  };
  std::vector<Row> rows_;
  struct ConvergenceRow {
    std::string label;
    core::ConvergenceTelemetry::Series series;
  };
  std::vector<ConvergenceRow> convergence_;
};

/// Latency-attribution sink behind --breakdown: one BreakdownSummary per
/// measured scenario, written as a single JSON document via
/// load::append_breakdown_json. No-op when the option was not given.
class BreakdownReport {
 public:
  BreakdownReport(const Options& opts, std::string experiment);
  void add(const std::string& label, const load::BreakdownSummary& summary);
  /// Writes the collected rows to Options::breakdown_path. Call at exit.
  void write() const;

 private:
  std::string path_;
  std::string experiment_;
  std::vector<std::pair<std::string, load::BreakdownSummary>> rows_;
};

/// Each set-up's synthetic set is split at split_row(n, kTestFraction):
/// the rows before it are the test split, the rest the training rows.
inline constexpr double kTestFraction = 0.2;

/// The training rows of a set-up's synthetic set, built by the first get()
/// and kept, so a set-up whose models all load from the cache never builds
/// them. The first get() writes the rows: make it from one thread.
template <class Config>
class TrainRows {
 public:
  explicit TrainRows(const Config& config) : config_(config) {}
  const data::Dataset& get() const;
  std::int64_t size() const {
    return config_.num_samples -
           data::split_row(config_.num_samples, kTestFraction);
  }
  bool built() const { return rows_.has_value(); }

 private:
  Config config_;
  mutable std::optional<data::Dataset> rows_;
};

// ---- MNIST (handwritten digit recognition, §VI-C) --------------------------

struct MnistSetup {
  data::Dataset test;  ///< built with the set-up
  TrainRows<data::MnistConfig> train_rows;
  nn::MlpConfig mlp8;  ///< baseline
  nn::MlpConfig mlp4;  ///< TeamNet double-node expert
  nn::MlpConfig mlp2;  ///< TeamNet quadro-node expert

  /// The training rows, built on the first call.
  const data::Dataset& train() const { return train_rows.get(); }
  std::int64_t train_size() const { return train_rows.size(); }
};

MnistSetup mnist_setup(const Options& opts);

/// Expert config for K experts (paper: 2 -> MLP-4, 4 -> MLP-2).
const nn::MlpConfig& mnist_expert_cfg(const MnistSetup& setup, int num_experts);

// ---- CIFAR (image classification, §VI-D) ------------------------------------

struct CifarSetup {
  data::Dataset test;  ///< built with the set-up
  TrainRows<data::CifarConfig> train_rows;
  nn::ShakeShakeConfig ss26;  ///< baseline
  nn::ShakeShakeConfig ss14;  ///< TeamNet double-node expert
  nn::ShakeShakeConfig ss8;   ///< TeamNet quadro-node expert

  /// The training rows, built on the first call.
  const data::Dataset& train() const { return train_rows.get(); }
  std::int64_t train_size() const { return train_rows.size(); }
};

CifarSetup cifar_setup(const Options& opts);

const nn::ShakeShakeConfig& cifar_expert_cfg(const CifarSetup& setup,
                                             int num_experts);

// ---- checkpoint cache -------------------------------------------------------

/// One all-or-nothing cache entry: `<dir>/<stem><suffix>.tnet` per module
/// and, when `telemetry` is set, `<dir>/<stem>.telemetry.tnet` holding one
/// [iterations, k+2] tensor (k gamma-bar columns, the gate objective, the
/// gate inner-loop iterations). Every file is a TNET checkpoint, so floats
/// round-trip exactly and a truncated or corrupt file fails to decode.
struct CacheEntry {
  std::string stem;
  std::vector<std::pair<std::string, nn::Module*>> modules;  ///< suffix, module
  core::ConvergenceTelemetry* telemetry = nullptr;
};

/// Loads every file of `cached` into its modules and telemetry. If any file
/// is missing or fails to decode the entry is uncached: `train` runs, and
/// every file of the entry it returns is saved atomically under `dir`. A
/// failed load may have overwritten some of `cached`'s modules, so `train`
/// must train freshly built modules, not those.
void load_or_train(const std::string& dir, const CacheEntry& cached,
                   const std::function<CacheEntry()>& train);

// ---- cached training --------------------------------------------------------

/// Trained TeamNet experts plus the gate telemetry from training (telemetry
/// is cached alongside the weights so convergence figures reload instantly).
struct TrainedTeam {
  std::vector<nn::ModulePtr> experts;
  core::ConvergenceTelemetry telemetry;

  std::vector<nn::Module*> expert_ptrs() const {
    std::vector<nn::Module*> ptrs;
    for (const auto& e : experts) ptrs.push_back(e.get());
    return ptrs;
  }
};

std::unique_ptr<nn::MlpNet> train_mnist_baseline(const MnistSetup& setup,
                                                 const Options& opts);
TrainedTeam train_mnist_teamnet(const MnistSetup& setup, int num_experts,
                                const Options& opts,
                                core::GateKind gate = core::GateKind::Learned);
std::unique_ptr<moe::SgMoe> train_mnist_sgmoe(const MnistSetup& setup,
                                              int num_experts,
                                              const Options& opts);

std::unique_ptr<nn::ShakeShakeNet> train_cifar_baseline(const CifarSetup& setup,
                                                        const Options& opts);
TrainedTeam train_cifar_teamnet(const CifarSetup& setup, int num_experts,
                                const Options& opts);
std::unique_ptr<moe::SgMoe> train_cifar_sgmoe(const CifarSetup& setup,
                                              int num_experts,
                                              const Options& opts);

/// Prints one panel of a gate-convergence figure (Figures 6 and 8): the
/// smoothed gamma per expert at evenly spaced iterations and its largest
/// deviation from the 1/K set point. Panel (a) is K=2, (b) any other K.
void print_convergence_series(const core::ConvergenceTelemetry& telemetry,
                              int k);

// ---- paper-style tables ------------------------------------------------------

/// One table column: a measured scenario result + the paper's numbers for
/// the same cell (NaN = paper did not report it).
struct PaperColumn {
  std::string header;
  sim::ScenarioResult measured;
  double paper_latency_ms = -1.0;
  double paper_accuracy_pct = -1.0;
};

/// Prints the paper's metric-rows-by-approach-columns layout, with a second
/// block showing the paper's reported values for direct comparison.
void print_comparison_table(const std::string& title,
                            const std::vector<PaperColumn>& columns,
                            bool show_gpu_row);

}  // namespace teamnet::bench
