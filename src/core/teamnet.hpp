// TeamNet training (Algorithm 1) and collaborative inference (paper §V).
//
// Training: per batch, probe every expert's predictive entropy, run the
// dynamic gate to partition the batch, and let each expert learn only its
// partition. Inference: every expert predicts; the output of the expert
// with the least predictive entropy wins (Figure 4's argmin gate).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/expert_trainer.hpp"
#include "core/gate_policy.hpp"
#include "core/telemetry.hpp"
#include "data/dataset.hpp"
#include "nn/module.hpp"

namespace teamnet::core {

struct TeamNetConfig {
  int num_experts = 2;         ///< K
  int epochs = 3;              ///< r in Algorithm 1
  std::int64_t batch_size = 64;
  GateKind gate_kind = GateKind::Learned;
  GateTrainerConfig gate;
  nn::SgdConfig sgd;
  std::uint64_t seed = 7;
};

/// Builds expert `index` (0-based). Experts may differ per index but the
/// paper uses identical downsized architectures.
using ExpertFactory = std::function<nn::ModulePtr(int index, Rng& rng)>;

/// How the ensemble combines expert outputs at inference time. ArgMin is
/// the paper's gate; MajorityVote is §V's discussed-and-rejected
/// alternative, kept for the ablation bench.
enum class SelectionRule { ArgMinEntropy, MajorityVote };

/// Per input row: the combined answer and every expert's uncertainty.
struct InferenceResult {
  Tensor probs;                 ///< [n, C] winning expert's probabilities
  std::vector<int> predictions; ///< argmax class per sample
  std::vector<int> chosen;      ///< winning expert per sample
  Tensor entropy;               ///< [n, K] every expert's uncertainty
};

/// TeamNet's collaborative inference (paper §V) over borrowed experts:
/// every expert scores `x` and `rule` picks each row's winner. Under
/// ArgMinEntropy (Figure 4's gate) the expert with the least predictive
/// entropy wins, ties going to the lowest index, and its argmax is the
/// prediction: the in-process reference every serving mode must match.
InferenceResult infer_experts(
    const std::vector<nn::Module*>& experts, const Tensor& x,
    SelectionRule rule = SelectionRule::ArgMinEntropy);

/// Rows of `dataset` whose infer_experts() prediction matches the label.
std::size_t count_correct(const std::vector<nn::Module*>& experts,
                          const data::Dataset& dataset,
                          SelectionRule rule = SelectionRule::ArgMinEntropy);

class TeamNetEnsemble {
 public:
  explicit TeamNetEnsemble(std::vector<nn::ModulePtr> experts);

  /// infer_experts over this ensemble's experts.
  InferenceResult infer(const Tensor& x,
                        SelectionRule rule = SelectionRule::ArgMinEntropy);

  /// Classification accuracy over a dataset.
  double evaluate_accuracy(const data::Dataset& dataset,
                           SelectionRule rule = SelectionRule::ArgMinEntropy);

  int num_experts() const { return static_cast<int>(experts_.size()); }
  nn::Module& expert(int i) { return *experts_.at(static_cast<std::size_t>(i)); }
  /// Transfers ownership of the experts out (deploying them to edge nodes).
  std::vector<nn::ModulePtr> release_experts() { return std::move(experts_); }

 private:
  std::vector<nn::Module*> expert_ptrs() const;

  std::vector<nn::ModulePtr> experts_;
};

class TeamNetTrainer {
 public:
  TeamNetTrainer(const TeamNetConfig& config, ExpertFactory factory);

  /// Runs Algorithm 1 on `train_data` and returns the trained ensemble.
  TeamNetEnsemble train(const data::Dataset& train_data);

  /// Gate convergence telemetry from the last train() call (Figures 6, 8).
  const ConvergenceTelemetry& telemetry() const { return telemetry_; }

  const TeamNetConfig& config() const { return config_; }

 private:
  TeamNetConfig config_;
  ExpertFactory factory_;
  ConvergenceTelemetry telemetry_;
};

}  // namespace teamnet::core
