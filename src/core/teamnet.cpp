#include "core/teamnet.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "core/entropy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace teamnet::core {

TeamNetEnsemble::TeamNetEnsemble(std::vector<nn::ModulePtr> experts)
    : experts_(std::move(experts)) {
  TEAMNET_CHECK(!experts_.empty());
  for (auto& e : experts_) {
    TEAMNET_CHECK(e != nullptr);
    e->set_training(false);
  }
}

// analyze:hot  (per-query path: hot-path allocation audit root)
InferenceResult infer_experts(const std::vector<nn::Module*>& experts,
                              const Tensor& x, SelectionRule rule) {
  const std::int64_t n = x.dim(0);
  const int k = static_cast<int>(experts.size());

  // Step 3 of Figure 1: every expert runs on the same input.
  std::vector<Tensor> probs(static_cast<std::size_t>(k));
  InferenceResult result;
  result.entropy = Tensor({n, static_cast<std::int64_t>(k)});
  for (int i = 0; i < k; ++i) {
    probs[static_cast<std::size_t>(i)] =
        ops::softmax_rows(experts[static_cast<std::size_t>(i)]->predict(x));
    Tensor h = predictive_entropy(probs[static_cast<std::size_t>(i)]);
    for (std::int64_t r = 0; r < n; ++r) result.entropy[r * k + i] = h[r];
  }

  const std::int64_t c = probs[0].dim(1);
  result.probs = Tensor({n, c});
  result.chosen.resize(static_cast<std::size_t>(n));
  result.predictions.resize(static_cast<std::size_t>(n));

  if (rule == SelectionRule::ArgMinEntropy) {
    // Steps 4-5: the least-uncertain expert's output is the final answer.
    result.chosen = ops::argmin_rows(result.entropy);
    for (std::int64_t r = 0; r < n; ++r) {
      const int w = result.chosen[static_cast<std::size_t>(r)];
      const float* src = probs[static_cast<std::size_t>(w)].data() + r * c;
      std::copy(src, src + c, result.probs.data() + r * c);
    }
  } else {
    // Majority vote; ties break toward the least-uncertain voter.
    for (std::int64_t r = 0; r < n; ++r) {
      std::vector<int> votes(static_cast<std::size_t>(c), 0);
      for (int i = 0; i < k; ++i) {
        const float* row = probs[static_cast<std::size_t>(i)].data() + r * c;
        const int cls = static_cast<int>(std::max_element(row, row + c) - row);
        ++votes[static_cast<std::size_t>(cls)];
      }
      const int top_votes = *std::max_element(votes.begin(), votes.end());
      int winner = -1;
      float winner_entropy = 1e9f;
      for (int i = 0; i < k; ++i) {
        const float* row = probs[static_cast<std::size_t>(i)].data() + r * c;
        const int cls = static_cast<int>(std::max_element(row, row + c) - row);
        if (votes[static_cast<std::size_t>(cls)] == top_votes &&
            result.entropy[r * k + i] < winner_entropy) {
          winner = i;
          winner_entropy = result.entropy[r * k + i];
        }
      }
      result.chosen[static_cast<std::size_t>(r)] = winner;
      const float* src = probs[static_cast<std::size_t>(winner)].data() + r * c;
      std::copy(src, src + c, result.probs.data() + r * c);
    }
  }

  result.predictions = ops::argmax_rows(result.probs);
  return result;
}

std::size_t count_correct(const std::vector<nn::Module*>& experts,
                          const data::Dataset& dataset, SelectionRule rule) {
  const InferenceResult result = infer_experts(experts, dataset.images, rule);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < dataset.labels.size(); ++i) {
    if (result.predictions[i] == dataset.labels[i]) ++correct;
  }
  return correct;
}

std::vector<nn::Module*> TeamNetEnsemble::expert_ptrs() const {
  std::vector<nn::Module*> ptrs;
  for (const auto& e : experts_) ptrs.push_back(e.get());
  return ptrs;
}

InferenceResult TeamNetEnsemble::infer(const Tensor& x, SelectionRule rule) {
  return infer_experts(expert_ptrs(), x, rule);
}

double TeamNetEnsemble::evaluate_accuracy(const data::Dataset& dataset,
                                          SelectionRule rule) {
  return dataset.labels.empty()
             ? 0.0
             : static_cast<double>(count_correct(expert_ptrs(), dataset,
                                                 rule)) /
                   static_cast<double>(dataset.labels.size());
}

TeamNetTrainer::TeamNetTrainer(const TeamNetConfig& config,
                               ExpertFactory factory)
    : config_(config), factory_(std::move(factory)) {
  TEAMNET_CHECK(config.num_experts >= 2);
  TEAMNET_CHECK(config.epochs >= 1 && config.batch_size >= 1);
  TEAMNET_CHECK(factory_ != nullptr);
}

TeamNetEnsemble TeamNetTrainer::train(const data::Dataset& train_data) {
  train_data.validate();
  Rng rng(config_.seed);
  telemetry_ = ConvergenceTelemetry{};

  // Build K experts from the factory (paper §III: same downsized
  // architecture, independent random weights).
  std::vector<nn::ModulePtr> experts;
  std::vector<nn::Module*> expert_ptrs;
  for (int i = 0; i < config_.num_experts; ++i) {
    Rng expert_rng = rng.fork(static_cast<std::uint64_t>(i) + 100);
    experts.push_back(factory_(i, expert_rng));
    expert_ptrs.push_back(experts.back().get());
  }

  auto gate = make_gate_policy(config_.gate_kind, config_.num_experts,
                               config_.gate, rng.fork(1));
  ExpertTrainer expert_trainer(expert_ptrs, config_.sgd);

  // Registry handles resolved once, outside the batch loop.
  auto& registry = obs::MetricsRegistry::instance();
  obs::Counter& gate_iterations = registry.counter("gate.iterations_total");
  obs::Counter& gate_batches = registry.counter("gate.batches_total");
  obs::Histogram& gate_iteration_hist = registry.histogram(
      "gate.iterations_per_batch", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  obs::Gauge& gate_objective = registry.gauge("gate.last_objective");

  Rng shuffle_rng = rng.fork(2);
  data::BatchIterator batches(train_data, config_.batch_size, &shuffle_rng);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    batches.reset();
    for (data::Batch batch = batches.next(); batch.size() > 0;
         batch = batches.next()) {
      // Algorithm 1 lines 6-8.
      Tensor h = entropy_matrix(expert_ptrs, batch.x);
      GateDecision decision;
      {
        obs::TraceSpan span("gate_decide");
        decision = gate->decide(h);
      }
      expert_trainer.train_on_batch(batch.x, batch.y, decision.assignment);
      telemetry_.record(decision.gamma_bar, decision.objective,
                        decision.iterations);
      gate_iterations.add(decision.iterations);
      gate_batches.increment();
      gate_iteration_hist.observe(static_cast<double>(decision.iterations));
      gate_objective.set(static_cast<double>(decision.objective));
    }
    LOG_INFO("teamnet epoch " << epoch + 1 << "/" << config_.epochs
                              << " done, iterations=" << telemetry_.iterations());
  }

  return TeamNetEnsemble(std::move(experts));
}

}  // namespace teamnet::core
