#include "core/expert_trainer.hpp"

#include "core/gate.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace teamnet::core {

ExpertTrainer::ExpertTrainer(std::vector<nn::Module*> experts,
                             const nn::SgdConfig& sgd)
    : experts_(std::move(experts)) {
  TEAMNET_CHECK(!experts_.empty());
  optimizers_.reserve(experts_.size());
  for (auto* expert : experts_) {
    TEAMNET_CHECK(expert != nullptr);
    optimizers_.push_back(std::make_unique<nn::Sgd>(expert->parameters(), sgd));
  }
}

std::vector<float> ExpertTrainer::train_on_batch(
    const Tensor& x, const std::vector<int>& labels,
    const std::vector<int>& assignment) {
  TEAMNET_CHECK(x.dim(0) == static_cast<std::int64_t>(labels.size()));
  TEAMNET_CHECK(labels.size() == assignment.size());
  const int k = num_experts();
  const auto partitions = partition_by_assignment(assignment, k);

  std::vector<float> losses(static_cast<std::size_t>(k), 0.0f);
  for (int i = 0; i < k; ++i) {
    const auto& rows = partitions[static_cast<std::size_t>(i)];
    if (rows.empty()) continue;  // no expert learns from data it did not win
    Tensor xi = ops::take_rows(x, rows);
    std::vector<int> yi;
    yi.reserve(rows.size());
    for (int r : rows) yi.push_back(labels[static_cast<std::size_t>(r)]);

    nn::Module& expert = *experts_[static_cast<std::size_t>(i)];
    expert.set_training(true);
    ag::Var logits = expert.forward(ag::Var(xi));
    ag::Var loss = nn::cross_entropy_loss(logits, yi);
    ag::backward(loss);
    optimizers_[static_cast<std::size_t>(i)]->step();
    losses[static_cast<std::size_t>(i)] = loss.value()[0];
  }
  return losses;
}

}  // namespace teamnet::core
