// Algorithm 3 ("Training Experts"): each expert receives only the batch
// rows the gate assigned to it and takes one cross-entropy SGD step with
// gradient-norm normalization.
#pragma once

#include <memory>
#include <vector>

#include "data/dataset.hpp"
#include "nn/module.hpp"
#include "nn/optim.hpp"

namespace teamnet::core {

class ExpertTrainer {
 public:
  /// Non-owning view of the experts; one SGD optimizer is created per
  /// expert and persists across batches.
  ExpertTrainer(std::vector<nn::Module*> experts, const nn::SgdConfig& sgd);

  /// One Algorithm-3 step. `assignment[r]` names the expert that learns
  /// batch row r. Returns the per-expert mean loss (NaN-free: experts with
  /// an empty partition report 0 and take no step).
  std::vector<float> train_on_batch(const Tensor& x,
                                    const std::vector<int>& labels,
                                    const std::vector<int>& assignment);

  int num_experts() const { return static_cast<int>(experts_.size()); }

 private:
  std::vector<nn::Module*> experts_;
  std::vector<std::unique_ptr<nn::Sgd>> optimizers_;
};

}  // namespace teamnet::core
