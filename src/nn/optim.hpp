// SGD with momentum, operating on parameter Vars in place.
#pragma once

#include <vector>

#include "tensor/autograd.hpp"

namespace teamnet::nn {

struct SgdConfig {
  float lr = 0.05f;
  float momentum = 0.9f;
  float weight_decay = 0.0f;
  /// When > 0, gradients are rescaled so their global L2 norm is at most
  /// this value (the "normalized gradients" step of Algorithm 3).
  float max_grad_norm = 5.0f;
};

class Sgd {
 public:
  Sgd(std::vector<ag::Var> params, const SgdConfig& config);

  /// Applies one update from the accumulated gradients (parameters without a
  /// gradient are skipped) and then clears all gradients.
  void step();

 private:
  std::vector<ag::Var> params_;
  SgdConfig config_;
  std::vector<Tensor> velocity_;
};

}  // namespace teamnet::nn
