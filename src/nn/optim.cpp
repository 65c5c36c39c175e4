#include "nn/optim.hpp"

#include <cmath>

namespace teamnet::nn {

Sgd::Sgd(std::vector<ag::Var> params, const SgdConfig& config)
    : params_(std::move(params)), config_(config) {
  velocity_.reserve(params_.size());
  for (const auto& p : params_) velocity_.emplace_back(p.value().shape());
}

void Sgd::step() {
  // Global-norm clipping across all parameters that received gradients.
  float scale = 1.0f;
  if (config_.max_grad_norm > 0.0f) {
    double sq = 0.0;
    for (const auto& p : params_) {
      if (!p.has_grad()) continue;
      for (float g : p.grad().values()) sq += static_cast<double>(g) * g;
    }
    const float norm = static_cast<float>(std::sqrt(sq));
    if (norm > config_.max_grad_norm) scale = config_.max_grad_norm / norm;
  }

  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    float* v = velocity_[i].data();
    const std::int64_t n = p.value().numel();
    for (std::int64_t j = 0; j < n; ++j) {
      float grad = g[j] * scale + config_.weight_decay * w[j];
      v[j] = config_.momentum * v[j] + grad;
      w[j] -= config_.lr * v[j];
    }
    p.zero_grad();
  }
}

}  // namespace teamnet::nn
