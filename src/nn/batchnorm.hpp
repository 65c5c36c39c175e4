// Batch normalization (Ioffe & Szegedy 2015) for both dense ([N, F]) and
// convolutional ([N, C, H, W]) activations. Training mode normalizes by the
// batch statistics and maintains exponential running averages that eval mode
// uses instead.
#pragma once

#include "nn/module.hpp"

namespace teamnet::nn {

class BatchNorm : public Module {
 public:
  /// `channels` is F for 2-D inputs and C for 4-D inputs.
  explicit BatchNorm(std::int64_t channels, float momentum = 0.1f,
                     float eps = 1e-5f);

  ag::Var forward(const ag::Var& input) override;
  std::vector<ag::Var> parameters() override { return {gamma_, beta_}; }
  std::vector<Tensor*> buffers() override {
    return {&running_mean_, &running_var_};
  }
  Analysis analyze(const Shape& input_shape) const override {
    return {input_shape, 4 * shape_numel(input_shape)};
  }
  std::string name() const override;

  const Tensor& running_mean() const { return running_mean_; }

 private:
  std::int64_t channels_;
  float momentum_;
  float eps_;
  ag::Var gamma_;  ///< [channels]
  ag::Var beta_;   ///< [channels]
  Tensor running_mean_;
  Tensor running_var_;
};

}  // namespace teamnet::nn
