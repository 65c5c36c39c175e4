// Batch normalization (Ioffe & Szegedy 2015) for both dense ([N, F]) and
// convolutional ([N, C, H, W]) activations. Training mode normalizes by the
// batch statistics and maintains exponential running averages that eval mode
// uses instead.
//
// Eval mode is one per-channel affine map, y = gamma * ((x - mean) *
// inv_std) + beta. A serving forward (grad mode off) of a Conv2d followed by
// an eval BatchNorm does not call forward() at all: nn::Sequential hands
// eval_affine() to the conv's GEMM epilogue (gemm.hpp, GemmEpilogue), which
// applies the same rounded operations in the same order to each finished
// conv output, so the fused activations equal this module's bit for bit.
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

  /// Eval-mode constants per channel: y = gamma * ((x - mean) * inv_std) +
  /// beta. inv_std is written into the caller's `channels` floats at
  /// `inv_std_out`, exactly as forward() computes it; the other pointers
  /// alias this module's running mean, gamma and beta.
  struct EvalAffine {
    const float* inv_std;
    const float* mean;
    const float* gamma;
    const float* beta;
  };
  EvalAffine eval_affine(float* inv_std_out) const;

  std::int64_t channels() const { return channels_; }

 private:
  /// out[c] = 1 / sqrt(var[c] + eps) per channel.
  void inv_std_of(const float* var, float* out) const;

  std::int64_t channels_;
  float momentum_;
  float eps_;
  ag::Var gamma_;  ///< [channels]
  ag::Var beta_;   ///< [channels]
  Tensor running_mean_;
  Tensor running_var_;
};

}  // namespace teamnet::nn
