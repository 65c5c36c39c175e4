// Basic layers: Linear, Conv2d, activations, pooling.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "nn/module.hpp"

namespace teamnet::nn {

class BatchNorm;

/// Fully connected layer: y = x W + b, x is [N, in].
class Linear : public Module {
 public:
  /// He-initialized weight drawn from `rng`, zero bias. A null `rng` leaves
  /// the weight at zero too, for a load target (nn::load_module overwrites
  /// every parameter).
  Linear(std::int64_t in_features, std::int64_t out_features, Rng* rng);

  ag::Var forward(const ag::Var& input) override;
  std::vector<ag::Var> parameters() override { return {weight_, bias_}; }
  Analysis analyze(const Shape& input_shape) const override;
  std::string name() const override;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  ag::Var& weight() { return weight_; }
  ag::Var& bias() { return bias_; }

 private:
  std::int64_t in_;
  std::int64_t out_;
  ag::Var weight_;  ///< [in, out]
  ag::Var bias_;    ///< [1, out]
};

/// 2-D convolution over NCHW inputs; weight stored as [Cin*k*k, Cout] so the
/// forward pass is one W^T · taps GEMM per image, reading the taps from a
/// padded copy of the input (conv2d_forward, tensor/im2col.hpp).
class Conv2d : public Module {
 public:
  /// He-initialized from `rng`; a null `rng` leaves the weight at zero, as
  /// Linear's does.
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad, Rng* rng);

  ag::Var forward(const ag::Var& input) override;
  std::vector<ag::Var> parameters() override { return {weight_, bias_}; }
  Analysis analyze(const Shape& input_shape) const override;
  std::string name() const override;

  /// Serving forward of this conv, the eval-mode `bn` after it and, when
  /// `relu`, a ReLU after that, as one GEMM whose epilogue applies the
  /// BatchNorm and the ReLU (GemmEpilogue): bit-identical to the three
  /// forwards in turn, but only the final activations are written, into
  /// this layer's kept output when it is free (KeptOutput). Needs grad mode
  /// off; nn::Sequential calls it.
  ag::Var forward_fused(const ag::Var& input, const BatchNorm& bn, bool relu);

  /// Elements of the output forward_fused keeps (0 when none).
  std::int64_t kept_numel() const { return output_.kept_numel(); }

  std::int64_t in_channels() const { return cin_; }
  std::int64_t out_channels() const { return cout_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }
  ag::Var& weight() { return weight_; }
  ag::Var& bias() { return bias_; }

 private:
  std::int64_t cin_, cout_, kernel_, stride_, pad_;
  ag::Var weight_;  ///< [Cin*k*k, Cout]
  ag::Var bias_;    ///< [Cout]
  KeptOutput output_;  ///< forward_fused's batch-1 output buffer
};

class ReLU : public Module {
 public:
  ag::Var forward(const ag::Var& input) override { return ag::relu(input); }
  Analysis analyze(const Shape& input_shape) const override {
    return {input_shape, shape_numel(input_shape)};
  }
  std::string name() const override { return "ReLU"; }
};

class Tanh : public Module {
 public:
  ag::Var forward(const ag::Var& input) override { return ag::tanh(input); }
  Analysis analyze(const Shape& input_shape) const override {
    return {input_shape, shape_numel(input_shape)};
  }
  std::string name() const override { return "Tanh"; }
};

/// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool : public Module {
 public:
  ag::Var forward(const ag::Var& input) override {
    return ag::global_avg_pool(input);
  }
  Analysis analyze(const Shape& input_shape) const override {
    TEAMNET_CHECK(input_shape.size() == 3);
    return {{input_shape[0]}, shape_numel(input_shape)};
  }
  std::string name() const override { return "GlobalAvgPool"; }
};

}  // namespace teamnet::nn
