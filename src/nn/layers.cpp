#include "nn/layers.hpp"

#include <cmath>
#include <sstream>

#include "nn/batchnorm.hpp"
#include "tensor/im2col.hpp"

namespace teamnet::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng* rng)
    : in_(in_features), out_(out_features) {
  TEAMNET_CHECK(in_features > 0 && out_features > 0);
  // He initialization: suits the ReLU activations used throughout.
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_features));
  weight_ = ag::Var(rng != nullptr
                        ? Tensor::randn({in_, out_}, *rng, 0.0f, stddev)
                        : Tensor::zeros({in_, out_}),
                    true);
  bias_ = ag::Var(Tensor::zeros({1, out_}), true);
}

ag::Var Linear::forward(const ag::Var& input) {
  return ag::add(ag::matmul(input, weight_), bias_);
}

Analysis Linear::analyze(const Shape& input_shape) const {
  TEAMNET_CHECK_MSG(input_shape.size() == 1 && input_shape[0] == in_,
                    "Linear expects per-sample shape [" << in_ << "], got "
                                                        << shape_to_string(input_shape));
  return {{out_}, 2 * in_ * out_};
}

std::string Linear::name() const {
  std::ostringstream os;
  os << "Linear(" << in_ << "->" << out_ << ")";
  return os.str();
}

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               Rng* rng)
    : cin_(in_channels),
      cout_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad) {
  TEAMNET_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0 &&
                pad >= 0);
  const std::int64_t fan_in = cin_ * kernel_ * kernel_;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  weight_ = ag::Var(rng != nullptr
                        ? Tensor::randn({fan_in, cout_}, *rng, 0.0f, stddev)
                        : Tensor::zeros({fan_in, cout_}),
                    true);
  bias_ = ag::Var(Tensor::zeros({cout_}), true);
}

ag::Var Conv2d::forward(const ag::Var& input) {
  return ag::conv2d(input, weight_, bias_, kernel_, stride_, pad_);
}

ag::Var Conv2d::forward_fused(const ag::Var& input, const BatchNorm& bn,
                              bool relu) {
  TEAMNET_CHECK(!ag::grad_enabled() && !bn.training());
  const Tensor& x = input.value();
  TEAMNET_CHECK_MSG(x.rank() == 4 && x.dim(1) == cin_,
                    "Conv2d expects [N," << cin_ << ",H,W], got "
                                         << shape_to_string(x.shape()));
  TEAMNET_CHECK_MSG(bn.channels() == cout_, "BatchNorm channels mismatch");
  const BatchNorm::EvalAffine affine =
      bn.eval_affine(conv2d_channel_scratch(cout_));
  const GemmEpilogue epilogue{.bias = bias_.value().data(),
                              .mean = affine.mean,
                              .inv_std = affine.inv_std,
                              .gamma = affine.gamma,
                              .beta = affine.beta,
                              .relu = relu};
  const std::int64_t ho = conv_out_dim(x.dim(2), kernel_, stride_, pad_);
  const std::int64_t wo = conv_out_dim(x.dim(3), kernel_, stride_, pad_);
  return ag::constant(conv2d_forward(x, weight_.value().data(), cout_,
                                     epilogue, kernel_, stride_, pad_,
                                     output_.take({x.dim(0), cout_, ho, wo})));
}

Analysis Conv2d::analyze(const Shape& input_shape) const {
  TEAMNET_CHECK_MSG(input_shape.size() == 3 && input_shape[0] == cin_,
                    "Conv2d expects per-sample [C,H,W] with C=" << cin_
                        << ", got " << shape_to_string(input_shape));
  const std::int64_t ho = conv_out_dim(input_shape[1], kernel_, stride_, pad_);
  const std::int64_t wo = conv_out_dim(input_shape[2], kernel_, stride_, pad_);
  const std::int64_t flops = 2 * cin_ * kernel_ * kernel_ * cout_ * ho * wo;
  return {{cout_, ho, wo}, flops};
}

std::string Conv2d::name() const {
  std::ostringstream os;
  os << "Conv2d(" << cin_ << "->" << cout_ << ", k=" << kernel_
     << ", s=" << stride_ << ", p=" << pad_ << ")";
  return os.str();
}

}  // namespace teamnet::nn
