#include "nn/shake_shake.hpp"

#include <sstream>

#include "common/fork_join.hpp"
#include "tensor/vec4.hpp"

namespace teamnet::nn {

Tensor shake_tail(const Tensor& a, const Tensor& b, const Tensor& skip,
                  float alpha, Tensor out) {
  TEAMNET_CHECK_MSG(b.shape() == a.shape() && skip.shape() == a.shape(),
                    "shake block outputs differ: "
                        << shape_to_string(a.shape()) << ", "
                        << shape_to_string(b.shape()) << ", skip "
                        << shape_to_string(skip.shape()));
  if (!out.defined()) out = Tensor(a.shape(), uninitialized);
  TEAMNET_CHECK_MSG(out.shape() == a.shape(),
                    "shake tail cannot write " << shape_to_string(out.shape()));
  const float* pa = a.data();
  const float* pb = b.data();
  const float* ps = skip.data();
  float* po = out.data();
  const float one_minus_alpha = 1.0f - alpha;
  const std::int64_t n = out.numel();
  const f32x4 zero = {};
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const f32x4 v =
        (load4(pa + i) * alpha + load4(pb + i) * one_minus_alpha) +
        load4(ps + i);
    store4(po + i, v > zero ? v : zero);
  }
  for (; i < n; ++i) {
    const float v = (pa[i] * alpha + pb[i] * one_minus_alpha) + ps[i];
    po[i] = v > 0.0f ? v : 0.0f;
  }
  return out;
}

namespace {

std::unique_ptr<Sequential> make_branch(std::int64_t cin, std::int64_t cout,
                                        std::int64_t stride, Rng* rng) {
  auto branch = std::make_unique<Sequential>();
  branch->emplace<Conv2d>(cin, cout, 3, stride, 1, rng);
  branch->emplace<BatchNorm>(cout);
  branch->emplace<ReLU>();
  branch->emplace<Conv2d>(cout, cout, 3, 1, 1, rng);
  branch->emplace<BatchNorm>(cout);
  return branch;
}

}  // namespace

ShakeBlock::ShakeBlock(std::int64_t in_channels, std::int64_t out_channels,
                       std::int64_t stride, Rng* rng)
    : shake_rng_(rng != nullptr ? rng->fork(0xb10c) : Rng(0xb10c)) {
  branch0_ = make_branch(in_channels, out_channels, stride, rng);
  branch1_ = make_branch(in_channels, out_channels, stride, rng);
  if (in_channels != out_channels || stride != 1) {
    skip_ = std::make_unique<Sequential>();
    skip_->emplace<Conv2d>(in_channels, out_channels, 1, stride, 0, rng);
    skip_->emplace<BatchNorm>(out_channels);
  }
}

ag::Var ShakeBlock::forward(const ag::Var& input) {
  ag::Var b0, b1, skip;
  const auto second_half = [&] {
    b1 = branch1_->forward(input);
    skip = skip_ ? skip_->forward(input) : input;
  };
  if (ag::grad_enabled()) {
    b0 = branch0_->forward(input);
    second_half();
  } else {
    // A serving forward builds no graph, so the branches share nothing but
    // the input: branch 1 and the skip may run on an idle core, under
    // their own guard since grad mode is per thread. Each keeps its serial
    // code and the tail mixes them after the join, so the output is
    // bit-identical wherever they ran (DESIGN.md §2.3).
    fork_join([&] { b0 = branch0_->forward(input); },
              [&] {
                ag::NoGradGuard no_grad;
                second_half();
              });
  }
  float alpha = 0.5f, beta = 0.5f;
  if (training_) {
    alpha = shake_rng_.uniform(0.0f, 1.0f);
    beta = shake_rng_.uniform(0.0f, 1.0f);
  }
  // A serving forward needs no graph, so the mix, the residual add and the
  // ReLU write one tensor instead of three, the kept one when it is free.
  if (!ag::grad_enabled()) {
    const Tensor& a = b0.value();
    return ag::constant(shake_tail(a, b1.value(), skip.value(), alpha,
                                   output_.take(a.shape())));
  }
  ag::Var mixed = ag::shake_combine(b0, b1, alpha, beta);
  return ag::relu(ag::add(mixed, skip));
}

std::vector<ag::Var> ShakeBlock::parameters() {
  std::vector<ag::Var> params = branch0_->parameters();
  auto p1 = branch1_->parameters();
  params.insert(params.end(), p1.begin(), p1.end());
  if (skip_) {
    auto ps = skip_->parameters();
    params.insert(params.end(), ps.begin(), ps.end());
  }
  return params;
}

std::vector<Tensor*> ShakeBlock::buffers() {
  std::vector<Tensor*> all = branch0_->buffers();
  auto b1 = branch1_->buffers();
  all.insert(all.end(), b1.begin(), b1.end());
  if (skip_) {
    auto bs = skip_->buffers();
    all.insert(all.end(), bs.begin(), bs.end());
  }
  return all;
}

Analysis ShakeBlock::analyze(const Shape& input_shape) const {
  Analysis b0 = branch0_->analyze(input_shape);
  Analysis b1 = branch1_->analyze(input_shape);
  std::int64_t flops = b0.flops + b1.flops;
  if (skip_) flops += skip_->analyze(input_shape).flops;
  flops += 3 * shape_numel(b0.output_shape);  // mix + add + relu
  return {b0.output_shape, flops};
}

void ShakeBlock::set_training(bool training) {
  Module::set_training(training);
  branch0_->set_training(training);
  branch1_->set_training(training);
  if (skip_) skip_->set_training(training);
}

std::int64_t ShakeShakeNet::blocks_for_depth(std::int64_t depth) {
  // depth = 1 (stem conv) + 2 * blocks (two convs per block path) + 1 (fc)
  TEAMNET_CHECK_MSG(depth >= 4 && (depth - 2) % 2 == 0,
                    "Shake-Shake depth must be even and >= 4, got " << depth);
  return (depth - 2) / 2;
}

ShakeShakeNet::ShakeShakeNet(const ShakeShakeConfig& config, Rng* rng)
    : config_(config) {
  const std::int64_t total_blocks = blocks_for_depth(config.depth);
  // Split blocks across two stages; stage 2 doubles channels and halves the
  // spatial resolution via its first (strided) block.
  const std::int64_t stage1 = (total_blocks + 1) / 2;
  const std::int64_t stage2 = total_blocks - stage1;

  stem_ = std::make_unique<Sequential>();
  stem_->emplace<Conv2d>(config.in_channels, config.base_channels, 3, 1, 1, rng);
  stem_->emplace<BatchNorm>(config.base_channels);
  stem_->emplace<ReLU>();

  std::int64_t channels = config.base_channels;
  for (std::int64_t i = 0; i < stage1; ++i) {
    blocks_.push_back(std::make_unique<ShakeBlock>(channels, channels, 1, rng));
  }
  for (std::int64_t i = 0; i < stage2; ++i) {
    const std::int64_t out = 2 * config.base_channels;
    const std::int64_t stride = (i == 0) ? 2 : 1;
    blocks_.push_back(std::make_unique<ShakeBlock>(channels, out, stride, rng));
    channels = out;
  }

  head_ = std::make_unique<Sequential>();
  head_->emplace<GlobalAvgPool>();
  head_->emplace<Linear>(channels, config.num_classes, rng);
}

ag::Var ShakeShakeNet::forward(const ag::Var& input) {
  ag::Var h = stem_->forward(input);
  for (auto& block : blocks_) h = block->forward(h);
  return head_->forward(h);
}

std::vector<ag::Var> ShakeShakeNet::parameters() {
  std::vector<ag::Var> params = stem_->parameters();
  for (auto& block : blocks_) {
    auto bp = block->parameters();
    params.insert(params.end(), bp.begin(), bp.end());
  }
  auto hp = head_->parameters();
  params.insert(params.end(), hp.begin(), hp.end());
  return params;
}

std::vector<Tensor*> ShakeShakeNet::buffers() {
  std::vector<Tensor*> all = stem_->buffers();
  for (auto& block : blocks_) {
    auto bb = block->buffers();
    all.insert(all.end(), bb.begin(), bb.end());
  }
  auto hb = head_->buffers();
  all.insert(all.end(), hb.begin(), hb.end());
  return all;
}

Analysis ShakeShakeNet::analyze(const Shape& input_shape) const {
  Analysis total = stem_->analyze(input_shape);
  for (const auto& block : blocks_) {
    Analysis a = block->analyze(total.output_shape);
    total.output_shape = a.output_shape;
    total.flops += a.flops;
  }
  Analysis head = head_->analyze(total.output_shape);
  total.output_shape = head.output_shape;
  total.flops += head.flops;
  return total;
}

void ShakeShakeNet::set_training(bool training) {
  Module::set_training(training);
  stem_->set_training(training);
  for (auto& block : blocks_) block->set_training(training);
  head_->set_training(training);
}

std::string ShakeShakeNet::name() const {
  std::ostringstream os;
  os << "SS-" << config_.depth;
  return os.str();
}

}  // namespace teamnet::nn
