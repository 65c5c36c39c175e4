// Shake-Shake regularized CNN family (Gastaldi 2017), downsized for this
// reproduction (see DESIGN.md §1.1). The paper trains SS-26 as the CIFAR
// baseline and 2xSS-14 / 4xSS-8 as TeamNet experts; the depth counts conv
// layers along one path plus the final classifier:
//   depth = 1 (stem) + 2 * total_blocks + 1 (fc)
// so SS-8 -> 3 blocks, SS-14 -> 6 blocks, SS-26 -> 12 blocks.
//
// Each residual block has two parallel conv branches mixed with a random
// convex coefficient alpha on the forward pass and an independent beta on
// the backward pass ("shake-shake"). The two-branch topology is what the
// MPI-Branch baseline splits across two edge nodes.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "nn/batchnorm.hpp"
#include "nn/layers.hpp"
#include "nn/sequential.hpp"

namespace teamnet::nn {

struct ShakeShakeConfig {
  std::int64_t depth = 26;         // SS-8 / SS-14 / SS-26
  std::int64_t in_channels = 3;
  std::int64_t image_size = 16;    // input is [C, image, image]
  std::int64_t num_classes = 10;
  std::int64_t base_channels = 8;  // stage-2 doubles this
};

/// relu((a * alpha + b * (1 - alpha)) + skip) in one pass over one output:
/// element by element the roundings of ag::shake_combine, then ops::add,
/// then ops::relu (NaN and -0 become +0), so the result is bit-identical to
/// the three ops in turn. The serving tail of every ShakeBlock, local or
/// partitioned across MPI ranks. Writes every element of `out` when it is
/// given (shaped like `a`), else of a new tensor, and returns it.
Tensor shake_tail(const Tensor& a, const Tensor& b, const Tensor& skip,
                  float alpha, Tensor out = Tensor());

/// One two-branch residual block. Exposed so MPI-Branch can execute the
/// branches on different ranks. With grad mode off, forward() computes the
/// tail with shake_tail in one pass, into a kept output when it is free
/// (KeptOutput, DESIGN.md §2.3).
class ShakeBlock : public Module {
 public:
  /// Convs drawn from `rng`, shake mixing seeded from rng->fork(). A null
  /// `rng` builds a load target: convs at zero (Conv2d) and a fixed
  /// shake-mixing seed, which only a training forward draws from.
  ShakeBlock(std::int64_t in_channels, std::int64_t out_channels,
             std::int64_t stride, Rng* rng);

  ag::Var forward(const ag::Var& input) override;
  std::vector<ag::Var> parameters() override;
  std::vector<Tensor*> buffers() override;
  Analysis analyze(const Shape& input_shape) const override;
  void set_training(bool training) override;
  std::string name() const override { return "ShakeBlock"; }

  /// Direct access to the branch / skip Sequentials — the MPI baselines
  /// partition these across ranks.
  Sequential& branch_seq(int b) {
    TEAMNET_CHECK(b == 0 || b == 1);
    return b == 0 ? *branch0_ : *branch1_;
  }
  /// nullptr when the skip connection is the identity.
  Sequential* skip_seq() { return skip_.get(); }

  /// Elements of the output the serving tail keeps (0 when none).
  std::int64_t kept_numel() const { return output_.kept_numel(); }

 private:
  std::unique_ptr<Sequential> branch0_;
  std::unique_ptr<Sequential> branch1_;
  std::unique_ptr<Sequential> skip_;  // nullptr => identity
  Rng shake_rng_;
  KeptOutput output_;  ///< the serving tail's batch-1 output buffer
};

class ShakeShakeNet : public Module {
 public:
  /// He-initialized from `rng`.
  ShakeShakeNet(const ShakeShakeConfig& config, Rng& rng)
      : ShakeShakeNet(config, &rng) {}
  /// A load target (see MlpNet's): draws nothing.
  explicit ShakeShakeNet(const ShakeShakeConfig& config)
      : ShakeShakeNet(config, nullptr) {}

  ag::Var forward(const ag::Var& input) override;
  std::vector<ag::Var> parameters() override;
  std::vector<Tensor*> buffers() override;
  Analysis analyze(const Shape& input_shape) const override;
  void set_training(bool training) override;
  std::string name() const override;

  const ShakeShakeConfig& config() const { return config_; }
  std::size_t num_blocks() const { return blocks_.size(); }
  ShakeBlock& block(std::size_t i) { return *blocks_.at(i); }
  Sequential& stem() { return *stem_; }
  Sequential& head() { return *head_; }

  /// Blocks per (depth) per DESIGN: depth = 2 + 2 * total_blocks.
  static std::int64_t blocks_for_depth(std::int64_t depth);

 private:
  ShakeShakeNet(const ShakeShakeConfig& config, Rng* rng);

  ShakeShakeConfig config_;
  std::unique_ptr<Sequential> stem_;
  std::vector<std::unique_ptr<ShakeBlock>> blocks_;
  std::unique_ptr<Sequential> head_;  // GAP + Linear
};

}  // namespace teamnet::nn
