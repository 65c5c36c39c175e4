// The MLP family used in the paper's MNIST experiments: MLP-2, MLP-4 and
// MLP-8, where the number counts Linear layers. TeamNet trains 4xMLP-2 or
// 2xMLP-4 experts against an MLP-8 baseline.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "nn/layers.hpp"
#include "nn/sequential.hpp"

namespace teamnet::nn {

struct MlpConfig {
  std::int64_t in_features = 784;   // 28x28 grayscale
  std::int64_t num_classes = 10;
  std::int64_t depth = 8;           // total Linear layers (paper's "MLP-8")
  std::int64_t hidden = 64;
};

/// Plain feed-forward classifier: (Linear -> ReLU) x (depth-1) -> Linear.
/// Exposes its Linear layers so the MPI-Matrix baseline can row-partition
/// the weight matrices across edge nodes.
class MlpNet : public Sequential {
 public:
  /// He-initialized from `rng`, one Linear after another.
  MlpNet(const MlpConfig& config, Rng& rng) : MlpNet(config, &rng) {}
  /// A load target: every parameter zero, for nn::load_module or
  /// deserialize_parameters to fill. Draws nothing.
  explicit MlpNet(const MlpConfig& config) : MlpNet(config, nullptr) {}

  const MlpConfig& config() const { return config_; }
  /// The Linear layers in forward order (non-owning).
  const std::vector<Linear*>& linear_layers() const { return linears_; }

  std::string name() const override;

 private:
  MlpNet(const MlpConfig& config, Rng* rng);

  MlpConfig config_;
  std::vector<Linear*> linears_;
};

}  // namespace teamnet::nn
