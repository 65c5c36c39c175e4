#include "nn/sequential.hpp"

#include "nn/batchnorm.hpp"
#include "nn/layers.hpp"

namespace teamnet::nn {

ag::Var Sequential::forward(const ag::Var& input) {
  const bool fuse = !ag::grad_enabled();
  const std::size_t n = layers_.size();
  ag::Var h = input;
  for (std::size_t i = 0; i < n; ++i) {
    auto* conv = fuse ? dynamic_cast<Conv2d*>(layers_[i].get()) : nullptr;
    const auto* bn = conv != nullptr && i + 1 < n
                         ? dynamic_cast<const BatchNorm*>(layers_[i + 1].get())
                         : nullptr;
    if (bn == nullptr || bn->training()) {
      h = layers_[i]->forward(h);
      continue;
    }
    const bool relu =
        i + 2 < n && dynamic_cast<const ReLU*>(layers_[i + 2].get()) != nullptr;
    h = conv->forward_fused(h, *bn, relu);
    i += relu ? 2 : 1;
  }
  return h;
}

}  // namespace teamnet::nn
