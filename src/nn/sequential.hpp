// Ordered container of modules; also the unit the MPI baselines partition.
//
// With grad mode off (Module::predict, every serving path), forward() runs
// each Conv2d that is followed by an eval-mode BatchNorm, and the ReLU after
// that if there is one, as one fused call (Conv2d::forward_fused): the conv's
// GEMM applies the BatchNorm and the ReLU to each output before its one
// store, bit-identical to running the layers in turn. With grad on (training
// or forward on a graph) every layer runs on its own.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "nn/module.hpp"

namespace teamnet::nn {

class Sequential : public Module {
 public:
  Sequential() = default;

  /// Constructs a layer in place and appends it.
  template <typename M, typename... Args>
  M& emplace(Args&&... args) {
    auto layer = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  void append(ModulePtr layer) { layers_.push_back(std::move(layer)); }

  ag::Var forward(const ag::Var& input) override;

  std::vector<ag::Var> parameters() override {
    std::vector<ag::Var> params;
    for (auto& layer : layers_) {
      auto sub = layer->parameters();
      params.insert(params.end(), sub.begin(), sub.end());
    }
    return params;
  }

  std::vector<Tensor*> buffers() override {
    std::vector<Tensor*> all;
    for (auto& layer : layers_) {
      auto sub = layer->buffers();
      all.insert(all.end(), sub.begin(), sub.end());
    }
    return all;
  }

  Analysis analyze(const Shape& input_shape) const override {
    Analysis total{input_shape, 0};
    for (const auto& layer : layers_) {
      Analysis a = layer->analyze(total.output_shape);
      total.output_shape = a.output_shape;
      total.flops += a.flops;
    }
    return total;
  }

  void set_training(bool training) override {
    Module::set_training(training);
    for (auto& layer : layers_) layer->set_training(training);
  }

  std::string name() const override { return "Sequential"; }

  std::size_t size() const { return layers_.size(); }
  Module& layer(std::size_t i) { return *layers_.at(i); }
  const Module& layer(std::size_t i) const { return *layers_.at(i); }

 private:
  std::vector<ModulePtr> layers_;
};

}  // namespace teamnet::nn
