// Module abstraction for neural networks.
//
// A Module owns its parameters as autograd leaf Vars; `forward` builds a
// fresh autograd graph per call. `analyze` statically reports per-sample
// output shape and FLOPs, which the edge-device simulator (src/sim) uses to
// model inference latency on Jetson/RPi-class hardware.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/autograd.hpp"

namespace teamnet::nn {

/// Static per-sample cost analysis of a module.
struct Analysis {
  Shape output_shape;   ///< per-sample shape (no batch dimension)
  std::int64_t flops = 0;  ///< multiply-accumulates counted as 2 FLOPs
};

class Module {
 public:
  virtual ~Module() = default;

  /// Builds the forward graph for a batched input and returns the output Var.
  virtual ag::Var forward(const ag::Var& input) = 0;

  /// Trainable parameters in a deterministic order (used by optimizers and
  /// serialization). Default: none.
  virtual std::vector<ag::Var> parameters() { return {}; }

  /// Non-trainable state tensors that must survive serialization (e.g.
  /// batch-norm running statistics), in a deterministic order.
  virtual std::vector<Tensor*> buffers() { return {}; }

  /// Per-sample cost analysis given the per-sample input shape.
  virtual Analysis analyze(const Shape& input_shape) const = 0;

  /// Toggles training-time behaviour (batch-norm statistics, shake-shake
  /// stochastic mixing). Default stores the flag; containers recurse.
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Short human-readable name ("Linear(784->64)").
  virtual std::string name() const = 0;

  /// Forward pass on a plain tensor with no autograd graph: runs under an
  /// ag::NoGradGuard, so no node keeps parents, closures or the inputs a
  /// conv closure would capture.
  /// The result is bit-identical to forward(ag::constant(input)).value(),
  /// and training-mode side effects (batch-norm running stats, shake-shake
  /// draws) still happen.
  Tensor predict(const Tensor& input) {
    ag::NoGradGuard no_grad;
    return forward(ag::constant(input)).value();
  }

  /// Total number of scalar parameters.
  std::int64_t num_parameters() {
    std::int64_t n = 0;
    for (const auto& p : parameters()) n += p.value().numel();
    return n;
  }

  /// Parameter footprint in bytes (float32 storage).
  std::int64_t parameter_bytes() {
    return num_parameters() * static_cast<std::int64_t>(sizeof(float));
  }

 protected:
  bool training_ = true;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace teamnet::nn
