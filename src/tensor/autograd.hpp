// Tape-free reverse-mode autograd over `Tensor`.
//
// A `Var` wraps a shared graph `Node` holding a value, a lazily allocated
// gradient, and a backward closure. Building an expression from Vars records
// the graph; `backward(root)` topologically sorts it and accumulates
// gradients into every node with `requires_grad`.
//
// Parameters are leaf Vars created with `requires_grad = true`; their nodes
// persist across forward passes so an optimizer can read `grad()` and write
// `value()` in place. Custom ops (Conv2d, BatchNorm, shake-shake) are built
// with `make_node`, which is the public extension point.
//
// Inference runs under a `NoGradGuard`: every node built on that thread is a
// constant with no parents and no closure, so an intermediate (and the
// input a conv closure would capture to build its im2col matrix in
// backward) is freed as soon as the next op has read it. Values are
// computed by the same kernels either way.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace teamnet::ag {

struct Node;
using NodePtr = std::shared_ptr<Node>;

struct Node {
  Tensor value;
  Tensor grad;  ///< undefined until first accumulation
  bool requires_grad = false;
  std::vector<NodePtr> parents;
  /// Reads this->grad and accumulates into parents' grads. Only invoked when
  /// requires_grad is true.
  std::function<void(Node&)> backward_fn;
  const char* op = "leaf";

  /// grad += g, allocating a zero grad buffer on first use.
  void accumulate_grad(const Tensor& g);
};

class Var {
 public:
  Var() = default;
  /// Leaf node. Parameters pass requires_grad = true.
  explicit Var(Tensor value, bool requires_grad = false);
  explicit Var(NodePtr node) : node_(std::move(node)) {}

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node_->value; }
  Tensor& mutable_value() { return node_->value; }
  bool requires_grad() const { return node_ && node_->requires_grad; }
  bool has_grad() const { return node_ && node_->grad.defined(); }
  /// Gradient tensor; throws when backward has not reached this node.
  const Tensor& grad() const;
  /// Drops the accumulated gradient (optimizer calls this after each step).
  void zero_grad() { node_->grad = Tensor(); }

  const NodePtr& node() const { return node_; }

 private:
  NodePtr node_;
};

/// False while a NoGradGuard is alive on the calling thread.
bool grad_enabled();

/// Scoped, thread-local no-grad mode: while alive, make_node records no
/// parents and no closure. The destructor restores the previous mode, also
/// when the forward pass throws. `nn::Module::predict` is its one user.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// Creates an interior node. `backward_fn` must accumulate into the parents'
/// grads; it is dropped (and never called) when no parent requires grad or
/// grad mode is off.
Var make_node(Tensor value, std::vector<NodePtr> parents,
              std::function<void(Node&)> backward_fn, const char* op);

/// Leaf with requires_grad=false — a constant in the graph.
Var constant(Tensor value);

// ---- arithmetic (broadcasting per ops.hpp rules) ---------------------------
Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var div(const Var& a, const Var& b);
Var add_scalar(const Var& a, float s);
Var mul_scalar(const Var& a, float s);
Var neg(const Var& a);

// ---- unary -----------------------------------------------------------------
Var exp(const Var& a);
Var log(const Var& a);
Var tanh(const Var& a);
Var relu(const Var& a);
Var abs(const Var& a);
Var square(const Var& a);

// ---- linear algebra --------------------------------------------------------
Var matmul(const Var& a, const Var& b);

// ---- reductions ------------------------------------------------------------
/// Sum of all elements -> shape [1].
Var sum_all(const Var& a);
/// Mean of all elements -> shape [1].
Var mean_all(const Var& a);
/// 2-D row/column sums: axis 0 -> [1,n], axis 1 -> [m,1].
Var sum_axis(const Var& a, int axis);

// ---- neural-net primitives -------------------------------------------------
Var softmax_rows(const Var& logits);
Var log_softmax_rows(const Var& logits);
/// Mean negative log-likelihood of `log_probs` [n, C] at `labels` -> [1].
Var nll_loss(const Var& log_probs, const std::vector<int>& labels);
/// 2-D convolution. input [N,Cin,H,W], weight [Cin*k*k, Cout], bias [Cout]
/// (pass an undefined Var to skip bias). Output [N,Cout,Ho,Wo].
Var conv2d(const Var& input, const Var& weight, const Var& bias,
           std::int64_t kernel, std::int64_t stride, std::int64_t pad);
/// Global average pool: [N,C,H,W] -> [N,C].
Var global_avg_pool(const Var& input);
/// Shake-shake branch mix: forward alpha*a + (1-alpha)*b, backward routes
/// gradients with an independent coefficient beta (Gastaldi 2017).
Var shake_combine(const Var& a, const Var& b, float alpha, float beta);

/// Reverse-mode sweep from a scalar root (numel must be 1); seeds d(root)=1.
void backward(const Var& root);

}  // namespace teamnet::ag
