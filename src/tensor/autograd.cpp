#include "tensor/autograd.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"

namespace teamnet::ag {

namespace {

thread_local bool t_grad_enabled = true;

}  // namespace

bool grad_enabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled) {
  t_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { t_grad_enabled = previous_; }

void Node::accumulate_grad(const Tensor& g) {
  TEAMNET_CHECK_MSG(g.shape() == value.shape(),
                    "gradient shape " << shape_to_string(g.shape())
                                      << " != value shape "
                                      << shape_to_string(value.shape()));
  if (!grad.defined()) {
    grad = g.clone();
    return;
  }
  float* dst = grad.data();
  const float* src = g.data();
  const std::int64_t n = grad.numel();
  for (std::int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

Var::Var(Tensor value, bool requires_grad) : node_(std::make_shared<Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

const Tensor& Var::grad() const {
  TEAMNET_CHECK_MSG(node_ && node_->grad.defined(),
                    "grad accessed before backward reached node (op="
                        << (node_ ? node_->op : "null") << ")");
  return node_->grad;
}

Var make_node(Tensor value, std::vector<NodePtr> parents,
              std::function<void(Node&)> backward_fn, const char* op) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->op = op;
  node->requires_grad =
      t_grad_enabled &&
      std::any_of(parents.begin(), parents.end(),
                  [](const NodePtr& p) { return p && p->requires_grad; });
  if (node->requires_grad) {
    node->parents = std::move(parents);
    node->backward_fn = std::move(backward_fn);
  }
  return Var(node);
}

Var constant(Tensor value) { return Var(std::move(value), false); }

namespace {

/// Reduces an output-shaped gradient back to the operand's shape (handles the
/// broadcast patterns ops.hpp supports) and accumulates it.
void accumulate_broadcast(Node& parent, const Tensor& grad) {
  if (!parent.requires_grad) return;
  parent.accumulate_grad(ops::reduce_to_shape(grad, parent.value.shape()));
}

}  // namespace

Var add(const Var& a, const Var& b) {
  return make_node(
      ops::add(a.value(), b.value()), {a.node(), b.node()},
      [](Node& n) {
        accumulate_broadcast(*n.parents[0], n.grad);
        accumulate_broadcast(*n.parents[1], n.grad);
      },
      "add");
}

Var sub(const Var& a, const Var& b) {
  return make_node(
      ops::sub(a.value(), b.value()), {a.node(), b.node()},
      [](Node& n) {
        accumulate_broadcast(*n.parents[0], n.grad);
        accumulate_broadcast(*n.parents[1], ops::neg(n.grad));
      },
      "sub");
}

Var mul(const Var& a, const Var& b) {
  return make_node(
      ops::mul(a.value(), b.value()), {a.node(), b.node()},
      [](Node& n) {
        accumulate_broadcast(*n.parents[0],
                             ops::mul(n.grad, n.parents[1]->value));
        accumulate_broadcast(*n.parents[1],
                             ops::mul(n.grad, n.parents[0]->value));
      },
      "mul");
}

Var div(const Var& a, const Var& b) {
  return make_node(
      ops::div(a.value(), b.value()), {a.node(), b.node()},
      [](Node& n) {
        const Tensor& av = n.parents[0]->value;
        const Tensor& bv = n.parents[1]->value;
        accumulate_broadcast(*n.parents[0], ops::div(n.grad, bv));
        // d/db (a/b) = -a / b^2
        Tensor db = ops::neg(ops::div(ops::mul(n.grad, av), ops::square(bv)));
        accumulate_broadcast(*n.parents[1], db);
      },
      "div");
}

Var add_scalar(const Var& a, float s) {
  return make_node(
      ops::add_scalar(a.value(), s), {a.node()},
      [](Node& n) { n.parents[0]->accumulate_grad(n.grad); }, "add_scalar");
}

Var mul_scalar(const Var& a, float s) {
  return make_node(
      ops::mul_scalar(a.value(), s), {a.node()},
      [s](Node& n) { n.parents[0]->accumulate_grad(ops::mul_scalar(n.grad, s)); },
      "mul_scalar");
}

Var neg(const Var& a) { return mul_scalar(a, -1.0f); }

Var exp(const Var& a) {
  return make_node(
      ops::exp(a.value()), {a.node()},
      [](Node& n) { n.parents[0]->accumulate_grad(ops::mul(n.grad, n.value)); },
      "exp");
}

Var log(const Var& a) {
  return make_node(
      ops::log(a.value()), {a.node()},
      [](Node& n) {
        // matches the forward clamp at 1e-12
        Tensor dx(n.grad.shape());
        const Tensor& x = n.parents[0]->value;
        for (std::int64_t i = 0; i < dx.numel(); ++i) {
          dx[i] = n.grad[i] / std::max(x[i], 1e-12f);
        }
        n.parents[0]->accumulate_grad(dx);
      },
      "log");
}

Var tanh(const Var& a) {
  return make_node(
      ops::tanh(a.value()), {a.node()},
      [](Node& n) {
        Tensor dx(n.grad.shape());
        for (std::int64_t i = 0; i < dx.numel(); ++i) {
          dx[i] = n.grad[i] * (1.0f - n.value[i] * n.value[i]);
        }
        n.parents[0]->accumulate_grad(dx);
      },
      "tanh");
}

Var relu(const Var& a) {
  return make_node(
      ops::relu(a.value()), {a.node()},
      [](Node& n) {
        Tensor dx(n.grad.shape());
        const Tensor& x = n.parents[0]->value;
        for (std::int64_t i = 0; i < dx.numel(); ++i) {
          dx[i] = x[i] > 0.0f ? n.grad[i] : 0.0f;
        }
        n.parents[0]->accumulate_grad(dx);
      },
      "relu");
}

Var abs(const Var& a) {
  return make_node(
      ops::abs(a.value()), {a.node()},
      [](Node& n) {
        Tensor dx(n.grad.shape());
        const Tensor& x = n.parents[0]->value;
        for (std::int64_t i = 0; i < dx.numel(); ++i) {
          dx[i] = x[i] > 0.0f ? n.grad[i] : (x[i] < 0.0f ? -n.grad[i] : 0.0f);
        }
        n.parents[0]->accumulate_grad(dx);
      },
      "abs");
}

Var square(const Var& a) {
  return make_node(
      ops::square(a.value()), {a.node()},
      [](Node& n) {
        const Tensor& x = n.parents[0]->value;
        Tensor dx(n.grad.shape());
        for (std::int64_t i = 0; i < dx.numel(); ++i) {
          dx[i] = 2.0f * x[i] * n.grad[i];
        }
        n.parents[0]->accumulate_grad(dx);
      },
      "square");
}

Var matmul(const Var& a, const Var& b) {
  return make_node(
      ops::matmul(a.value(), b.value()), {a.node(), b.node()},
      [](Node& n) {
        Node& pa = *n.parents[0];
        Node& pb = *n.parents[1];
        const std::int64_t m = pa.value.dim(0), k = pa.value.dim(1),
                           c = pb.value.dim(1);
        if (pa.requires_grad) {
          if (!pa.grad.defined()) pa.grad = Tensor(pa.value.shape());
          // dA += G * B^T : [m,c] x [k,c]^T
          gemm_nt_accumulate(n.grad.data(), pb.value.data(), pa.grad.data(), m,
                             c, k);
        }
        if (pb.requires_grad) {
          if (!pb.grad.defined()) pb.grad = Tensor(pb.value.shape());
          // dB += A^T * G : [m,k]^T x [m,c]
          gemm_tn_accumulate(pa.value.data(), n.grad.data(), pb.grad.data(), k,
                             m, c);
        }
      },
      "matmul");
}

Var reshape(const Var& a, Shape shape) {
  Tensor out = a.value().reshape(std::move(shape));
  Shape in_shape = a.value().shape();
  return make_node(
      out.clone(), {a.node()},
      [in_shape](Node& n) {
        n.parents[0]->accumulate_grad(n.grad.reshape(in_shape).clone());
      },
      "reshape");
}

Var sum_all(const Var& a) {
  Tensor out({1});
  out[0] = ops::sum_all(a.value());
  return make_node(
      std::move(out), {a.node()},
      [](Node& n) {
        n.parents[0]->accumulate_grad(
            Tensor::full(n.parents[0]->value.shape(), n.grad[0]));
      },
      "sum_all");
}

Var mean_all(const Var& a) {
  const float inv_n = 1.0f / static_cast<float>(a.value().numel());
  Tensor out({1});
  out[0] = ops::mean_all(a.value());
  return make_node(
      std::move(out), {a.node()},
      [inv_n](Node& n) {
        n.parents[0]->accumulate_grad(
            Tensor::full(n.parents[0]->value.shape(), n.grad[0] * inv_n));
      },
      "mean_all");
}

Var sum_axis(const Var& a, int axis) {
  return make_node(
      ops::sum_axis(a.value(), axis), {a.node()},
      [](Node& n) {
        // Broadcast the reduced gradient back over the summed axis.
        const Shape& in_shape = n.parents[0]->value.shape();
        Tensor dx(in_shape);
        const std::int64_t m = in_shape[0], c = in_shape[1];
        if (n.grad.dim(0) == 1) {  // axis 0
          for (std::int64_t i = 0; i < m; ++i)
            for (std::int64_t j = 0; j < c; ++j) dx[i * c + j] = n.grad[j];
        } else {  // axis 1
          for (std::int64_t i = 0; i < m; ++i)
            for (std::int64_t j = 0; j < c; ++j) dx[i * c + j] = n.grad[i];
        }
        n.parents[0]->accumulate_grad(dx);
      },
      "sum_axis");
}

Var softmax_rows(const Var& logits) {
  return make_node(
      ops::softmax_rows(logits.value()), {logits.node()},
      [](Node& n) {
        // dx = s * (g - sum_j g_j s_j) per row
        const Tensor& s = n.value;
        const std::int64_t m = s.dim(0), c = s.dim(1);
        Tensor dx(s.shape());
        for (std::int64_t i = 0; i < m; ++i) {
          const float* srow = s.data() + i * c;
          const float* grow = n.grad.data() + i * c;
          float dot = 0.0f;
          for (std::int64_t j = 0; j < c; ++j) dot += srow[j] * grow[j];
          float* drow = dx.data() + i * c;
          for (std::int64_t j = 0; j < c; ++j) drow[j] = srow[j] * (grow[j] - dot);
        }
        n.parents[0]->accumulate_grad(dx);
      },
      "softmax_rows");
}

Var log_softmax_rows(const Var& logits) {
  return make_node(
      ops::log_softmax_rows(logits.value()), {logits.node()},
      [](Node& n) {
        // dx = g - softmax(x) * rowsum(g)
        const std::int64_t m = n.value.dim(0), c = n.value.dim(1);
        Tensor dx(n.value.shape());
        for (std::int64_t i = 0; i < m; ++i) {
          const float* lrow = n.value.data() + i * c;
          const float* grow = n.grad.data() + i * c;
          float gsum = 0.0f;
          for (std::int64_t j = 0; j < c; ++j) gsum += grow[j];
          float* drow = dx.data() + i * c;
          for (std::int64_t j = 0; j < c; ++j) {
            drow[j] = grow[j] - std::exp(lrow[j]) * gsum;
          }
        }
        n.parents[0]->accumulate_grad(dx);
      },
      "log_softmax_rows");
}

Var nll_loss(const Var& log_probs, const std::vector<int>& labels) {
  const Tensor& lp = log_probs.value();
  TEAMNET_CHECK(lp.rank() == 2 &&
                lp.dim(0) == static_cast<std::int64_t>(labels.size()));
  const std::int64_t n = lp.dim(0), c = lp.dim(1);
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const int y = labels[static_cast<std::size_t>(i)];
    TEAMNET_CHECK(y >= 0 && y < c);
    acc -= lp[i * c + y];
  }
  Tensor out({1});
  out[0] = static_cast<float>(acc / static_cast<double>(n));
  return make_node(
      std::move(out), {log_probs.node()},
      [labels, n, c](Node& node) {
        Tensor dx({n, c});
        const float scale = node.grad[0] / static_cast<float>(n);
        for (std::int64_t i = 0; i < n; ++i) {
          dx[i * c + labels[static_cast<std::size_t>(i)]] = -scale;
        }
        node.parents[0]->accumulate_grad(dx);
      },
      "nll_loss");
}

Var conv2d(const Var& input, const Var& weight, const Var& bias,
           std::int64_t kernel, std::int64_t stride, std::int64_t pad) {
  const Tensor& x = input.value();
  const Tensor& w = weight.value();
  TEAMNET_CHECK_MSG(x.rank() == 4, "conv2d input must be NCHW");
  const std::int64_t n = x.dim(0), cin = x.dim(1), h = x.dim(2), wdim = x.dim(3);
  TEAMNET_CHECK_MSG(w.rank() == 2 && w.dim(0) == cin * kernel * kernel,
                    "conv2d weight must be [Cin*k*k, Cout], got "
                        << shape_to_string(w.shape()));
  const std::int64_t cout = w.dim(1);
  const std::int64_t ho = conv_out_dim(h, kernel, stride, pad);
  const std::int64_t wo = conv_out_dim(wdim, kernel, stride, pad);

  // cols: [N, Cin*k*k, Ho*Wo]; one GEMM per image writes NCHW directly,
  // each element once: out[img] = W^T · cols[img] + b, the taps summed from
  // zero and the bias added last.
  Tensor cols = im2col(x, kernel, stride, pad);
  const std::int64_t kk = cols.dim(1), hw = ho * wo;
  const float* b = nullptr;
  if (bias.defined()) {
    TEAMNET_CHECK(bias.value().numel() == cout);
    b = bias.value().data();
  }
  Tensor out({n, cout, ho, wo}, uninitialized);
  for (std::int64_t img = 0; img < n; ++img) {
    gemm_tn(w.data(), cols.data() + img * kk * hw, b,
            out.data() + img * cout * hw, cout, kk, hw);
  }

  std::vector<NodePtr> parents =
      bias.defined()
          ? std::vector<NodePtr>{input.node(), weight.node(), bias.node()}
          : std::vector<NodePtr>{input.node(), weight.node()};
  const Shape x_shape = x.shape();
  return make_node(
      std::move(out), std::move(parents),
      [cols, x_shape, kernel, stride, pad, n, cout, kk, hw](Node& node) {
        // Every sum below runs over (img, s) or co in ascending order — the
        // order of the row-per-patch lowering, so gradients are unchanged
        // bit for bit (im2col.hpp).
        const float* g = node.grad.data();
        Node& px = *node.parents[0];
        Node& pw = *node.parents[1];
        if (pw.requires_grad) {
          if (!pw.grad.defined()) pw.grad = Tensor(pw.value.shape());
          // dW += cols[img] · g[img]^T, image by image.
          Tensor g_t({hw, cout});
          for (std::int64_t img = 0; img < n; ++img) {
            const float* g_img = g + img * cout * hw;
            for (std::int64_t co = 0; co < cout; ++co)
              for (std::int64_t s = 0; s < hw; ++s)
                g_t[s * cout + co] = g_img[co * hw + s];
            gemm_accumulate(cols.data() + img * kk * hw, g_t.data(),
                            pw.grad.data(), kk, hw, cout);
          }
        }
        if (node.parents.size() > 2 && node.parents[2]->requires_grad) {
          Node& pb = *node.parents[2];
          Tensor db(pb.value.shape());
          for (std::int64_t img = 0; img < n; ++img)
            for (std::int64_t co = 0; co < cout; ++co) {
              const float* row = g + (img * cout + co) * hw;
              for (std::int64_t s = 0; s < hw; ++s) db[co] += row[s];
            }
          pb.accumulate_grad(db);
        }
        if (px.requires_grad) {
          // dcols[img] = W · g[img], then fold back to the image.
          Tensor dcols(cols.shape());
          for (std::int64_t img = 0; img < n; ++img) {
            gemm_accumulate(pw.value.data(), g + img * cout * hw,
                            dcols.data() + img * kk * hw, kk, cout, hw);
          }
          px.accumulate_grad(col2im(dcols, x_shape, kernel, stride, pad));
        }
      },
      "conv2d");
}

Var global_avg_pool(const Var& input) {
  const Tensor& x = input.value();
  TEAMNET_CHECK(x.rank() == 4);
  const std::int64_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  Tensor out({n, c});
  for (std::int64_t i = 0; i < n * c; ++i) {
    const float* plane = x.data() + i * hw;
    float acc = 0.0f;
    for (std::int64_t p = 0; p < hw; ++p) acc += plane[p];
    out[i] = acc / static_cast<float>(hw);
  }
  return make_node(
      std::move(out), {input.node()},
      [hw](Node& node) {
        const Shape& xs = node.parents[0]->value.shape();
        Tensor dx(xs);
        const std::int64_t nc = xs[0] * xs[1];
        const float inv = 1.0f / static_cast<float>(hw);
        for (std::int64_t i = 0; i < nc; ++i) {
          const float g = node.grad[i] * inv;
          float* plane = dx.data() + i * hw;
          for (std::int64_t p = 0; p < hw; ++p) plane[p] = g;
        }
        node.parents[0]->accumulate_grad(dx);
      },
      "global_avg_pool");
}

Var shake_combine(const Var& a, const Var& b, float alpha, float beta) {
  const Tensor& av = a.value();
  const Tensor& bv = b.value();
  TEAMNET_CHECK_MSG(av.shape() == bv.shape(),
                    "shake_combine branches differ: "
                        << shape_to_string(av.shape()) << " vs "
                        << shape_to_string(bv.shape()));
  // One pass, same two roundings per term as mul_scalar then add.
  Tensor out(av.shape(), uninitialized);
  const float* pa = av.data();
  const float* pb = bv.data();
  float* po = out.data();
  const float one_minus_alpha = 1.0f - alpha;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    po[i] = pa[i] * alpha + pb[i] * one_minus_alpha;
  }
  return make_node(
      std::move(out), {a.node(), b.node()},
      [beta](Node& n) {
        if (n.parents[0]->requires_grad) {
          n.parents[0]->accumulate_grad(ops::mul_scalar(n.grad, beta));
        }
        if (n.parents[1]->requires_grad) {
          n.parents[1]->accumulate_grad(ops::mul_scalar(n.grad, 1.0f - beta));
        }
      },
      "shake_combine");
}

void backward(const Var& root) {
  TEAMNET_CHECK_MSG(root.defined() && root.value().numel() == 1,
                    "backward root must be a defined scalar");
  // Iterative post-order DFS to build a topological order.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack;
  stack.emplace_back(root.node().get(), 0);
  visited.insert(root.node().get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child++].get();
      if (child && child->requires_grad && !visited.count(child)) {
        visited.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  root.node()->accumulate_grad(Tensor::ones(root.value().shape()));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn && node->grad.defined()) {
      node->backward_fn(*node);
    }
  }
}

}  // namespace teamnet::ag
