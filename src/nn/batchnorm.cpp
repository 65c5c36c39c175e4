#include "nn/batchnorm.hpp"

#include <cmath>
#include <sstream>

#include "tensor/vec4.hpp"

namespace teamnet::nn {

namespace {

/// Decomposes an input shape into (batch*spatial layout helpers).
struct BnLayout {
  std::int64_t n;        // batch
  std::int64_t c;        // channels
  std::int64_t s;        // spatial elements per channel (1 for dense)
  std::int64_t count;    // n * s, elements per channel statistic
};

BnLayout layout_of(const Tensor& x, std::int64_t channels) {
  if (x.rank() == 2) {
    TEAMNET_CHECK_MSG(x.dim(1) == channels, "BatchNorm channels mismatch");
    return {x.dim(0), channels, 1, x.dim(0)};
  }
  TEAMNET_CHECK_MSG(x.rank() == 4 && x.dim(1) == channels,
                    "BatchNorm expects [N,F] or [N,C,H,W]");
  const std::int64_t s = x.dim(2) * x.dim(3);
  return {x.dim(0), channels, s, x.dim(0) * s};
}

/// Flat index helpers: channel-major iteration over (n, s) for channel c.
template <typename F>
void for_each_in_channel(const BnLayout& l, std::int64_t c, F f) {
  if (l.s == 1) {
    for (std::int64_t i = 0; i < l.n; ++i) f(i * l.c + c);
  } else {
    for (std::int64_t i = 0; i < l.n; ++i) {
      const std::int64_t base = (i * l.c + c) * l.s;
      for (std::int64_t p = 0; p < l.s; ++p) f(base + p);
    }
  }
}

/// o[i] = g * ((x[i] - m) * is) + b over `len` floats: one f32x4 pass and a
/// scalar tail, each step rounded as in the per-element formula.
void normalize_span(const float* x, float* o, std::int64_t len, float m,
                    float is, float g, float b) {
  std::int64_t i = 0;
  for (; i + 4 <= len; i += 4) store4(o + i, g * ((load4(x + i) - m) * is) + b);
  for (; i < len; ++i) o[i] = g * ((x[i] - m) * is) + b;
}

}  // namespace

BatchNorm::BatchNorm(std::int64_t channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  TEAMNET_CHECK(channels > 0);
  gamma_ = ag::Var(Tensor::ones({channels}), true);
  beta_ = ag::Var(Tensor::zeros({channels}), true);
  running_mean_ = Tensor::zeros({channels});
  running_var_ = Tensor::ones({channels});
}

ag::Var BatchNorm::forward(const ag::Var& input) {
  const Tensor& x = input.value();
  const BnLayout l = layout_of(x, channels_);

  // Per-channel statistics: batch stats in training, running stats in eval.
  Tensor batch_mean;
  Tensor batch_var;
  const float* mean = running_mean_.data();
  const float* var = running_var_.data();
  if (training_) {
    batch_mean = Tensor({channels_});
    batch_var = Tensor({channels_});
    for (std::int64_t c = 0; c < channels_; ++c) {
      double acc = 0.0;
      for_each_in_channel(l, c, [&](std::int64_t i) { acc += x[i]; });
      batch_mean[c] = static_cast<float>(acc / static_cast<double>(l.count));
      double vacc = 0.0;
      for_each_in_channel(l, c, [&](std::int64_t i) {
        const double d = x[i] - batch_mean[c];
        vacc += d * d;
      });
      batch_var[c] = static_cast<float>(vacc / static_cast<double>(l.count));
      running_mean_[c] =
          (1.0f - momentum_) * running_mean_[c] + momentum_ * batch_mean[c];
      running_var_[c] =
          (1.0f - momentum_) * running_var_[c] + momentum_ * batch_var[c];
    }
    mean = batch_mean.data();
    var = batch_var.data();
  }

  Tensor inv_std({channels_});
  for (std::int64_t c = 0; c < channels_; ++c) {
    inv_std[c] = 1.0f / std::sqrt(var[c] + eps_);
  }
  Tensor out(x.shape(), uninitialized);
  const float* g = gamma_.value().data();
  const float* b = beta_.value().data();
  const float* xp = x.data();
  float* op = out.data();
  // Normalized activations are cached only for a backward pass; with grad
  // mode off (Module::predict) the output is all that gets written, one
  // vector pass per channel plane (a plane of [N,F] is one element).
  if (!ag::grad_enabled()) {
    for (std::int64_t plane = 0; plane < l.n * channels_; ++plane) {
      const std::int64_t c = plane % channels_;
      normalize_span(xp + plane * l.s, op + plane * l.s, l.s, mean[c],
                     inv_std[c], g[c], b[c]);
    }
    return ag::constant(std::move(out));
  }

  Tensor xhat(x.shape(), uninitialized);
  float* hp = xhat.data();
  for (std::int64_t c = 0; c < channels_; ++c) {
    const float m = mean[c], is = inv_std[c], gc = g[c], bc = b[c];
    for_each_in_channel(l, c, [&](std::int64_t i) {
      const float xh = (xp[i] - m) * is;
      hp[i] = xh;
      op[i] = gc * xh + bc;
    });
  }

  const bool use_batch_stats = training_;
  const std::int64_t channels = channels_;
  return ag::make_node(
      std::move(out), {input.node(), gamma_.node(), beta_.node()},
      [xhat, inv_std, l, channels, use_batch_stats](ag::Node& node) {
        ag::Node& px = *node.parents[0];
        ag::Node& pg = *node.parents[1];
        ag::Node& pb = *node.parents[2];
        const Tensor& gout = node.grad;

        Tensor dgamma({channels});
        Tensor dbeta({channels});
        for (std::int64_t c = 0; c < channels; ++c) {
          double dg = 0.0, db = 0.0;
          for_each_in_channel(l, c, [&](std::int64_t i) {
            dg += gout[i] * xhat[i];
            db += gout[i];
          });
          dgamma[c] = static_cast<float>(dg);
          dbeta[c] = static_cast<float>(db);
        }
        if (pg.requires_grad) pg.accumulate_grad(dgamma);
        if (pb.requires_grad) pb.accumulate_grad(dbeta);

        if (px.requires_grad) {
          Tensor dx(px.value.shape());
          const float* gamma = pg.value.data();
          const float inv_count = 1.0f / static_cast<float>(l.count);
          for (std::int64_t c = 0; c < channels; ++c) {
            const float gc = gamma[c] * inv_std[c];
            if (use_batch_stats) {
              const float mean_g = dbeta[c] * inv_count;
              const float mean_gx = dgamma[c] * inv_count;
              for_each_in_channel(l, c, [&](std::int64_t i) {
                dx[i] = gc * (gout[i] - mean_g - xhat[i] * mean_gx);
              });
            } else {
              // Eval mode: statistics are constants.
              for_each_in_channel(l, c,
                                  [&](std::int64_t i) { dx[i] = gc * gout[i]; });
            }
          }
          px.accumulate_grad(dx);
        }
      },
      "batchnorm");
}

std::string BatchNorm::name() const {
  std::ostringstream os;
  os << "BatchNorm(" << channels_ << ")";
  return os.str();
}

}  // namespace teamnet::nn
