#include "core/gate_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/entropy.hpp"
#include "core/soft_ops.hpp"
#include "nn/layers.hpp"
#include "tensor/ops.hpp"

namespace teamnet::core {

GateTrainer::GateTrainer(int num_experts, const GateTrainerConfig& config,
                         Rng rng)
    : k_(num_experts), config_(config), rng_(rng) {
  TEAMNET_CHECK_MSG(num_experts >= 2, "gate needs at least 2 experts");
  TEAMNET_CHECK(config.gain_a > 0.0f && config.gain_a < 1.0f);
  TEAMNET_CHECK(config.latent_dim > 0 && config.hidden_dim > 0);
  TEAMNET_CHECK_MSG(config.capacity_weights.empty() ||
                        config.capacity_weights.size() ==
                            static_cast<std::size_t>(num_experts),
                    "capacity_weights must have one entry per expert");
  w_.emplace<nn::Linear>(config.latent_dim, config.hidden_dim, &rng_);
  w_.emplace<nn::Tanh>();
  w_.emplace<nn::Linear>(config.hidden_dim, num_experts, &rng_);
  nn::SgdConfig opt;
  opt.lr = config.lr;
  opt.momentum = 0.0f;
  opt.max_grad_norm = 5.0f;
  theta_opt_ = std::make_unique<nn::Sgd>(w_.parameters(), opt);
  rho_ = ag::Var(Tensor::full({1}, std::log(config.initial_b)), true);
}

float GateTrainer::temperature() const { return std::exp(rho_.value()[0]); }

GateDecision GateTrainer::decide(const Tensor& raw_entropy) {
  TEAMNET_CHECK(raw_entropy.rank() == 2 && raw_entropy.dim(1) == k_);
  // Floor the entropies the gate reasons about: once experts specialize,
  // their entropy on "won" samples collapses toward 0 and the ratio between
  // experts explodes past what any bounded multiplicative handicap delta
  // can flip — the controller would stall. The floor preserves the argmin
  // order except between two ultra-confident experts, which are precisely
  // the samples that are safe to reassign for balance.
  Tensor entropy = raw_entropy.clone();
  for (auto& h : entropy.values()) h = std::max(h, config_.entropy_floor);
  const float delta_spread = relative_mean_abs_deviation(entropy);

  // Bias measure and controller target (Eqs. 2 and 4).
  GateDecision decision;
  decision.gamma = assignment_proportions(argmin_gate(entropy), k_);
  const std::vector<float> target =
      config_.capacity_weights.empty()
          ? controller_target(decision.gamma, config_.gain_a)
          : weighted_controller_target(decision.gamma,
                                       config_.capacity_weights,
                                       config_.gain_a);

  // Latent seed for this batch (Algorithm 2 line 3).
  Tensor z = Tensor::uniform({1, config_.latent_dim}, rng_, -1.0f, 1.0f);
  const ag::Var h_const = ag::constant(entropy);

  // Best-iterate tracking: the inner loop's gradient path can oscillate on
  // a hard batch, so the returned delta is the best (lowest hard-J) iterate
  // seen, seeded with the identity gate and the previous batch's solution.
  auto hard_j = [&](const std::vector<float>& d) {
    return gate_objective(
        assignment_proportions(gate_assign(entropy, d), k_), target);
  };
  std::vector<float> best_delta(static_cast<std::size_t>(k_), 1.0f);
  float best_j = hard_j(best_delta);
  if (!last_delta_.empty()) {
    const float j_last = hard_j(last_delta_);
    if (j_last < best_j) {
      best_j = j_last;
      best_delta = last_delta_;
    }
  }

  std::vector<float> delta(static_cast<std::size_t>(k_), 1.0f);
  int since_improvement = 0;
  for (int iter = 0; iter < config_.max_iterations && best_j > config_.j_threshold;
       ++iter) {
    decision.iterations = iter + 1;

    // Stagnation restart: the landscape has flat plateaus (saturated soft
    // indicators); a fresh latent seed gives the MLP a new starting Phi.
    if (since_improvement >= config_.restart_patience) {
      z = Tensor::uniform({1, config_.latent_dim}, rng_, -1.0f, 1.0f);
      since_improvement = 0;
    }

    // ---- forward: delta = 1 + Delta * W(z; Theta) --------------------------
    ag::Var phi = w_.forward(ag::constant(z.clone()));  // [1, K]
    ag::Var delta_var =
        ag::add_scalar(ag::mul_scalar(phi, delta_spread), 1.0f);
    for (int i = 0; i < k_; ++i) {
      // A non-positive delta_i would invert expert i's preference order; the
      // hard gate only ever sees a sane positive band (the soft gradient
      // path below stays unclamped).
      delta[static_cast<std::size_t>(i)] =
          std::clamp(delta_var.value()[i], 1e-2f, 1e3f);
    }
    const float j_hard = hard_j(delta);
    if (j_hard < best_j - 1e-6f) {
      best_j = j_hard;
      best_delta = delta;
      since_improvement = 0;
    } else {
      ++since_improvement;
    }
    if (best_j <= config_.j_threshold) break;

    // ---- soft objective J and Theta step -----------------------------------
    // b is detached here; the meta-estimator owns its update below.
    const ag::Var b_const = ag::constant(Tensor::full({1}, temperature()));
    ag::Var scores = ag::mul(delta_var, h_const);  // [1,K] x [n,K] broadcast
    ag::Var j;
    if (config_.relaxation == GateRelaxation::IndexExpectation) {
      ag::Var gbar = soft_argmin_rows(scores, b_const);
      for (int i = 0; i < k_; ++i) {
        ag::Var gamma_bar_i =
            ag::mean_all(soft_indicator(gbar, i, config_.indicator_c));
        ag::Var term = ag::abs(ag::add_scalar(
            gamma_bar_i, -target[static_cast<std::size_t>(i)]));
        j = j.defined() ? ag::add(j, term) : term;
      }
      j = ag::mul_scalar(j, 1.0f / static_cast<float>(k_));
    } else {
      // gamma_bar = column means of softmax(-b * scores); J in one shot.
      ag::Var weights =
          ag::softmax_rows(ag::neg(ag::mul(scores, b_const)));  // [n, K]
      ag::Var gamma_bar = ag::mul_scalar(
          ag::sum_axis(weights, 0),
          1.0f / static_cast<float>(entropy.dim(0)));  // [1, K]
      Tensor target_row({1, static_cast<std::int64_t>(k_)},
                        std::vector<float>(target.begin(), target.end()));
      j = ag::mean_all(
          ag::abs(ag::sub(gamma_bar, ag::constant(std::move(target_row)))));
    }
    ag::backward(j);
    theta_opt_->step();

    // ---- meta-estimator step (Eq. 6): train b with delta detached ----------
    // One-sided reading of Eq. (6): penalize only rounding distances ABOVE
    // epsilon. Sharpening b when the soft argmin is already near-integer
    // would re-soften it and collapse the relaxation for K >= 3 (the index
    // expectation of a soft row credits the wrong middle expert).
    Tensor scores_const =
        ops::mul(Tensor({1, static_cast<std::int64_t>(k_)},
                        std::vector<float>(delta.begin(), delta.end())),
                 entropy);
    ag::Var b_var = ag::exp(rho_);
    ag::Var gbar_meta =
        soft_argmin_rows(ag::constant(std::move(scores_const)), b_var);
    ag::Var meta_loss = ag::relu(ag::add_scalar(
        mean_rounding_distance(gbar_meta), -config_.meta_target));
    ag::backward(meta_loss);
    if (rho_.has_grad()) {
      rho_.mutable_value()[0] -= config_.meta_lr * rho_.grad()[0];
      // Keep b in a numerically sane band.
      rho_.mutable_value()[0] =
          std::clamp(rho_.mutable_value()[0], std::log(1.0f), std::log(100.0f));
      rho_.zero_grad();
    }
  }

  // Rescue projection: gradient search can stall when an expert is starved
  // (it has never trained, so its entropy is uniformly high and its softmax
  // column carries an exponentially small gradient). For each expert whose
  // achieved share is far below target, directly solve for the delta_i that
  // wins it its target share: expert i takes row x iff
  // delta_i * H_xi < min_j delta_j * H_xj, so the m-th largest ratio
  // (min_j delta_j H_xj) / H_xi is the threshold that wins exactly m rows.
  // The candidate is kept only if it improves the hard objective — the
  // best-iterate contract is preserved.
  if (best_j > config_.j_threshold) {
    const std::int64_t n = entropy.dim(0);
    std::vector<float> candidate = best_delta;
    for (int i = 0; i < k_; ++i) {
      const auto shares = assignment_proportions(
          gate_assign(entropy, candidate), k_);
      const float want = target[static_cast<std::size_t>(i)];
      if (shares[static_cast<std::size_t>(i)] >= 0.5f * want) continue;
      const auto m = static_cast<std::int64_t>(
          std::round(want * static_cast<float>(n)));
      if (m < 1) continue;
      std::vector<float> ratios(static_cast<std::size_t>(n));
      for (std::int64_t r = 0; r < n; ++r) {
        float best_score = std::numeric_limits<float>::max();
        for (int j = 0; j < k_; ++j) {
          if (j == i) continue;
          best_score = std::min(best_score,
                                candidate[static_cast<std::size_t>(j)] *
                                    entropy[r * k_ + j]);
        }
        ratios[static_cast<std::size_t>(r)] =
            best_score / entropy[r * k_ + i];
      }
      std::nth_element(ratios.begin(), ratios.begin() + (m - 1), ratios.end(),
                       std::greater<float>());
      candidate[static_cast<std::size_t>(i)] = std::clamp(
          ratios[static_cast<std::size_t>(m - 1)] * 0.999f, 1e-4f, 1e3f);
    }
    const float j_candidate = hard_j(candidate);
    if (j_candidate < best_j) {
      best_j = j_candidate;
      best_delta = candidate;
    }
  }

  // Final hard assignment under the best delta found.
  decision.assignment = gate_assign(entropy, best_delta);
  decision.gamma_bar = assignment_proportions(decision.assignment, k_);
  decision.objective = best_j;
  decision.delta = best_delta;
  decision.temperature_b = temperature();
  last_delta_ = best_delta;
  return decision;
}

}  // namespace teamnet::core
