// Algorithm 2 ("Finding Gate G-bar") plus the meta-estimator of Eq. (6).
//
// Each call to `decide` receives the batch's entropy matrix H and returns
// the data-to-expert assignment. Internally it optimizes the control
// variables delta = 1 + Delta * W(z; Theta) by gradient descent on the
// relaxed objective
//   J = (1/K) sum_i | gamma_bar_i(delta) - (1/K - a (gamma_i - 1/K)) |
// where gamma_bar is computed through the soft argmin (Eq. 5) and the soft
// indicator (Eq. 7). The softness temperature b is itself trained by the
// meta-estimator: b = exp(rho), with rho descending Eq. (6)'s objective so
// the soft argmin stays near-integer without saturating gradients.
//
// Theta and rho persist across batches; the latent z is redrawn per batch
// (Algorithm 2 line 3).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "core/gate.hpp"
#include "nn/mlp.hpp"
#include "nn/optim.hpp"

namespace teamnet::core {

/// How gamma_bar is relaxed for gradient descent (Algorithm 2 line 9).
enum class GateRelaxation {
  /// Paper-literal composition: scalar soft argmin (Eq. 5) fed through the
  /// tanh/relu indicator (Eq. 7). Exact near one-hot, but for K >= 3 a row
  /// split between experts 0 and 2 lands its index expectation on 1 and
  /// credits the wrong expert — kept for the ablation bench.
  IndexExpectation,
  /// Direct relaxation: gamma_bar_i = mean_x softmax_j(-b delta_j H_xj)_i,
  /// i.e. the expected assignment probability Eqs. (3)+(5)+(7) approximate.
  /// Stable for any K; the default.
  SoftmaxWeights,
};

struct GateTrainerConfig {
  float gain_a = 0.5f;        ///< proportional-controller gain, 0 < a < 1
  float lr = 0.2f;            ///< eta — gradient step on Theta
  float j_threshold = 0.02f;  ///< epsilon — loop exit on the (hard) objective
  int max_iterations = 80;    ///< safety cap on the inner loop
  int restart_patience = 15;  ///< redraw the latent z after this many
                              ///< iterations without improving the best J
  int latent_dim = 8;         ///< N — length of the latent z
  int hidden_dim = 16;        ///< width of W's hidden layer
  float indicator_c = 10.0f;  ///< c in Eq. (7)
  GateRelaxation relaxation = GateRelaxation::SoftmaxWeights;
  /// Per-expert capacity weights (§VII future work): set points become
  /// w_i / sum(w) instead of 1/K, letting heterogeneous devices receive
  /// proportional training shares. Empty = uniform (the paper's setting).
  std::vector<float> capacity_weights;
  float meta_target = 0.10f;  ///< epsilon in Eq. (6)
  float meta_lr = 0.2f;       ///< step size for rho
  float entropy_floor = 1e-3f;  ///< floor on the entropies the gate sees,
                                ///< keeping expert ratios within what the
                                ///< bounded handicap delta can correct
  float initial_b = 1.0f;     ///< initial soft-argmin temperature — starting
                              ///< soft keeps early gradients alive; the
                              ///< meta-estimator sharpens b as training goes
};

/// Outcome of one gate-training call (one minibatch).
struct GateDecision {
  std::vector<int> assignment;   ///< expert index per batch row
  std::vector<float> gamma;      ///< plain-argmin proportions (bias measure)
  std::vector<float> gamma_bar;  ///< achieved proportions under delta
  std::vector<float> delta;      ///< final control variables
  float objective = 0.0f;        ///< final hard J
  int iterations = 0;            ///< inner-loop steps executed
  float temperature_b = 0.0f;    ///< b after the meta-estimator update
};

class GateTrainer {
 public:
  GateTrainer(int num_experts, const GateTrainerConfig& config, Rng rng);

  /// Runs Algorithm 2 on one batch's entropy matrix [n, K].
  GateDecision decide(const Tensor& entropy);

  float temperature() const;
  int num_experts() const { return k_; }
  const GateTrainerConfig& config() const { return config_; }

 private:
  int k_;
  GateTrainerConfig config_;
  Rng rng_;
  nn::Sequential w_;                     ///< W(z; Theta): latent -> K
  std::unique_ptr<nn::Sgd> theta_opt_;
  ag::Var rho_;                          ///< b = exp(rho)
  std::vector<float> last_delta_;        ///< warm start for the next batch
};

}  // namespace teamnet::core
