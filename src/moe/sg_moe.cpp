#include "moe/sg_moe.hpp"

#include <algorithm>
#include <numeric>

#include "common/logging.hpp"
#include "moe/moe_ops.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace teamnet::moe {

namespace {

/// Indices of the k largest entries of `row` (unordered).
std::vector<int> top_k_indices(const float* row, int k_total, int k) {
  std::vector<int> idx(static_cast<std::size_t>(k_total));
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                    [row](int a, int b) { return row[a] > row[b]; });
  idx.resize(static_cast<std::size_t>(k));
  return idx;
}

}  // namespace

SgMoe::SgMoe(const SgMoeConfig& config, std::int64_t gate_in_features,
             const ExpertFactory& factory)
    : config_(config), gate_in_(gate_in_features), rng_(config.seed) {
  TEAMNET_CHECK(config.num_experts >= 2);
  TEAMNET_CHECK(config.top_k >= 1 && config.top_k <= config.num_experts);
  TEAMNET_CHECK(factory != nullptr);
  gate_ = std::make_unique<nn::Linear>(gate_in_, config.num_experts, &rng_);
  for (int i = 0; i < config.num_experts; ++i) {
    Rng expert_rng = rng_.fork(static_cast<std::uint64_t>(i) + 500);
    experts_.push_back(factory(i, expert_rng));
  }
}

Tensor SgMoe::gate_logits(const Tensor& x, bool add_noise) {
  Tensor flat = x.reshape({x.dim(0), -1});
  TEAMNET_CHECK_MSG(flat.dim(1) == gate_in_,
                    "gate expects " << gate_in_ << " features, got "
                                    << flat.dim(1));
  Tensor logits = ops::add(ops::matmul(flat, gate_->weight().value()),
                           gate_->bias().value());
  if (add_noise && config_.noise_stddev > 0.0f) {
    for (auto& v : logits.values()) v += rng_.normal(0.0f, config_.noise_stddev);
  }
  return logits;
}

void SgMoe::train(const data::Dataset& dataset) {
  dataset.validate();
  loss_history_.clear();

  // One optimizer over gate + all experts (joint training).
  std::vector<ag::Var> params = gate_->parameters();
  for (auto& e : experts_) {
    e->set_training(true);
    auto ep = e->parameters();
    params.insert(params.end(), ep.begin(), ep.end());
  }
  nn::Sgd optimizer(params, config_.sgd);

  const int k_experts = config_.num_experts;
  Rng shuffle_rng = rng_.fork(77);
  data::BatchIterator batches(dataset, config_.batch_size, &shuffle_rng);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    batches.reset();
    double epoch_loss = 0.0;
    int batch_count = 0;
    for (data::Batch batch = batches.next(); batch.size() > 0;
         batch = batches.next()) {
      const std::int64_t n = batch.size();

      // Noisy gate logits; only the top-k per row stay active.
      Tensor flat = batch.x.reshape({n, -1}).clone();
      ag::Var gate_raw = ag::add(
          ag::matmul(ag::constant(flat), gate_->weight()), gate_->bias());
      Tensor noise({n, k_experts});
      for (auto& v : noise.values()) v = rng_.normal(0.0f, config_.noise_stddev);
      ag::Var noisy = ag::add(gate_raw, ag::constant(std::move(noise)));

      // Top-k mask: non-selected logits get a large negative offset so the
      // softmax routes (and backprops) only through the keepers.
      Tensor mask({n, k_experts});
      std::vector<std::vector<int>> expert_rows(
          static_cast<std::size_t>(k_experts));
      for (std::int64_t r = 0; r < n; ++r) {
        const float* row = noisy.value().data() + r * k_experts;
        for (int i = 0; i < k_experts; ++i) mask[r * k_experts + i] = -1e9f;
        for (int i : top_k_indices(row, k_experts, config_.top_k)) {
          mask[r * k_experts + i] = 0.0f;
          expert_rows[static_cast<std::size_t>(i)].push_back(
              static_cast<int>(r));
        }
      }
      ag::Var gate_probs =
          ag::softmax_rows(ag::add(noisy, ag::constant(std::move(mask))));

      // Mixture of the active experts' logits.
      ag::Var mix;
      for (int i = 0; i < k_experts; ++i) {
        const auto& rows = expert_rows[static_cast<std::size_t>(i)];
        if (rows.empty()) continue;
        Tensor xi = ops::take_rows(batch.x, rows);
        ag::Var expert_out =
            experts_[static_cast<std::size_t>(i)]->forward(ag::constant(xi));
        std::vector<int> cols(rows.size(), i);
        ag::Var w = gather_elements(gate_probs, rows, cols);  // [m, 1]
        ag::Var contribution =
            scatter_add_rows(ag::mul(expert_out, w), rows, n);
        mix = mix.defined() ? ag::add(mix, contribution) : contribution;
      }

      ag::Var ce = nn::cross_entropy_loss(mix, batch.y);

      // Importance load balancing: CV^2 of the per-expert gate mass,
      // computed over the UNMASKED noisy softmax. The masked distribution
      // is one-hot for k=1 (its kept entry is constantly 1), which would
      // starve the balance term of gradient entirely.
      ag::Var dense_probs = ag::softmax_rows(noisy);
      ag::Var importance = ag::sum_axis(dense_probs, 0);      // [1, K]
      ag::Var mean_imp = ag::mean_all(importance);            // [1]
      ag::Var variance = ag::mean_all(ag::square(ag::sub(importance, mean_imp)));
      ag::Var cv2 =
          ag::div(variance, ag::add_scalar(ag::square(mean_imp), 1e-9f));
      ag::Var loss =
          ag::add(ce, ag::mul_scalar(cv2, config_.load_balance_weight));

      ag::backward(loss);
      optimizer.step();
      epoch_loss += loss.value()[0];
      ++batch_count;
    }
    loss_history_.push_back(static_cast<float>(epoch_loss / batch_count));
    LOG_INFO("sg-moe epoch " << epoch + 1 << "/" << config_.epochs
                             << " loss=" << loss_history_.back());
  }
  for (auto& e : experts_) e->set_training(false);
}

std::vector<int> SgMoe::route(const Tensor& x) {
  return ops::argmax_rows(gate_logits(x, /*add_noise=*/false));
}

SgMoe::Inference SgMoe::infer(const Tensor& x) {
  const std::int64_t n = x.dim(0);
  Inference result;
  result.routed = route(x);

  // Group rows by routed expert, run each group once, scatter back.
  std::vector<std::vector<int>> groups(
      static_cast<std::size_t>(config_.num_experts));
  for (std::int64_t r = 0; r < n; ++r) {
    groups[static_cast<std::size_t>(result.routed[static_cast<std::size_t>(r)])]
        .push_back(static_cast<int>(r));
  }
  Tensor probs;
  for (int i = 0; i < config_.num_experts; ++i) {
    const auto& rows = groups[static_cast<std::size_t>(i)];
    if (rows.empty()) continue;
    Tensor xi = ops::take_rows(x, rows);
    Tensor pi = ops::softmax_rows(
        experts_[static_cast<std::size_t>(i)]->predict(xi));
    if (!probs.defined()) probs = Tensor({n, pi.dim(1)});
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::copy(pi.data() + static_cast<std::int64_t>(r) * pi.dim(1),
                pi.data() + static_cast<std::int64_t>(r + 1) * pi.dim(1),
                probs.data() + rows[r] * pi.dim(1));
    }
  }
  result.probs = std::move(probs);
  result.predictions = ops::argmax_rows(result.probs);
  return result;
}

double SgMoe::evaluate_accuracy(const data::Dataset& dataset) {
  const Inference inf = infer(dataset.images);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < dataset.labels.size(); ++i) {
    if (inf.predictions[i] == dataset.labels[i]) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(dataset.labels.size());
}

}  // namespace teamnet::moe
