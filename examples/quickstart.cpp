// Quickstart: train a TeamNet federation of two experts on the synthetic
// MNIST dataset, inspect the learned partition, run collaborative
// inference, and round-trip the experts through serialization.
//
//   ./build/examples/quickstart
#include <cstdio>
#include <sstream>

#include "core/teamnet.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"

using namespace teamnet;

int main() {
  // 1. Data: a procedural MNIST stand-in (10 digit classes, 28x28).
  data::MnistConfig data_cfg;
  data_cfg.num_samples = 2000;
  data::Dataset dataset = data::make_synthetic_mnist(data_cfg);
  auto [test, train] = dataset.split(0.2);
  std::printf("dataset: %lld train / %lld test samples, %d classes\n",
              static_cast<long long>(train.size()),
              static_cast<long long>(test.size()), train.num_classes);

  // 2. Configure TeamNet: K experts, each a downsized MLP. The trainer owns
  //    Algorithm 1 (entropy probe -> dynamic gate -> per-expert SGD step).
  core::TeamNetConfig cfg;
  cfg.num_experts = 2;
  cfg.epochs = 5;
  cfg.batch_size = 64;

  core::ExpertFactory make_expert = [](int index, Rng& rng) -> nn::ModulePtr {
    nn::MlpConfig mlp;
    mlp.depth = 4;    // the paper's 2xMLP-4 configuration
    mlp.hidden = 64;
    std::printf("  building expert %d: MLP-%lld, hidden %lld\n", index + 1,
                static_cast<long long>(mlp.depth),
                static_cast<long long>(mlp.hidden));
    return std::make_unique<nn::MlpNet>(mlp, rng);
  };

  core::TeamNetTrainer trainer(cfg, make_expert);
  std::printf("training %d experts for %d epochs...\n", cfg.num_experts,
              cfg.epochs);
  core::TeamNetEnsemble ensemble = trainer.train(train);

  // 3. Convergence telemetry: the share of each batch the gate assigned to
  //    each expert should settle near 1/K (paper Figure 6).
  const auto& tel = trainer.telemetry();
  const auto final_gamma = tel.smoothed_gamma(tel.iterations() - 1,
                                              tel.iterations() / 4);
  std::printf("final smoothed partition: [%.2f, %.2f] (set point 0.50)\n",
              final_gamma[0], final_gamma[1]);

  // 4. Collaborative inference: every expert predicts; the least-uncertain
  //    one wins (the argmin-entropy gate of Figure 4).
  const double acc = ensemble.evaluate_accuracy(test);
  std::printf("TeamNet test accuracy: %.1f%%\n", 100.0 * acc);

  auto result = ensemble.infer(test.images);
  int wins0 = 0;
  for (int w : result.chosen) wins0 += (w == 0);
  std::printf("expert 1 answered %.0f%% of queries, expert 2 the rest\n",
              100.0 * wins0 / static_cast<double>(result.chosen.size()));

  // 5. Ship an expert to an edge device: serialize + restore its weights.
  std::string wire = nn::serialize_parameters(ensemble.expert(0));
  std::printf("expert 1 weights serialize to %zu bytes\n", wire.size());
  nn::MlpConfig mlp;
  mlp.depth = 4;
  mlp.hidden = 64;
  nn::MlpNet restored(mlp);  // a load target: its weights come off the wire
  nn::deserialize_parameters(wire, restored);
  restored.set_training(false);
  Tensor a = ensemble.expert(0).predict(test.images);
  Tensor b = restored.predict(test.images);
  std::printf("restored expert matches original: %s\n",
              a.allclose(b) ? "yes" : "NO");
  return 0;
}
