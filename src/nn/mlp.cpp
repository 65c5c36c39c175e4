#include "nn/mlp.hpp"

#include <sstream>

namespace teamnet::nn {

MlpNet::MlpNet(const MlpConfig& config, Rng* rng) : config_(config) {
  TEAMNET_CHECK_MSG(config.depth >= 1, "MLP depth must be >= 1");
  std::int64_t in = config.in_features;
  for (std::int64_t layer = 0; layer + 1 < config.depth; ++layer) {
    linears_.push_back(&emplace<Linear>(in, config.hidden, rng));
    emplace<ReLU>();
    in = config.hidden;
  }
  linears_.push_back(&emplace<Linear>(in, config.num_classes, rng));
}

std::string MlpNet::name() const {
  std::ostringstream os;
  os << "MLP-" << config_.depth;
  return os.str();
}

}  // namespace teamnet::nn
