#include "sim/des/grant_policy.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace teamnet::sim::des {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

namespace {

class CanonicalPolicy final : public GrantPolicy {
 public:
  int choose(double /*time*/, const std::vector<int>& eligible,
             std::uint64_t /*salt*/) const override {
    return eligible.front();
  }
};

class RandomTiebreakPolicy final : public GrantPolicy {
 public:
  RandomTiebreakPolicy(std::uint64_t seed, double slack_s)
      : seed_(seed), slack_(slack_s) {}

  int choose(double time, const std::vector<int>& eligible,
             std::uint64_t salt) const override {
    // Stateless hash — NOT an RNG draw — so a replay of the same state
    // lands on the same winner (see header contract).
    std::uint64_t h = mix64(seed_ ^ double_bits(time));
    h = mix64(h ^ salt);
    for (int n : eligible) h = mix64(h ^ static_cast<std::uint64_t>(n));
    const auto index = static_cast<std::size_t>(h % eligible.size());
    return eligible[index];
  }

  double slack() const override { return slack_; }

 private:
  const std::uint64_t seed_;
  const double slack_;
};

class PctPolicy final : public GrantPolicy {
 public:
  PctPolicy(std::uint64_t seed, int num_nodes, double slack_s)
      : seed_(seed), slack_(slack_s) {
    Rng rng(mix64(seed ^ 0x9c75'0000'0000'0001ULL));
    // Higher value = higher priority; a seeded permutation so every
    // schedule seed starts from a different priority order.
    priority_ = rng.permutation(num_nodes);
  }

  int choose(double /*time*/, const std::vector<int>& eligible,
             std::uint64_t /*salt*/) const override {
    int best = eligible.front();
    for (int n : eligible) {
      if (priority_[static_cast<std::size_t>(n)] >
          priority_[static_cast<std::size_t>(best)]) {
        best = n;
      }
    }
    return best;
  }

  void note_step(int node) override {
    ++steps_;
    // Seeded priority-change points: at ~1/kChangePeriod of granted steps
    // the stepping node drops below everyone, forcing the kind of deep
    // preemption PCT uses to hit depth-d ordering bugs.
    if (mix64(seed_ ^ steps_) % kChangePeriod == 0) {
      int lowest = priority_[static_cast<std::size_t>(node)];
      for (int p : priority_) lowest = std::min(lowest, p);
      priority_[static_cast<std::size_t>(node)] = lowest - 1;
    }
  }

  double slack() const override { return slack_; }

 private:
  static constexpr std::uint64_t kChangePeriod = 11;

  const std::uint64_t seed_;
  const double slack_;
  std::uint64_t steps_ = 0;
  std::vector<int> priority_;
};

}  // namespace

const char* to_string(GrantPolicyKind kind) {
  switch (kind) {
    case GrantPolicyKind::canonical:
      return "canonical";
    case GrantPolicyKind::random_tiebreak:
      return "random-tiebreak";
    case GrantPolicyKind::pct:
      return "pct";
  }
  return "unknown";
}

std::optional<GrantPolicyKind> parse_grant_policy(std::string_view name) {
  if (name == "canonical") return GrantPolicyKind::canonical;
  if (name == "random-tiebreak") return GrantPolicyKind::random_tiebreak;
  if (name == "pct") return GrantPolicyKind::pct;
  return std::nullopt;
}

std::unique_ptr<GrantPolicy> make_grant_policy(GrantPolicyKind kind,
                                               std::uint64_t schedule_seed,
                                               int num_nodes, double slack_s) {
  TEAMNET_CHECK_MSG(num_nodes > 0, "num_nodes=" << num_nodes);
  TEAMNET_CHECK_MSG(slack_s >= 0.0, "negative schedule slack");
  switch (kind) {
    case GrantPolicyKind::canonical:
      return std::make_unique<CanonicalPolicy>();
    case GrantPolicyKind::random_tiebreak:
      return std::make_unique<RandomTiebreakPolicy>(schedule_seed, slack_s);
    case GrantPolicyKind::pct:
      return std::make_unique<PctPolicy>(schedule_seed, num_nodes, slack_s);
  }
  throw InvalidArgument("unknown GrantPolicyKind");
}

}  // namespace teamnet::sim::des
