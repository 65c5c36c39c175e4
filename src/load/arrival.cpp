#include "load/arrival.hpp"

#include <cmath>
#include <functional>
#include <limits>

#include "common/error.hpp"

namespace teamnet::load {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Uniform in [0, 1) from the top 53 bits of one engine draw — fixed
/// mapping, so the value sequence is byte-identical across standard
/// libraries (a standard-library real distribution is not).
double uniform01(Rng& rng) {
  return static_cast<double>(rng.engine()() >> 11) * 0x1.0p-53;
}

/// Exponential with rate `rate` (mean 1/rate); log1p keeps precision for
/// small draws.
double exponential(Rng& rng, double rate) {
  return -std::log1p(-uniform01(rng)) / rate;
}

class OpenPoissonProcess final : public ArrivalProcess {
 public:
  explicit OpenPoissonProcess(const ArrivalConfig& config)
      : rate_(config.rate_qps), rng_(config.seed) {
    TEAMNET_CHECK_MSG(rate_ > 0.0, "open_poisson needs rate_qps > 0");
  }

  double next_arrival(double /*now*/) override {
    const double t = peek_arrival();
    drawn_ = false;
    return t;
  }

  double peek_arrival() override {
    if (!drawn_) {
      next_ += exponential(rng_, rate_);
      drawn_ = true;
    }
    return next_;
  }

  const char* name() const override { return "open_poisson"; }

 private:
  double rate_;
  Rng rng_;
  double next_ = 0.0;
  bool drawn_ = false;  ///< next_ is a peeked, unconsumed draw
};

class BurstyProcess final : public ArrivalProcess {
 public:
  explicit BurstyProcess(const ArrivalConfig& config)
      : base_(config.rate_qps),
        amplitude_(config.burst_amplitude),
        period_(config.burst_period_s),
        rng_(config.seed) {
    TEAMNET_CHECK_MSG(base_ > 0.0, "bursty needs rate_qps > 0");
    TEAMNET_CHECK_MSG(amplitude_ >= 0.0 && amplitude_ <= 1.0,
                      "burst_amplitude must be in [0, 1]");
    TEAMNET_CHECK_MSG(period_ > 0.0, "burst_period_s must be > 0");
  }

  double next_arrival(double /*now*/) override {
    const double t = peek_arrival();
    drawn_ = false;
    return t;
  }

  double peek_arrival() override {
    if (drawn_) return candidate_;
    drawn_ = true;
    // Lewis thinning: candidates at the peak rate, accepted with
    // probability rate(t)/rate_max. Both draws come from the one stream,
    // in a fixed order, so the accepted subsequence is deterministic.
    const double rate_max = base_ * (1.0 + amplitude_);
    for (;;) {
      candidate_ += exponential(rng_, rate_max);
      const double rate_t =
          base_ * (1.0 + amplitude_ * std::sin(kTwoPi * candidate_ / period_));
      if (uniform01(rng_) * rate_max <= rate_t) return candidate_;
    }
  }

  const char* name() const override { return "bursty"; }

 private:
  double base_;
  double amplitude_;
  double period_;
  Rng rng_;
  double candidate_ = 0.0;
  bool drawn_ = false;  ///< candidate_ is a peeked, unconsumed arrival
};

class ClosedLoopProcess final : public ArrivalProcess {
 public:
  explicit ClosedLoopProcess(const ArrivalConfig& config)
      : rng_(config.seed) {
    TEAMNET_CHECK_MSG(config.clients >= 1, "closed_loop needs clients >= 1");
    // Each client finishes an initial think before its first submission —
    // a deterministic stagger that keeps arrival ties (and their heap
    // order) out of the sequence.
    for (int c = 0; c < config.clients; ++c) {
      ready_.push(exponential(rng_, 1.0 / kThinkMeanS));
    }
  }

  double next_arrival(double /*now*/) override {
    TEAMNET_CHECK_MSG(!ready_.empty(),
                      "closed_loop exhausted: every client is awaiting a "
                      "completion; call on_complete before the next draw");
    const double t = ready_.top();
    ready_.pop();
    return t;
  }

  double peek_arrival() override {
    return ready_.empty() ? std::numeric_limits<double>::infinity()
                          : ready_.top();
  }

  void on_complete(double completion_s) override {
    ready_.push(completion_s + exponential(rng_, 1.0 / kThinkMeanS));
  }

  const char* name() const override { return "closed_loop"; }

 private:
  static constexpr double kThinkMeanS = 0.01;  ///< mean think time (s)

  Rng rng_;
  std::priority_queue<double, std::vector<double>, std::greater<>> ready_;
};

}  // namespace

const char* to_string(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::open_poisson: return "open_poisson";
    case ArrivalKind::closed_loop: return "closed_loop";
    case ArrivalKind::bursty: return "bursty";
  }
  return "unknown";
}

std::unique_ptr<ArrivalProcess> make_arrival_process(
    const ArrivalConfig& config) {
  switch (config.kind) {
    case ArrivalKind::open_poisson:
      return std::make_unique<OpenPoissonProcess>(config);
    case ArrivalKind::closed_loop:
      return std::make_unique<ClosedLoopProcess>(config);
    case ArrivalKind::bursty:
      return std::make_unique<BurstyProcess>(config);
  }
  throw InvariantError("unknown ArrivalKind");
}

ZipfClassSampler::ZipfClassSampler(int num_classes, double exponent,
                                   std::uint64_t seed)
    : rng_(seed) {
  TEAMNET_CHECK_MSG(num_classes >= 1, "ZipfClassSampler needs >= 1 class");
  TEAMNET_CHECK_MSG(exponent >= 0.0, "Zipf exponent must be >= 0");
  for (int c = 0; c < num_classes; ++c) classes_.push_back(c);
  rng_.shuffle(classes_);  // which classes are hot depends on the seed
  double total = 0.0;
  cdf_.reserve(classes_.size());
  for (int rank = 1; rank <= num_classes; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), exponent);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int ZipfClassSampler::sample() {
  const double u = uniform01(rng_);
  std::size_t lo = 0;
  std::size_t hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return classes_[lo];
}

}  // namespace teamnet::load
