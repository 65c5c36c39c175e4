// Seeded, deterministic arrival processes for the load-generation plane
// (DESIGN.md §14).
//
// An ArrivalProcess turns a seed into the virtual-time instants at which
// queries enter the system. Three shapes cover the serving literature's
// standard workloads:
//
//   open_poisson  open-loop: exponential inter-arrival gaps at a fixed
//                 rate. Arrivals do NOT wait for service — under overload
//                 the queue (and the tail) grows, which is exactly what an
//                 open-loop benchmark is for.
//   closed_loop   a fixed population of clients, each submitting, waiting
//                 for its completion, thinking (exponential, 10 ms mean),
//                 then submitting again. In-flight depth is bounded by the
//                 population; throughput self-limits instead of queueing.
//   bursty        nonhomogeneous Poisson via Lewis thinning: the rate is a
//                 diurnal-style sinusoid rate*(1 + A*sin(2πt/period)), so
//                 the generator sweeps through under- and over-load within
//                 one run.
//
// Every random draw comes from a hand-rolled uniform over the words of the
// process's own Rng (not a standard-library distribution: their value
// sequences are implementation-defined, and the arrival sequence must be
// byte-identical for a seed across standard libraries). Wall-clock never
// appears: `now` is virtual time supplied by the caller, so the whole
// plane runs on the DES clock and full runs stay bit-identical per seed.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.hpp"

namespace teamnet::load {

enum class ArrivalKind { open_poisson, closed_loop, bursty };

const char* to_string(ArrivalKind kind);

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::open_poisson;
  /// Mean arrival rate in queries per virtual second (open_poisson and
  /// bursty; the bursty wave oscillates around it).
  double rate_qps = 100.0;
  /// Closed-loop population size.
  int clients = 4;
  /// Bursty wave: rate(t) = rate_qps * (1 + amplitude * sin(2πt/period)).
  /// Amplitude must stay in [0, 1] so the rate is never negative.
  double burst_amplitude = 0.8;
  double burst_period_s = 1.0;
  std::uint64_t seed = 1;
};

/// A deterministic stream of arrival instants on the caller's (virtual)
/// clock. Not thread-safe: one driver loop owns one process.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Virtual time of the next arrival (seconds). Open-loop processes
  /// pre-schedule and ignore `now`; the returned instants are
  /// nondecreasing across calls. A closed-loop process pops its earliest
  /// ready client and throws InvariantError if every client is still
  /// awaiting a completion (the caller must feed on_complete between
  /// draws once the population is exhausted).
  virtual double next_arrival(double now) = 0;

  /// The instant the next next_arrival() call returns, without consuming
  /// it; +infinity while a closed loop has every client awaiting a
  /// completion (an on_complete may still make an earlier one ready).
  /// Open-loop shapes draw it once and hand the same draw to
  /// next_arrival, so peeking never changes the sequence.
  virtual double peek_arrival() = 0;

  /// Completion feedback at virtual time `completion_s`. Only the closed
  /// loop reacts (the finishing client starts thinking); open-loop shapes
  /// ignore it.
  virtual void on_complete(double completion_s) { (void)completion_s; }

  virtual const char* name() const = 0;
};

std::unique_ptr<ArrivalProcess> make_arrival_process(
    const ArrivalConfig& config);

/// Hot-key class skew: Zipf(s) over a seeded permutation of the class ids,
/// so query traffic concentrates on a few "hot" classes (which classes are
/// hot depends on the seed, not on label order). s = 0 degenerates to the
/// uniform mix.
class ZipfClassSampler {
 public:
  /// `num_classes` >= 1; `exponent` >= 0.
  ZipfClassSampler(int num_classes, double exponent, std::uint64_t seed);

  /// Draws a class id in [0, num_classes).
  int sample();

  /// Rank order: hot_classes()[0] is the most-probable class.
  const std::vector<int>& hot_classes() const { return classes_; }

 private:
  std::vector<int> classes_;  ///< permuted ids, hottest first
  std::vector<double> cdf_;   ///< cumulative probability per rank
  Rng rng_;
};

}  // namespace teamnet::load
