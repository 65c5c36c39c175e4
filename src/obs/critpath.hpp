// Critical-path reconstruction and exact latency attribution (DESIGN.md
// §15). Input: one QueryTimeline (obs/timeline.hpp). Output: two exact
// partitions of the query's arrival→completion latency —
//
//   * the END-TO-END partition: the five consecutive master-side slices
//     (queue wait, broadcast, local compute, gather wait, argmin);
//   * the CRITICAL-PATH partition: the broadcast→gather DAG has one chain
//     that released the gather — either the master's own expert or the
//     worker whose accepted reply was read last — and that chain's marks
//     re-slice the same interval into queue / serialization / transit /
//     compute / slack segments. Where the link model reports when a frame
//     got the shared medium and when it landed, each leg's link time
//     splits into the wait for the medium (queueing), airtime +
//     propagation (transit), and the wait in the receiver's inbox.
//
// Exactness invariant: all arithmetic is integer nanoseconds
// (to_ns(t) = llround(t * 1e9)) over a chain of clamped-monotone points,
// so each partition TELESCOPES — the slice sums equal the measured
// arrival-to-completion latency bit-exactly, with no floating-point
// residue. Under the discrete_event scheduler every mark is a virtual
// clock reading, so the whole decomposition is byte-reproducible from the
// seed. Marks a fault or degradation suppressed collapse into an explicit
// `unattributed` slice rather than silently skewing a named phase.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/timeline.hpp"

namespace teamnet::obs {

/// Attribution phases. The first five form the end-to-end partition; the
/// rest appear only on critical-path chains.
enum class AttrPhase : std::uint8_t {
  // -- end-to-end partition (master-side slices) --
  master_queue = 0,  ///< arrival → dispatch: waiting for the master's CPU
  broadcast,         ///< dispatch → broadcast_end: encode + all sends
  local_compute,     ///< broadcast_end → local_compute_end
  gather_wait,       ///< local_compute_end → gather_end
  argmin,            ///< gather_end → complete: selection + accounting
  // -- critical-path-only slices --
  broadcast_serial,  ///< dispatch → this worker's send done (incl. earlier
                     ///< workers' serialization: the serial-master cost)
  request_medium_wait,  ///< sent → request_on_air: waiting for the medium
  request_transit,   ///< request_on_air → request_landed: airtime +
                     ///< propagation (sent → request_recv, inbox wait
                     ///< included, when the link reports no timing)
  worker_queue,      ///< request_landed → compute_begin: the worker's inbox
                     ///< (request_recv → compute_begin without timing)
  worker_compute,    ///< compute_begin → compute_end
  reply_prep,        ///< compute_end → reply_sent: encode + send
  reply_medium_wait,  ///< reply_sent → reply_on_air: waiting for the medium
  reply_transit,     ///< reply_on_air → reply_landed: airtime + propagation
                     ///< (reply_sent → reply_recv without timing)
  reply_queue,       ///< reply_landed → reply_recv: the master's inbox
                     ///< while it was busy with other work
  gather_slack,      ///< releaser read → gather_end (poll/duplicate drain)
  unattributed,      ///< interval whose interior marks were not observed
};
inline constexpr int kNumAttrPhases = 16;
const char* to_string(AttrPhase phase);

/// Coarse grouping for the bottleneck report: which *kind* of work owns
/// the critical path.
enum class CritKind : int {
  queueing = 0,   ///< master_queue, worker_queue, reply_queue, the
                  ///< medium waits
  serialization,  ///< broadcast, broadcast_serial, argmin, gather_slack
  compute,        ///< local_compute, worker_compute, reply_prep
  transit,        ///< request_transit, reply_transit
  other,          ///< gather_wait, unattributed
};
inline constexpr int kNumCritKinds = 5;
const char* to_string(CritKind kind);
CritKind kind_of(AttrPhase phase);

/// Integer nanoseconds on the virtual (or steady) clock — the unit every
/// attribution sum is computed in so partitions telescope exactly.
std::int64_t to_ns(double seconds);

/// The end-to-end partition's storage: one slot per phase that partition
/// can touch (master_queue..argmin, then unattributed). Indexed by AttrPhase
/// value like a full per-phase array, so `e2e_ns[p]` reads 0 for every
/// critical-path-only phase.
class E2ePartition {
 public:
  static constexpr std::size_t kSlots = 6;

  std::int64_t operator[](std::size_t phase) const {
    const std::size_t s = slot(phase);
    return s < kSlots ? ns_[s] : 0;
  }
  /// Writable slot of an end-to-end phase; throws for a
  /// critical-path-only one.
  std::int64_t& at(AttrPhase phase);
  const std::int64_t* begin() const { return ns_.data(); }
  const std::int64_t* end() const { return ns_.data() + kSlots; }

 private:
  static constexpr std::size_t slot(std::size_t phase) {
    constexpr auto kArgmin = static_cast<std::size_t>(AttrPhase::argmin);
    constexpr auto kUnattributed =
        static_cast<std::size_t>(AttrPhase::unattributed);
    if (phase <= kArgmin) return phase;
    return phase == kUnattributed ? kSlots - 1 : kSlots;
  }

  std::array<std::int64_t, kSlots> ns_{};
};

/// One query's exact latency decomposition: a fixed-size record with no
/// heap storage. Its straggler slacks live in the run's
/// AttributionSet arena, at [slack_begin, slack_begin + slack_count).
struct QueryAttribution {
  std::int64_t qid = 0;
  std::int64_t arrival_ns = 0;
  std::int64_t complete_ns = 0;
  std::int64_t total_ns = 0;  ///< complete_ns - arrival_ns
  /// End-to-end partition: e2e_ns sums to total_ns exactly.
  E2ePartition e2e_ns;
  /// Critical-path partition: crit_ns sums to total_ns exactly.
  std::array<std::int64_t, kNumAttrPhases> crit_ns{};
  /// Straggler slacks of this query in the arena (see AttributionSet).
  std::uint32_t slack_begin = 0;
  std::uint32_t slack_count = 0;
  /// Worker index whose reply released the gather; -1 = the master's own
  /// expert finished last (or no counted worker reply).
  std::int16_t critical_worker = -1;
  std::int8_t degradation = 0;  ///< net::DegradationLevel as an integer
  /// Largest critical-path slice (ties: lowest AttrPhase value).
  AttrPhase dominant = AttrPhase::unattributed;

  std::int64_t e2e_sum() const;
  std::int64_t crit_sum() const;
  CritKind dominant_kind() const { return kind_of(dominant); }
};

/// Reconstructs the query's DAG from its timeline and attributes its
/// latency. Requires the arrival (or dispatch) and complete marks; any
/// other missing mark degrades to an `unattributed` slice, never to a
/// broken sum. Appends one straggler slack per non-critical counted
/// worker, in lane order, to `slack_arena` — gather_end minus its
/// reply_recv (>= 0): how much earlier than needed the straggler margin
/// absorbed that reply — and records where they start and how many.
QueryAttribution attribute(const QueryTimeline& timeline,
                           std::vector<std::int64_t>& slack_arena);

/// A run's attributions in query order, their straggler slacks in one
/// shared arena rather than a heap block per query.
class AttributionSet {
 public:
  AttributionSet() = default;
  /// Reserves room for `queries` attributions and `slacks` slacks.
  AttributionSet(std::size_t queries, std::size_t slacks);

  /// Attributes `timeline` and appends the result.
  const QueryAttribution& add_query(const QueryTimeline& timeline);
  /// Appends an already-built attribution with the given slacks; its own
  /// slack_begin/slack_count are overwritten.
  const QueryAttribution& add_query(
      QueryAttribution attribution,
      std::span<const std::int64_t> straggler_slack_ns = {});

  std::size_t size() const { return queries_.size(); }
  const QueryAttribution& operator[](std::size_t i) const {
    return queries_[i];
  }
  auto begin() const { return queries_.begin(); }
  auto end() const { return queries_.end(); }
  /// Straggler slacks of `a`, one of this set's entries, in lane order.
  /// Throws if `a`'s slack range does not lie in this set's arena.
  std::span<const std::int64_t> straggler_slack_ns(
      const QueryAttribution& a) const;

 private:
  std::vector<QueryAttribution> queries_;
  std::vector<std::int64_t> slack_ns_;
};

}  // namespace teamnet::obs
