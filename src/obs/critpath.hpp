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
#include <cstdint>
#include <vector>

#include "obs/timeline.hpp"

namespace teamnet::obs {

/// Attribution phases. The first five form the end-to-end partition; the
/// rest appear only on critical-path chains.
enum class AttrPhase : int {
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

struct PhaseSlice {
  AttrPhase phase = AttrPhase::unattributed;
  std::int64_t ns = 0;
};

/// One query's exact latency decomposition.
struct QueryAttribution {
  std::int64_t qid = 0;
  int degradation = 0;  ///< net::DegradationLevel as int
  std::int64_t arrival_ns = 0;
  std::int64_t complete_ns = 0;
  std::int64_t total_ns = 0;  ///< complete_ns - arrival_ns
  /// Worker index whose reply released the gather; -1 = the master's own
  /// expert finished last (or no counted worker reply).
  int critical_worker = -1;
  /// End-to-end partition: e2e_ns sums to total_ns exactly.
  std::array<std::int64_t, kNumAttrPhases> e2e_ns{};
  /// Critical-path partition: crit_ns sums to total_ns exactly.
  std::array<std::int64_t, kNumAttrPhases> crit_ns{};
  /// The critical chain in causal order (zero-length slices included, so
  /// the chain shape is stable across queries).
  std::vector<PhaseSlice> critical;
  /// Largest critical-path slice (ties: lowest AttrPhase value).
  AttrPhase dominant = AttrPhase::unattributed;
  /// Per non-critical counted worker: gather_end - its reply_recv
  /// (>= 0) — how much earlier than needed the straggler margin absorbed
  /// that reply.
  std::vector<std::int64_t> straggler_slack_ns;

  std::int64_t e2e_sum() const;
  std::int64_t crit_sum() const;
  CritKind dominant_kind() const { return kind_of(dominant); }
};

/// Reconstructs the query's DAG from its timeline and attributes its
/// latency. Requires the arrival (or dispatch) and complete marks; any
/// other missing mark degrades to an `unattributed` slice, never to a
/// broken sum.
QueryAttribution attribute(const QueryTimeline& timeline);

}  // namespace teamnet::obs
