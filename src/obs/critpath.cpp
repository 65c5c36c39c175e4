#include "obs/critpath.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace teamnet::obs {

namespace {

/// One candidate point on a chain: the instant `phase` ends. A NaN time
/// (mark not observed) merges its slice into the following one.
struct ChainPoint {
  double t = 0.0;
  bool present = false;
  AttrPhase phase = AttrPhase::unattributed;
};

ChainPoint point(const QueryTimeline& tl, QueryPhase phase, AttrPhase attr) {
  return {tl.has(phase) ? tl.at(phase) : 0.0, tl.has(phase), attr};
}

ChainPoint point(const WorkerLane& lane, WorkerMark mark, AttrPhase attr) {
  return {lane.has(mark) ? lane.at(mark) : 0.0, lane.has(mark), attr};
}

/// A chain's points, held on the stack: the longest chain (a fully
/// marked worker lane) has 13.
constexpr std::size_t kMaxChainPoints = 13;
struct Chain {
  template <typename... Points>
  Chain(Points... p) : points{p...}, size(sizeof...(Points)) {
    static_assert(sizeof...(Points) <= kMaxChainPoints);
  }

  std::array<ChainPoint, kMaxChainPoints> points;
  std::size_t size;
};

/// Adds `ns` to `phase`'s slot of either partition's storage.
void add_ns(std::array<std::int64_t, kNumAttrPhases>& out, AttrPhase phase,
            std::int64_t ns) {
  out[static_cast<std::size_t>(phase)] += ns;
}
void add_ns(E2ePartition& out, AttrPhase phase, std::int64_t ns) {
  out.at(phase) += ns;
}

/// Folds a chain of points into per-phase nanosecond slices. Points are
/// clamped monotone into [begin_ns, end_ns], so the slice sum telescopes
/// to exactly end_ns - begin_ns; the interval ending at a missing point is
/// absorbed by the next present one. The final chain point must be the
/// `complete` mark (clamps to end_ns), which closes the telescope.
template <typename Partition>
void fold_chain(const Chain& chain, std::int64_t begin_ns, std::int64_t end_ns,
                Partition& out) {
  std::int64_t prev = begin_ns;
  for (std::size_t i = 0; i < chain.size; ++i) {
    const ChainPoint& p = chain.points[i];
    if (!p.present) continue;
    std::int64_t t = to_ns(p.t);
    t = std::clamp(t, prev, end_ns);
    add_ns(out, p.phase, t - prev);
    prev = t;
  }
  // Anything between the last present point and `end_ns` is unaccounted
  // master time; callers end chains on `complete` so this only fires when
  // that mark itself is missing.
  if (prev < end_ns) add_ns(out, AttrPhase::unattributed, end_ns - prev);
}

}  // namespace

const char* to_string(AttrPhase phase) {
  switch (phase) {
    case AttrPhase::master_queue:
      return "master_queue";
    case AttrPhase::broadcast:
      return "broadcast";
    case AttrPhase::local_compute:
      return "local_compute";
    case AttrPhase::gather_wait:
      return "gather_wait";
    case AttrPhase::argmin:
      return "argmin";
    case AttrPhase::broadcast_serial:
      return "broadcast_serial";
    case AttrPhase::request_medium_wait:
      return "request_medium_wait";
    case AttrPhase::request_transit:
      return "request_transit";
    case AttrPhase::worker_queue:
      return "worker_queue";
    case AttrPhase::worker_compute:
      return "worker_compute";
    case AttrPhase::reply_prep:
      return "reply_prep";
    case AttrPhase::reply_medium_wait:
      return "reply_medium_wait";
    case AttrPhase::reply_transit:
      return "reply_transit";
    case AttrPhase::reply_queue:
      return "reply_queue";
    case AttrPhase::gather_slack:
      return "gather_slack";
    case AttrPhase::unattributed:
      return "unattributed";
  }
  return "?";
}

const char* to_string(CritKind kind) {
  switch (kind) {
    case CritKind::queueing:
      return "queueing";
    case CritKind::serialization:
      return "serialization";
    case CritKind::compute:
      return "compute";
    case CritKind::transit:
      return "transit";
    case CritKind::other:
      return "other";
  }
  return "?";
}

CritKind kind_of(AttrPhase phase) {
  switch (phase) {
    case AttrPhase::master_queue:
    case AttrPhase::request_medium_wait:
    case AttrPhase::worker_queue:
    case AttrPhase::reply_medium_wait:
    case AttrPhase::reply_queue:
      return CritKind::queueing;
    case AttrPhase::broadcast:
    case AttrPhase::broadcast_serial:
    case AttrPhase::argmin:
    case AttrPhase::gather_slack:
      return CritKind::serialization;
    case AttrPhase::local_compute:
    case AttrPhase::worker_compute:
    case AttrPhase::reply_prep:
      return CritKind::compute;
    case AttrPhase::request_transit:
    case AttrPhase::reply_transit:
      return CritKind::transit;
    case AttrPhase::gather_wait:
    case AttrPhase::unattributed:
      return CritKind::other;
  }
  return CritKind::other;
}

std::int64_t to_ns(double seconds) {
  return std::llround(seconds * 1e9);
}

std::int64_t& E2ePartition::at(AttrPhase phase) {
  const std::size_t s = slot(static_cast<std::size_t>(phase));
  TEAMNET_CHECK_MSG(s < kSlots, "phase " << to_string(phase)
                                         << " is not in the end-to-end "
                                            "partition");
  return ns_[s];
}

std::int64_t QueryAttribution::e2e_sum() const {
  std::int64_t sum = 0;
  for (std::int64_t ns : e2e_ns) sum += ns;
  return sum;
}

std::int64_t QueryAttribution::crit_sum() const {
  std::int64_t sum = 0;
  for (std::int64_t ns : crit_ns) sum += ns;
  return sum;
}

QueryAttribution attribute(const QueryTimeline& tl,
                           std::vector<std::int64_t>& slack_arena) {
  QueryAttribution a;
  a.qid = tl.qid;
  a.degradation = static_cast<std::int8_t>(tl.degradation);
  TEAMNET_CHECK_MSG(
      slack_arena.size() <= std::numeric_limits<std::uint32_t>::max(),
      "straggler-slack arena outgrew 32-bit offsets");
  a.slack_begin = static_cast<std::uint32_t>(slack_arena.size());

  const bool has_arrival = tl.has(QueryPhase::arrival);
  const bool has_dispatch = tl.has(QueryPhase::dispatch);
  const bool has_complete = tl.has(QueryPhase::complete);
  if ((!has_arrival && !has_dispatch) || !has_complete) {
    // Nothing to anchor the interval on: an empty (all-zero) attribution
    // keeps aggregate sums consistent.
    return a;
  }
  const double t_arrival =
      has_arrival ? tl.at(QueryPhase::arrival) : tl.at(QueryPhase::dispatch);
  a.arrival_ns = to_ns(t_arrival);
  a.complete_ns = std::max(to_ns(tl.at(QueryPhase::complete)), a.arrival_ns);
  a.total_ns = a.complete_ns - a.arrival_ns;

  // -- end-to-end partition: the master's own five consecutive slices --
  const Chain e2e{
      point(tl, QueryPhase::dispatch, AttrPhase::master_queue),
      point(tl, QueryPhase::broadcast_end, AttrPhase::broadcast),
      point(tl, QueryPhase::local_compute_end, AttrPhase::local_compute),
      point(tl, QueryPhase::gather_end, AttrPhase::gather_wait),
      point(tl, QueryPhase::complete, AttrPhase::argmin),
  };
  fold_chain(e2e, a.arrival_ns, a.complete_ns, a.e2e_ns);

  // -- the gather's releaser: the chain whose last event the gather's
  // completion actually waited on. Candidates are the master's own expert
  // (local_compute_end) and every counted worker reply (reply_recv, a
  // master-clock read instant). Latest wins; ties prefer the local chain,
  // then the lowest worker index, for determinism.
  double release = tl.has(QueryPhase::local_compute_end)
                       ? tl.at(QueryPhase::local_compute_end)
                       : t_arrival;
  int critical_worker = -1;
  for (const WorkerLane& lane : tl.lanes) {
    if (!lane.has(WorkerMark::reply_recv)) continue;
    if (lane.at(WorkerMark::reply_recv) > release) {
      release = lane.at(WorkerMark::reply_recv);
      critical_worker = lane.worker;
    }
  }
  TEAMNET_CHECK_MSG(
      critical_worker <= std::numeric_limits<std::int16_t>::max(),
      "worker index " << critical_worker << " outgrew 16 bits");
  a.critical_worker = static_cast<std::int16_t>(critical_worker);

  // -- critical-path partition --
  Chain crit;
  if (critical_worker < 0) {
    // The master's own expert released the gather: the critical chain is
    // the e2e chain with the post-compute wait labeled as slack.
    crit = {
        point(tl, QueryPhase::dispatch, AttrPhase::master_queue),
        point(tl, QueryPhase::broadcast_end, AttrPhase::broadcast),
        point(tl, QueryPhase::local_compute_end, AttrPhase::local_compute),
        point(tl, QueryPhase::gather_end, AttrPhase::gather_slack),
        point(tl, QueryPhase::complete, AttrPhase::argmin),
    };
  } else {
    const WorkerLane& lane = *tl.find_lane(critical_worker);
    const bool full_lane =
        lane.has(WorkerMark::request_recv) &&
        lane.has(WorkerMark::compute_begin) &&
        lane.has(WorkerMark::compute_end) && lane.has(WorkerMark::reply_sent);
    if (full_lane) {
      // Without the link's own instants a leg's inbox wait stays inside
      // its transit slice.
      const bool request_timed = lane.has(WorkerMark::request_landed);
      const bool reply_timed = lane.has(WorkerMark::reply_landed);
      crit = {
          point(tl, QueryPhase::dispatch, AttrPhase::master_queue),
          point(lane, WorkerMark::sent, AttrPhase::broadcast_serial),
          point(lane, WorkerMark::request_on_air,
                AttrPhase::request_medium_wait),
          point(lane, WorkerMark::request_landed, AttrPhase::request_transit),
          point(lane, WorkerMark::request_recv,
                request_timed ? AttrPhase::worker_queue
                              : AttrPhase::request_transit),
          point(lane, WorkerMark::compute_begin, AttrPhase::worker_queue),
          point(lane, WorkerMark::compute_end, AttrPhase::worker_compute),
          point(lane, WorkerMark::reply_sent, AttrPhase::reply_prep),
          point(lane, WorkerMark::reply_on_air, AttrPhase::reply_medium_wait),
          point(lane, WorkerMark::reply_landed, AttrPhase::reply_transit),
          point(lane, WorkerMark::reply_recv,
                reply_timed ? AttrPhase::reply_queue
                            : AttrPhase::reply_transit),
          point(tl, QueryPhase::gather_end, AttrPhase::gather_slack),
          point(tl, QueryPhase::complete, AttrPhase::argmin),
      };
    } else {
      // Worker-side marks were suppressed (hedged replica won, or an
      // uninstrumented worker): the dispatch→reply interval is real but
      // its interior is unobserved.
      crit = {
          point(tl, QueryPhase::dispatch, AttrPhase::master_queue),
          point(lane, WorkerMark::sent, AttrPhase::broadcast_serial),
          point(lane, WorkerMark::reply_recv, AttrPhase::unattributed),
          point(tl, QueryPhase::gather_end, AttrPhase::gather_slack),
          point(tl, QueryPhase::complete, AttrPhase::argmin),
      };
    }
  }
  fold_chain(crit, a.arrival_ns, a.complete_ns, a.crit_ns);

  // Dominant slice: largest critical contribution, ties to the lowest
  // phase value (master_queue first — the serial-master phases win ties).
  std::int64_t best = -1;
  for (int p = 0; p < kNumAttrPhases; ++p) {
    if (a.crit_ns[static_cast<std::size_t>(p)] > best) {
      best = a.crit_ns[static_cast<std::size_t>(p)];
      a.dominant = static_cast<AttrPhase>(p);
    }
  }

  // Straggler slack: how long before the gather's release each
  // non-critical counted reply was read.
  const std::int64_t gather_ns =
      tl.has(QueryPhase::gather_end)
          ? std::clamp(to_ns(tl.at(QueryPhase::gather_end)), a.arrival_ns,
                       a.complete_ns)
          : a.complete_ns;
  for (const WorkerLane& lane : tl.lanes) {
    if (!lane.has(WorkerMark::reply_recv) || lane.worker == critical_worker)
      continue;
    const std::int64_t reply =
        std::clamp(to_ns(lane.at(WorkerMark::reply_recv)), a.arrival_ns,
                   a.complete_ns);
    slack_arena.push_back(std::max<std::int64_t>(0, gather_ns - reply));
  }
  a.slack_count = static_cast<std::uint32_t>(slack_arena.size() -
                                             a.slack_begin);
  return a;
}

AttributionSet::AttributionSet(std::size_t queries, std::size_t slacks) {
  queries_.reserve(queries);
  slack_ns_.reserve(slacks);
}

const QueryAttribution& AttributionSet::add_query(
    const QueryTimeline& timeline) {
  queries_.push_back(attribute(timeline, slack_ns_));
  return queries_.back();
}

const QueryAttribution& AttributionSet::add_query(
    QueryAttribution attribution,
    std::span<const std::int64_t> straggler_slack_ns) {
  TEAMNET_CHECK_MSG(
      slack_ns_.size() + straggler_slack_ns.size() <=
          std::numeric_limits<std::uint32_t>::max(),
      "straggler-slack arena outgrew 32-bit offsets");
  attribution.slack_begin = static_cast<std::uint32_t>(slack_ns_.size());
  attribution.slack_count =
      static_cast<std::uint32_t>(straggler_slack_ns.size());
  slack_ns_.insert(slack_ns_.end(), straggler_slack_ns.begin(),
                   straggler_slack_ns.end());
  queries_.push_back(attribution);
  return queries_.back();
}

std::span<const std::int64_t> AttributionSet::straggler_slack_ns(
    const QueryAttribution& a) const {
  TEAMNET_CHECK_MSG(
      std::size_t{a.slack_begin} + a.slack_count <= slack_ns_.size(),
      "query " << a.qid << "'s slacks [" << a.slack_begin << ", +"
               << a.slack_count << ") lie outside this set's "
               << slack_ns_.size() << "-slack arena");
  return {slack_ns_.data() + a.slack_begin, a.slack_count};
}

}  // namespace teamnet::obs
