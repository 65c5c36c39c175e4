#include "obs/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace teamnet::obs {

namespace {

constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();

bool is_set(double t) { return !std::isnan(t); }

}  // namespace

const char* to_string(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::arrival:
      return "arrival";
    case QueryPhase::dispatch:
      return "dispatch";
    case QueryPhase::broadcast_end:
      return "broadcast_end";
    case QueryPhase::local_compute_end:
      return "local_compute_end";
    case QueryPhase::gather_end:
      return "gather_end";
    case QueryPhase::complete:
      return "complete";
  }
  return "?";
}

const char* to_string(WorkerMark mark) {
  switch (mark) {
    case WorkerMark::sent:
      return "sent";
    case WorkerMark::request_on_air:
      return "request_on_air";
    case WorkerMark::request_landed:
      return "request_landed";
    case WorkerMark::request_recv:
      return "request_recv";
    case WorkerMark::compute_begin:
      return "compute_begin";
    case WorkerMark::compute_end:
      return "compute_end";
    case WorkerMark::reply_sent:
      return "reply_sent";
    case WorkerMark::reply_on_air:
      return "reply_on_air";
    case WorkerMark::reply_landed:
      return "reply_landed";
    case WorkerMark::reply_recv:
      return "reply_recv";
  }
  return "?";
}

WorkerLane::WorkerLane() { t.fill(kUnset); }

bool WorkerLane::has(WorkerMark mark) const {
  return is_set(t[static_cast<std::size_t>(mark)]);
}

QueryTimeline::QueryTimeline() { t.fill(kUnset); }

bool QueryTimeline::has(QueryPhase phase) const {
  return is_set(t[static_cast<std::size_t>(phase)]);
}

WorkerLane& QueryTimeline::lane(int worker) {
  auto it = std::lower_bound(
      lanes.begin(), lanes.end(), worker,
      [](const WorkerLane& lane, int w) { return lane.worker < w; });
  if (it != lanes.end() && it->worker == worker) return *it;
  WorkerLane fresh;
  fresh.worker = worker;
  return *lanes.insert(it, fresh);
}

const WorkerLane* QueryTimeline::find_lane(int worker) const {
  auto it = std::lower_bound(
      lanes.begin(), lanes.end(), worker,
      [](const WorkerLane& lane, int w) { return lane.worker < w; });
  if (it != lanes.end() && it->worker == worker) return &*it;
  return nullptr;
}

TimelineRecorder& TimelineRecorder::instance() {
  // Leaked on purpose, mirroring the Tracer: emission may race static
  // destruction in detached-thread shutdown paths.
  static TimelineRecorder* const recorder = new TimelineRecorder();
  return *recorder;
}

void TimelineRecorder::start(std::size_t workers) {
  MutexLock lock(mutex_);
  queries_.clear();
  workers_ = workers;
  have_pending_arrival_ = false;
  detail::g_timeline_active.store(true, std::memory_order_relaxed);
}

void TimelineRecorder::stop() {
  detail::g_timeline_active.store(false, std::memory_order_relaxed);
}

std::vector<QueryTimeline> TimelineRecorder::take() {
  MutexLock lock(mutex_);
  std::vector<QueryTimeline> out = std::move(queries_);
  queries_.clear();
  have_pending_arrival_ = false;
  return out;
}

QueryTimeline& TimelineRecorder::query(std::int64_t qid) {
  // Queries begin in ascending qid order (the master's ids are monotone),
  // so the common case is "last element or append"; worker marks for an
  // in-flight query hit the tail as well.
  auto it = std::lower_bound(
      queries_.begin(), queries_.end(), qid,
      [](const QueryTimeline& q, std::int64_t id) { return q.qid < id; });
  if (it != queries_.end() && it->qid == qid) return *it;
  QueryTimeline fresh;
  fresh.qid = qid;
  // One lane per worker, allocated once and indexed by worker, so marking
  // a lane never inserts or grows.
  fresh.lanes.resize(workers_);
  for (std::size_t w = 0; w < workers_; ++w) {
    fresh.lanes[w].worker = static_cast<int>(w);
  }
  return *queries_.insert(it, std::move(fresh));
}

void TimelineRecorder::note_arrival(double t_s) {
  MutexLock lock(mutex_);
  have_pending_arrival_ = true;
  pending_arrival_s_ = t_s;
}

void TimelineRecorder::mark(std::int64_t qid, QueryPhase phase, double t_s) {
  MutexLock lock(mutex_);
  QueryTimeline& q = query(qid);
  if (phase == QueryPhase::dispatch && !q.has(QueryPhase::arrival)) {
    q.t[static_cast<std::size_t>(QueryPhase::arrival)] =
        have_pending_arrival_ ? pending_arrival_s_ : t_s;
    have_pending_arrival_ = false;
  }
  double& slot = q.t[static_cast<std::size_t>(phase)];
  if (!is_set(slot)) slot = t_s;
}

void TimelineRecorder::mark_worker(std::int64_t qid, int worker,
                                   WorkerMark mark, double t_s) {
  MutexLock lock(mutex_);
  std::vector<WorkerLane>& lanes = query(qid).lanes;
  TEAMNET_CHECK_MSG(
      worker >= 0 && static_cast<std::size_t>(worker) < lanes.size(),
      "worker " << worker << " is outside the recorder's " << lanes.size()
                << " lanes");
  double& slot =
      lanes[static_cast<std::size_t>(worker)].t[static_cast<std::size_t>(mark)];
  if (!is_set(slot)) slot = t_s;
}

void TimelineRecorder::set_degradation(std::int64_t qid, int level) {
  MutexLock lock(mutex_);
  query(qid).degradation = level;
}

namespace {

/// Trace instant carrying the (qid, lane, seq) triple check_trace.py
/// validates ordering on: lane -1 = master phase marks, lane >= 0 = that
/// worker's marks; seq is the enum value, strictly increasing per lane.
/// "run" is the tracer epoch — sequential scenario runs in one trace each
/// restart qid at 1, so the validator scopes lanes per (run, qid, lane).
void qtl_instant(std::int64_t qid, int lane, int seq, const char* what) {
  trace_instant("qtl", [&] {
    return TraceArgs()
        .arg("run", Tracer::instance().current_epoch())
        .arg("qid", qid)
        .arg("lane", lane)
        .arg("seq", seq)
        .arg("mark", what);
  });
}

}  // namespace

void qtl_master_mark(std::int64_t qid, QueryPhase phase, double t_s) {
  if (TimelineRecorder::active()) {
    TimelineRecorder::instance().mark(qid, phase, t_s);
  }
  if (Tracer::active()) {
    qtl_instant(qid, -1, static_cast<int>(phase), to_string(phase));
  }
}

void qtl_worker_mark(std::int64_t qid, int worker, WorkerMark mark,
                     double t_s) {
  if (TimelineRecorder::active()) {
    TimelineRecorder::instance().mark_worker(qid, worker, mark, t_s);
  }
  if (Tracer::active()) {
    qtl_instant(qid, worker, static_cast<int>(mark), to_string(mark));
  }
}

void qtl_degradation(std::int64_t qid, int level) {
  if (TimelineRecorder::active()) {
    TimelineRecorder::instance().set_degradation(qid, level);
  }
}

}  // namespace teamnet::obs
