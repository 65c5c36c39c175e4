#include "net/master_core.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace teamnet::net {

std::int64_t batch_flops(nn::Module& model, const Tensor& x) {
  Shape sample_shape(x.shape().begin() + 1, x.shape().end());
  return model.analyze(sample_shape).flops * x.dim(0);
}

MasterCore::MasterCore(std::vector<Channel*> workers,
                       const std::string& counters, bool strict)
    : workers_(std::move(workers)),
      counters_(counters + "."),
      strict_(strict),
      slots_(workers_.size()) {
  for (auto* w : workers_) TEAMNET_CHECK(w != nullptr);
}

/// Registry bump for protocol events — the name lookup is off the
/// per-sample hot path.
void MasterCore::bump(const char* counter) const {
  obs::MetricsRegistry::instance().counter(counters_ + counter).increment();
}

double MasterCore::now() const {
  return workers_.empty() ? steady_seconds() : workers_.front()->now();
}

void MasterCore::set_worker_timeout(double seconds) {
  TEAMNET_CHECK_MSG(seconds >= 0.0, "worker timeout must be >= 0");
  worker_timeout_s_ = seconds;
}

void MasterCore::set_probe_interval(int queries) {
  TEAMNET_CHECK_MSG(queries >= 0, "probe interval must be >= 0");
  probe_interval_ = std::min(queries, kMaxProbeInterval);
}

void MasterCore::set_gather_quorum(int answers) {
  TEAMNET_CHECK_MSG(answers >= 0, "gather quorum must be >= 0");
  quorum_ = answers;
}

void MasterCore::set_hedging(std::vector<Channel*> backups) {
  TEAMNET_CHECK_MSG(backups.size() == workers_.size(),
                    "need one backup entry (possibly null) per worker");
  backups_ = std::move(backups);
}

int MasterCore::failed_workers() const {
  return static_cast<int>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const WorkerSlot& s) { return s.failed; }));
}

bool MasterCore::worker_alive(int worker_index) const {
  TEAMNET_CHECK_MSG(
      worker_index >= 0 && worker_index < static_cast<int>(slots_.size()),
      "worker index " << worker_index << " out of range [0, " << slots_.size()
                      << ")");
  return !slots_[static_cast<std::size_t>(worker_index)].failed;
}

bool MasterCore::dispatchable(std::size_t w) const {
  return !slots_[w].failed;
}

double MasterCore::expected_latency_s(int worker_index) const {
  TEAMNET_CHECK_MSG(
      worker_index >= 0 && worker_index < static_cast<int>(slots_.size()),
      "worker index " << worker_index << " out of range [0, " << slots_.size()
                      << ")");
  const WorkerSlot& slot = slots_[static_cast<std::size_t>(worker_index)];
  return slot.has_latency ? slot.latency_ewma_s : kInitialLatencyS;
}

void MasterCore::fail(std::size_t w, const std::string& why) {
  if (strict_) {
    throw NetworkError("worker " + std::to_string(w + 1) + " " + why);
  }
  LOG_WARN("worker " << w + 1 << " " << why << "; marking failed");
  mark_failed(w);
}

void MasterCore::mark_failed(std::size_t w) {
  WorkerSlot& slot = slots_[w];
  if (slot.failed) return;
  slot.failed = true;
  slot.probe_id = 0;
  slot.probe_interval = probe_interval_;
  slot.probe_countdown = probe_interval_;
  bump("worker_failures_total");
  obs::trace_instant("worker_failed", [&] {
    return obs::TraceArgs().arg("worker", static_cast<std::int64_t>(w) + 1);
  });
}

void MasterCore::probe_failed_workers() {
  if (probe_interval_ <= 0) return;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerSlot& slot = slots_[w];
    if (!slot.failed) continue;
    try {
      // Poll for an answer to the in-flight probe. Anything else queued on
      // the channel (a late Result from before the worker failed) is stale
      // and discarded here — bounded drain, never blocking.
      for (int drained = 0; slot.probe_id != 0 && drained < 64; ++drained) {
        auto raw = workers_[w]->recv_timeout(0.0);
        if (!raw) break;
        Message msg;
        try {
          msg = Message::decode(*raw);
        } catch (const SerializationError&) {
          ++stale_discarded_;
          bump("stale_replies_total");
          continue;
        }
        if (msg.type == MsgType::Pong && !msg.ints.empty() &&
            msg.ints[0] == slot.probe_id) {
          slot.failed = false;
          slot.probe_id = 0;
          ++rejoins_;
          bump("rejoins_total");
          obs::trace_instant("worker_rejoin", [&] {
            return obs::TraceArgs().arg("worker",
                                        static_cast<std::int64_t>(w) + 1);
          });
          LOG_INFO("worker " << w + 1
                             << " answered probe; rejoining the live set");
          break;
        }
        ++stale_discarded_;
        bump("stale_replies_total");
        if (flow_trace_ && msg.type == MsgType::Result && !msg.ints.empty()) {
          // A late Result from before the worker failed: close its flow at
          // the probation drain so it does not dangle in the trace.
          obs::trace_flow_finish(
              "result",
              obs::flow_id(msg.ints[0], static_cast<int>(w) + 1, 1));
        }
      }
      if (!slot.failed) continue;
      if (--slot.probe_countdown > 0) continue;
      Message ping;
      ping.type = MsgType::Ping;
      ping.ints = {++probe_seq_};
      workers_[w]->send(ping.encode());
      slot.probe_id = probe_seq_;
      obs::trace_instant("probe", [&] {
        return obs::TraceArgs()
            .arg("worker", static_cast<std::int64_t>(w) + 1)
            .arg("probe_id", probe_seq_);
      });
      // Exponential backoff on the probe cadence: each unanswered probe
      // doubles the wait before the next one, up to kMaxProbeInterval.
      slot.probe_interval =
          std::min(slot.probe_interval * 2, kMaxProbeInterval);
      slot.probe_countdown = slot.probe_interval;
    } catch (const Error& e) {
      LOG_DEBUG("worker " << w + 1 << " probe failed: " << e.what());
      // Still failed; the probe cadence continues on later queries.
    }
  }
}

void MasterCore::mark(const Query& q, obs::QueryPhase phase) {
  if (q.timeline) obs::qtl_master_mark(q.qid, phase, now());
}

MasterCore::Query& MasterCore::query(std::int64_t qid) {
  auto it = inflight_.find(qid);
  TEAMNET_CHECK_MSG(it != inflight_.end(), "query " << qid << " not in flight");
  return it->second;
}

std::int64_t MasterCore::begin_query(const Tensor& x) {
  TEAMNET_CHECK_MSG(x.rank() >= 2 && x.dim(0) >= 1,
                    "a query needs a non-empty [n, ...] batch");
  ++qid_;
  bump("queries_total");
  Query& q = inflight_[qid_];
  q.qid = qid_;
  q.timeline = obs::qtl_active();
  q.flights.resize(workers_.size());
  mark(q, obs::QueryPhase::dispatch);
  // Probation first, so a recovered worker rejoins in time for this query.
  probe_failed_workers();
  // The shared deadline anchors BEFORE dispatch: the budget is the query's
  // SLO — it covers send + compute + gather — and its absolute expiry
  // rides in every Infer frame so workers can drop requests that outlive
  // it (deadline propagation, DESIGN.md §13).
  if (worker_timeout_s_ > 0.0) q.expiry = now() + worker_timeout_s_;
  return qid_;
}

std::string MasterCore::request_frame(const Tensor& payload, bool hedged) {
  const Query& q = current();
  Message request;
  request.type = MsgType::Infer;
  InferInfo info;
  info.qid = q.qid;
  info.deadline_us = std::isinf(q.expiry) ? kNoDeadlineUs
                                          : std::llround(q.expiry * 1e6);
  info.hedged = hedged;
  set_infer_info(request, info);
  request.tensors = {payload};
  return request.encode();
}

void MasterCore::send_request(std::size_t w, const Tensor& payload,
                              const std::string& frame) {
  try {
    workers_[w]->send(frame);
  } catch (const Error& e) {
    fail(w, std::string("failed on send: ") + e.what());
    return;
  }
  Query& q = current();
  Flight& f = q.flights[w];
  f.asked = f.pending = f.primary_out = true;
  f.request = payload;
  if (q.timeline) {
    // Per-worker send-done instants expose the serial dispatch: the gap
    // between consecutive `sent` marks IS the master's per-worker
    // serialization cost (AttrPhase::broadcast_serial).
    obs::qtl_worker_mark(q.qid, static_cast<int>(w), obs::WorkerMark::sent,
                         now());
  }
  if (flow_trace_) {
    obs::trace_flow_start("infer",
                          obs::flow_id(q.qid, static_cast<int>(w) + 1, 0));
  }
}

void MasterCore::end_dispatch() {
  Query& q = current();
  q.t_sent = now();
  if (q.timeline) {
    obs::qtl_master_mark(q.qid, obs::QueryPhase::broadcast_end, q.t_sent);
  }
  int full_total = 1;
  for (const auto& f : q.flights) full_total += f.asked ? 1 : 0;
  q.target = quorum_ > 0 ? std::min(quorum_, full_total) : full_total;
}

Tensor MasterCore::local_forward(nn::Module& expert, const Tensor& x) {
  obs::TraceSpan span("expert_forward", [&] {
    return obs::TraceArgs().arg("qid", qid_).arg("rows", x.dim(0));
  });
  if (on_compute_) on_compute_(batch_flops(expert, x));
  return ops::softmax_rows(expert.predict(x));
}

void MasterCore::end_query(int degradation) {
  end_query(current(), degradation);
}

void MasterCore::end_query(Query& q, int degradation) {
  if (q.timeline) {
    obs::qtl_degradation(q.qid, degradation);
    obs::qtl_master_mark(q.qid, obs::QueryPhase::complete, now());
  }
  const std::int64_t qid = q.qid;  // the key dies with the entry
  inflight_.erase(qid);
}

std::int64_t MasterCore::deliver(std::size_t w, const std::string& raw) {
  Query* q = accept(raw, w, /*from_backup=*/false);
  if (q == nullptr || q->answers != q->target) return 0;
  mark(*q, obs::QueryPhase::gather_end);
  return q->qid;
}

double MasterCore::next_due() const {
  double t = std::numeric_limits<double>::infinity();
  for (const auto& [qid, q] : inflight_) {
    if (q.answers >= q.target) return now();
    t = std::min(t, q.expiry);
  }
  return t;
}

std::int64_t MasterCore::due() {
  for (auto& [qid, q] : inflight_) {
    if (q.answers >= q.target || expired(q)) {
      // The workers still out are slow, not lost: no probation, and their
      // late replies count as stale like a quorum's stragglers.
      mark(q, obs::QueryPhase::gather_end);
      return qid;
    }
  }
  return 0;
}

void MasterCore::stale(std::size_t w, bool from_backup, const Message& reply) {
  ++stale_discarded_;
  bump("stale_replies_total");
  if (flow_trace_ && !from_backup && !reply.ints.empty()) {
    // Close the stale reply's flow at its discard point — a drained
    // stale is consumed, not dangling.
    obs::trace_flow_finish(
        "result", obs::flow_id(reply.ints[0], static_cast<int>(w) + 1, 1));
  }
  obs::trace_instant("stale_reply_discarded", [&] {
    return obs::TraceArgs()
        .arg("worker", static_cast<std::int64_t>(w) + 1)
        .arg("stale_qid",
             reply.ints.empty() ? std::int64_t{-1} : reply.ints[0])
        .arg("qid", qid_);
  });
}

MasterCore::Query* MasterCore::accept(const std::string& raw, std::size_t w,
                                      bool from_backup) {
  Message reply = Message::decode(raw);
  if (reply.type == MsgType::Pong) {
    ++stale_discarded_;  // duplicate probe answer
    bump("stale_replies_total");
    obs::trace_instant("stale_reply_discarded", [&] {
      return obs::TraceArgs()
          .arg("worker", static_cast<std::int64_t>(w) + 1)
          .arg("kind", "duplicate_pong");
    });
    return nullptr;
  }
  TEAMNET_CHECK_MSG(
      reply.type == MsgType::Result && reply.tensors.size() == 2,
      "worker " << w + 1 << " sent malformed reply type "
                << static_cast<int>(reply.type));
  Query* found = nullptr;
  if (test_pre_qid_gather_) {
    // TEST-ONLY mutant (see set_test_pre_qid_gather): no id echo — the
    // deadline reading is the only stale filter, so whether a reply is
    // trusted or treated as a miss races its arrival against the clock.
    found = &current();
    if (expired(*found)) {
      throw NetworkError("answered past the deadline reading (pre-qid mutant)");
    }
  } else if (!reply.ints.empty()) {
    // Route by the echoed id: a reply for any in-flight query answers that
    // query, however many were dispatched after it.
    auto it = inflight_.find(reply.ints[0]);
    if (it != inflight_.end()) found = &it->second;
  }
  if (found == nullptr) {
    stale(w, from_backup, reply);
    return nullptr;
  }
  Query& q = *found;
  Flight& f = q.flights[w];
  // A current-query Result settles its source's outstanding request,
  // duplicate or not.
  if (from_backup) {
    if (f.backup_out > 0) --f.backup_out;
  } else {
    f.primary_out = false;
    // Backup replicas never open flows (they answer under a lane they do
    // not own), so only primary replies close one.
    if (flow_trace_) {
      obs::trace_flow_finish("result",
                             obs::flow_id(q.qid, static_cast<int>(w) + 1, 1));
    }
  }
  if (f.answered) {
    // The other replica of this expert answered first: the id echo
    // reconciles the duplicate instead of double-counting the expert.
    ++hedge_duplicates_;
    bump("hedge_duplicates_total");
    obs::trace_instant("hedge_duplicate_reconciled", [&] {
      return obs::TraceArgs()
          .arg("worker", static_cast<std::int64_t>(w) + 1)
          .arg("qid", q.qid);
    });
    return nullptr;
  }
  // A well-framed Result is still only an answer if it covers exactly the
  // rows asked: the combine steps index it by row and class unchecked.
  const Tensor& probs = reply.tensors[0];
  const Tensor& entropy = reply.tensors[1];
  const std::int64_t rows = f.request.dim(0);
  TEAMNET_CHECK_MSG(probs.rank() == 2 && probs.dim(0) == rows &&
                        probs.dim(1) == q.classes && entropy.rank() == 1 &&
                        entropy.dim(0) == rows,
                    "worker " << w + 1 << " answered " << rows
                              << " rows with probs "
                              << shape_to_string(probs.shape()) << ", entropy "
                              << shape_to_string(entropy.shape()));
  f.answered = true;
  f.pending = false;
  ++q.answers;
  f.probs = std::move(reply.tensors[0]);
  f.entropy = std::move(reply.tensors[1]);
  if (q.timeline) {
    const auto lane = static_cast<int>(w);
    if (auto wire = (from_backup ? backups_[w] : workers_[w])
                        ->last_recv_timing()) {
      // Where the reply waited: for the medium, then on the air.
      obs::qtl_worker_mark(q.qid, lane, obs::WorkerMark::reply_on_air,
                           wire->on_air);
      obs::qtl_worker_mark(q.qid, lane, obs::WorkerMark::reply_landed,
                           wire->landed);
    }
    obs::qtl_worker_mark(q.qid, lane, obs::WorkerMark::reply_recv, now());
  }
  if (from_backup) {
    ++hedge_wins_;
    bump("hedge_wins_total");
    obs::trace_instant("hedge_won", [&] {
      return obs::TraceArgs()
          .arg("worker", static_cast<std::int64_t>(w) + 1)
          .arg("qid", q.qid);
    });
  } else {
    // Only primary replies time the worker: a backup's latency says
    // nothing about the primary the next hedge delay is waiting on.
    WorkerSlot& slot = slots_[w];
    const double latency_s = now() - q.t_sent;
    if (slot.has_latency) {
      slot.latency_ewma_s += kLatencyAlpha * (latency_s - slot.latency_ewma_s);
    } else {
      slot.latency_ewma_s = latency_s;
      slot.has_latency = true;
    }
  }
  return &q;
}

void MasterCore::lost(std::size_t w, bool from_backup, const Error& e) {
  Flight& f = current().flights[w];
  if (from_backup) {
    LOG_WARN("worker " << w + 1 << "'s backup failed on recv: " << e.what());
    f.backup_out = 0;
    return;
  }
  f.primary_out = false;
  if (f.pending) {  // never fail a worker whose backup answered
    f.pending = false;
    fail(w, std::string("failed on recv: ") + e.what());
  }
}

void MasterCore::hedge_to(std::size_t w) {
  Query& q = current();
  try {
    backups_[w]->send(request_frame(q.flights[w].request, /*hedged=*/true));
  } catch (const Error& e) {
    LOG_WARN("hedge to worker " << w + 1 << "'s backup failed on send: "
                                << e.what());
    return;
  }
  ++q.flights[w].backup_out;
  ++hedges_sent_;
  bump("hedges_total");
  obs::trace_instant("hedge_dispatch", [&] {
    return obs::TraceArgs()
        .arg("worker", static_cast<std::int64_t>(w) + 1)
        .arg("qid", q.qid);
  });
}

void MasterCore::fire_hedge(int round) {
  const std::vector<Flight>& flights = current().flights;
  if (round == 1) {
    // First round: cover only the slowest still-outstanding worker (by
    // latency EWMA; lowest index breaks ties deterministically) with its
    // backup — the classic single tail hedge.
    std::size_t target = workers_.size();
    double slowest = -1.0;
    for (std::size_t w = 0; w < backups_.size(); ++w) {
      if (!flights[w].pending || backups_[w] == nullptr) continue;
      const double expect = expected_latency_s(static_cast<int>(w));
      if (expect > slowest) {
        slowest = expect;
        target = w;
      }
    }
    if (target < workers_.size()) hedge_to(target);
    return;
  }
  // Escalation rounds: the first hedge did not close the gather within
  // another interval, so the query is in the drop-loss tail — re-issue to
  // EVERY pending worker's backup, previous in-flight hedges included (a
  // lost hedge is indistinguishable from a slow one; retrying is what
  // bounds p99 under message loss, DESIGN.md §13).
  for (std::size_t w = 0; w < backups_.size(); ++w) {
    if (flights[w].pending && backups_[w] != nullptr) hedge_to(w);
  }
}

// Under discrete_event a zero-budget receive blocks until quiescence and
// charges nothing, so the round-robin drain behaves like an ideal
// deterministic select over the outstanding channels; the bounded
// no-progress wait at the bottom paces the loop (and burns deadline
// budget, virtual time included) when every outstanding source is silent.
int MasterCore::gather(std::int64_t classes) {
  Query& q = current();
  q.classes = classes;
  std::vector<Flight>& flights = q.flights;
  obs::TraceSpan span("gather", [&] {
    return obs::TraceArgs().arg("qid", q.qid);
  });

  bool can_hedge = false;
  for (std::size_t w = 0; w < backups_.size(); ++w) {
    if (flights[w].pending && backups_[w] != nullptr) can_hedge = true;
  }
  int hedge_round = 0;
  double hedge_at = std::numeric_limits<double>::infinity();
  double hedge_interval = 0.0;
  if (can_hedge) {
    // Adaptive hedge delay: kHedgeLatencyFactor times the slowest
    // outstanding worker's expected latency, floored at kHedgeMinDelayS.
    // The same interval paces the later escalation rounds.
    double slowest = 0.0;
    for (std::size_t w = 0; w < backups_.size(); ++w) {
      if (!flights[w].pending || backups_[w] == nullptr) continue;
      slowest = std::max(slowest, expected_latency_s(static_cast<int>(w)));
    }
    hedge_interval =
        std::max(kHedgeMinDelayS, kHedgeLatencyFactor * slowest);
    hedge_at = q.t_sent + hedge_interval;
  }

  // Reads one source until it runs dry or its request settles.
  auto drain = [&](std::size_t w, bool backup) {
    Flight& f = flights[w];
    bool progress = false;
    try {
      while (backup ? f.backup_out > 0 : f.primary_out) {
        auto raw = (backup ? backups_[w] : workers_[w])->recv_timeout(0.0);
        if (!raw) break;
        progress = true;
        accept(*raw, w, backup);
      }
    } catch (const Error& e) {
      lost(w, backup, e);
    }
    return progress;
  };

  while (q.answers < q.target) {
    // A backup can still produce a fresh ANSWER only while its worker is
    // unanswered; once answered it is drained purely for duplicate
    // reconciliation and must not keep the loop alive.
    bool any_pending = false;
    for (const auto& f : flights) {
      if (f.pending || (f.backup_out > 0 && !f.answered)) any_pending = true;
    }
    if (!any_pending) break;  // every source answered, failed or errored
    if (expired(q)) {
      for (std::size_t w = 0; w < workers_.size(); ++w) {
        flights[w].backup_out = 0;
        if (!flights[w].pending) continue;
        flights[w].pending = false;
        fail(w, "missed the gather deadline");
      }
      break;
    }
    // One zero-budget drain pass over every outstanding source — answered
    // workers' counterparts included, so same-query duplicates are
    // reconciled here rather than going stale next query.
    bool progress = false;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      progress |= drain(w, false);
    }
    for (std::size_t w = 0; w < backups_.size(); ++w) {
      progress |= drain(w, true);
    }
    if (q.answers >= q.target) break;
    if (can_hedge && now() >= hedge_at) {
      fire_hedge(++hedge_round);
      hedge_at += hedge_interval;  // pace the next escalation round
      progress = true;  // a hedged reply may land on the next pass
    }
    if (progress) continue;
    // Nothing moved: block briefly on ONE outstanding source so the wait
    // burns deadline budget (virtual time under simulation) instead of
    // spinning, bounded by the deadline and the pending hedge fire time.
    double wait = worker_timeout_s_ > 0.0 ? worker_timeout_s_ / 8 : 0.005;
    wait = std::min(wait, q.expiry - now());
    if (can_hedge) wait = std::min(wait, hedge_at - now());
    wait = std::max(wait, 1e-6);
    std::size_t source = workers_.size();
    bool backup = false;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (flights[w].pending) {
        source = w;
        break;
      }
    }
    if (source == workers_.size()) {
      for (std::size_t w = 0; w < workers_.size(); ++w) {
        if (flights[w].backup_out > 0 && !flights[w].answered) {
          source = w;
          backup = true;
          break;
        }
      }
    }
    if (source == workers_.size()) continue;
    try {
      if (auto raw = (backup ? backups_[source] : workers_[source])
                         ->recv_timeout(wait)) {
        accept(*raw, source, backup);
      }
    } catch (const Error& e) {
      lost(source, backup, e);
    }
  }
  mark(q, obs::QueryPhase::gather_end);
  return q.answers;
}

void MasterCore::shutdown() {
  Message msg;
  msg.type = MsgType::Shutdown;
  const std::string encoded = msg.encode();
  auto send_to = [&](Channel* channel, const char* role, std::size_t i) {
    try {
      channel->send(encoded);
    } catch (const Error& e) {
      LOG_WARN(role << " " << i + 1 << " failed on shutdown: " << e.what());
    }
  };
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!slots_[w].failed) send_to(workers_[w], "worker", w);
  }
  // Backup replicas (hedged dispatch) get the same Shutdown so their
  // serving loops exit too.
  for (std::size_t b = 0; b < backups_.size(); ++b) {
    if (backups_[b] != nullptr) send_to(backups_[b], "backup", b);
  }
  // Close every channel — failed workers included — so a thread wedged in
  // recv unblocks (NetworkError) and can be joined instead of leaking.
  // Queued messages (the Shutdown just sent) stay readable until drained.
  auto close = [](Channel* channel, const char* role, std::size_t i) {
    try {
      channel->close();
    } catch (const Error& e) {
      LOG_WARN(role << " " << i + 1 << " failed on close: " << e.what());
    }
  };
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    close(workers_[w], "worker", w);
  }
  for (std::size_t b = 0; b < backups_.size(); ++b) {
    if (backups_[b] != nullptr) close(backups_[b], "backup", b);
  }
}

}  // namespace teamnet::net
