#include "net/collab.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "core/entropy.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace teamnet::net {

namespace {

/// Registry bump for rare protocol events — off the per-sample hot path,
/// so the name lookup is fine.
void increment(const char* name) {
  obs::MetricsRegistry::instance().counter(name).increment();
}

/// Local expert evaluation: probabilities + per-sample entropy.
std::pair<Tensor, Tensor> evaluate(nn::Module& expert, const Tensor& x) {
  Tensor probs = ops::softmax_rows(expert.predict(x));
  Tensor entropy = core::predictive_entropy(probs);
  return {std::move(probs), std::move(entropy)};
}

}  // namespace

CollaborativeWorker::CollaborativeWorker(nn::Module& expert, Channel& channel)
    : expert_(expert), channel_(channel) {
  expert_.set_training(false);
}

void CollaborativeWorker::set_trace_node(int node) {
  TEAMNET_CHECK_MSG(node >= 1, "worker trace node must be >= 1");
  trace_node_ = node;
}

// analyze:hot  (per-query path: hot-path allocation audit root)
void CollaborativeWorker::serve() {
  for (;;) {
    // Worker side: blocking on the master is the serving contract; the
    // deadline discipline (analyzer rule unbounded-wait, which baselines
    // this call) exists for master-side gathers, where one slow peer must
    // not starve the rest.
    std::string raw = channel_.recv();
    Message request;
    try {
      request = Message::decode(raw);
    } catch (const SerializationError& e) {
      LOG_WARN("worker: dropping malformed frame (" << e.what() << ")");
      continue;
    }
    if (request.type == MsgType::Shutdown) return;
    if (request.type == MsgType::Ping) {
      Message pong;
      pong.type = MsgType::Pong;
      pong.ints = request.ints;  // echo the probe id
      channel_.send(pong.encode());
      ++pongs_;
      continue;
    }
    if (request.type != MsgType::Infer || request.tensors.size() != 1) {
      LOG_WARN("worker: dropping unexpected message type "
               << static_cast<int>(request.type));
      continue;
    }
    const InferInfo info = infer_info(request);
    // Hedged requests answer under the primary worker's identity, so only
    // the primary replica publishes marks/flows for a query (DESIGN.md
    // §15) — a backup doing the same would double-book the lane.
    const bool marked = trace_node_ >= 1 && !info.hedged && obs::qtl_active();
    if (marked) {
      obs::trace_flow_finish("infer", obs::flow_id(info.qid, trace_node_, 0));
      if (auto wire = channel_.last_recv_timing()) {
        // Where the request waited: for the medium, then on the air.
        obs::qtl_worker_mark(info.qid, trace_node_ - 1,
                             obs::WorkerMark::request_on_air, wire->on_air);
        obs::qtl_worker_mark(info.qid, trace_node_ - 1,
                             obs::WorkerMark::request_landed, wire->landed);
      }
      obs::qtl_worker_mark(info.qid, trace_node_ - 1,
                           obs::WorkerMark::request_recv, channel_.now());
    }
    if (drop_expired_ && info.deadline_us != kNoDeadlineUs &&
        channel_.now() * 1e6 > static_cast<double>(info.deadline_us)) {
      // The propagated deadline already passed on this node's clock: the
      // master has stopped listening, so computing a reply could only feed
      // the stale-discard path. Drop the request instead (DESIGN.md §13).
      ++expired_dropped_;
      increment("worker.expired_dropped_total");
      obs::trace_instant("expired_request_dropped", [&] {
        return obs::TraceArgs().arg("qid", info.qid);
      });
      continue;
    }
    const Tensor& x = request.tensors[0];
    try {
      obs::TraceSpan span("expert_forward", [&] {
        return obs::TraceArgs().arg(
            "qid", request.ints.empty() ? std::int64_t{-1} : request.ints[0]);
      });
      // compute_begin BEFORE the compute hook: under simulation the hook
      // advances this node's virtual clock by the modeled compute time, so
      // the begin/end pair brackets exactly that interval.
      if (marked) {
        obs::qtl_worker_mark(info.qid, trace_node_ - 1,
                             obs::WorkerMark::compute_begin, channel_.now());
      }
      if (on_compute_) on_compute_(batch_flops(expert_, x));
      auto [probs, entropy] = evaluate(expert_, x);
      if (marked) {
        obs::qtl_worker_mark(info.qid, trace_node_ - 1,
                             obs::WorkerMark::compute_end, channel_.now());
      }
      Message reply;
      reply.type = MsgType::Result;
      reply.ints = request.ints;  // echo the query id
      reply.tensors = {std::move(probs), std::move(entropy)};
      channel_.send(reply.encode());
      if (marked) {
        obs::trace_flow_start("result", obs::flow_id(info.qid, trace_node_, 1));
        obs::qtl_worker_mark(info.qid, trace_node_ - 1,
                             obs::WorkerMark::reply_sent, channel_.now());
      }
      ++served_;
    } catch (const NetworkError&) {
      throw;  // broken channel: the serving loop cannot continue
    } catch (const Error& e) {
      // A corrupted frame can decode into an Infer the expert cannot run
      // (bad shapes); skip it — the master's deadline covers the answer.
      LOG_WARN("worker: dropping Infer it cannot evaluate (" << e.what()
                                                             << ")");
    }
  }
}

const char* to_string(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::full:
      return "full";
    case DegradationLevel::quorum:
      return "quorum";
    case DegradationLevel::local_only:
      return "local_only";
  }
  return "?";
}

CollaborativeMaster::CollaborativeMaster(nn::Module& local_expert,
                                         std::vector<Channel*> workers)
    : MasterCore(std::move(workers), "collab", /*strict=*/false),
      expert_(local_expert) {
  TEAMNET_CHECK_MSG(num_nodes() <= 64,
                    "Result::combined has one bit per node: at most 64");
  expert_.set_training(false);
}

// analyze:hot  (per-query path: hot-path allocation audit root)
CollaborativeMaster::Result CollaborativeMaster::infer(const Tensor& x) {
  Query& q = begin_query(x);
  const std::int64_t qid = q.qid;
  obs::TraceSpan query_span("query", [&] {
    return obs::TraceArgs().arg("qid", qid).arg("batch", x.dim(0));
  });
  try {
    dispatch(q, x);
    // Step 4: whatever answers arrive before the shared deadline.
    gather(q);
  } catch (...) {
    abandon(qid);
    throw;
  }
  return complete(qid);
}

std::int64_t CollaborativeMaster::submit(const Tensor& x) {
  Query& q = begin_query(x);
  dispatch(q, x);
  return q.qid;
}

void CollaborativeMaster::dispatch(Query& q, const Tensor& x) {
  // Step 2: broadcast the sensor data to every live worker through the
  // core's one group send — one group frame on the air when the transport
  // offers one (a multicast fleet on the simulated medium, faulty or not),
  // else one unicast per worker (TCP, the paper tables). Channel errors
  // mark the worker failed rather than aborting the query.
  const std::string frame = request_frame(q, x);
  {
    obs::TraceSpan span("broadcast", [&] {
      return obs::TraceArgs().arg("qid", q.qid).arg("bytes_per_worker",
                                                    frame.size());
    });
    broadcast(q, x, frame, 0, workers_.size());
  }
  end_dispatch(q);

  // Step 3 (local share): the master evaluates its own expert while the
  // workers evaluate theirs.
  q.local_probs = local_forward(q, expert_, x);
  q.local_entropy = core::predictive_entropy(q.local_probs);
  q.classes = q.local_probs.dim(1);
  mark(q, obs::QueryPhase::local_compute_end);
}

CollaborativeMaster::Result CollaborativeMaster::complete(std::int64_t qid) {
  Query& q = query(qid);
  const std::int64_t n = q.local_probs.dim(0);
  const std::int64_t c = q.classes;
  // Step 5: per sample, the least-uncertain answering node wins.
  obs::TraceSpan argmin_span("argmin", [&] {
    return obs::TraceArgs().arg("qid", qid).arg("answered", q.answers);
  });
  Result result;
  result.probs = Tensor({n, c});
  result.chosen.resize(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    int winner = 0;
    float best = q.local_entropy[r];
    const Tensor* src = &q.local_probs;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const Flight& f = q.flights[w];
      if (f.answered && f.entropy[r] < best) {
        best = f.entropy[r];
        winner = static_cast<int>(w) + 1;
        src = &f.probs;
      }
    }
    result.chosen[static_cast<std::size_t>(r)] = winner;
    std::copy(src->data() + r * c, src->data() + (r + 1) * c,
              result.probs.data() + r * c);
  }
  result.predictions = ops::argmax_rows(result.probs);
  result.answered = q.answers;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (q.flights[w].answered) result.combined |= std::uint64_t{1} << (w + 1);
  }
  // Degradation level is fleet-relative (DESIGN.md §13): `full` means every
  // expert contributed — a worker skipped at broadcast (probation)
  // degrades the query exactly like one that missed the deadline.
  if (result.answered == num_nodes() || workers_.empty()) {
    result.degradation = DegradationLevel::full;
    ++full_gathers_;
    increment("collab.degradation_full_total");
  } else if (result.answered == 1) {
    result.degradation = DegradationLevel::local_only;
    ++local_only_gathers_;
    increment("collab.degradation_local_only_total");
  } else {
    result.degradation = DegradationLevel::quorum;
    ++quorum_gathers_;
    increment("collab.degradation_quorum_total");
  }
  end_query(q, static_cast<int>(result.degradation));
  return result;
}

}  // namespace teamnet::net
