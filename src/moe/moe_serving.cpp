#include "moe/moe_serving.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace teamnet::moe {

MoeMaster::MoeMaster(SgMoe& model, std::vector<net::Channel*> workers)
    : MasterCore(std::move(workers), "moe", /*strict=*/true), model_(model) {
  TEAMNET_CHECK_MSG(
      static_cast<int>(workers_.size()) == model.num_experts() - 1,
      "need one worker channel per remote expert");
}

// analyze:hot  (per-query path: hot-path allocation audit root)
MoeMaster::Result MoeMaster::infer(const Tensor& x) {
  Query& q = begin_query(x);
  const std::int64_t qid = q.qid;
  try {
    return serve(q, x);
  } catch (...) {
    abandon(qid);  // its late replies are stale
    throw;
  }
}

MoeMaster::Result MoeMaster::serve(Query& q, const Tensor& x) {
  const std::int64_t n = x.dim(0);
  obs::TraceSpan query_span("query", [&] {
    return obs::TraceArgs().arg("qid", q.qid).arg("batch", n);
  });

  // Gate evaluation on the master (tiny linear layer).
  Result result;
  {
    obs::TraceSpan span("route", [&] {
      return obs::TraceArgs().arg("qid", q.qid);
    });
    if (on_compute_) {
      on_compute_(2 * x.numel() / n * model_.num_experts() * n);
    }
    result.routed = model_.route(x);
  }

  // Group rows per expert; each remote group is one request.
  std::vector<std::vector<int>> groups(
      static_cast<std::size_t>(model_.num_experts()));
  for (std::int64_t r = 0; r < n; ++r) {
    groups[static_cast<std::size_t>(
               result.routed[static_cast<std::size_t>(r)])]
        .push_back(static_cast<int>(r));
  }

  // Dispatch remote requests first, each a group send of one, so the
  // remote nodes compute while the master handles its local group.
  {
    obs::TraceSpan span("dispatch", [&] {
      return obs::TraceArgs().arg("qid", q.qid);
    });
    for (std::size_t i = 1; i < groups.size(); ++i) {
      if (groups[i].empty()) continue;
      const Tensor rows = ops::take_rows(x, groups[i]);
      broadcast(q, rows, request_frame(q, rows), i - 1, i);
    }
  }
  end_dispatch(q);

  Shape sample_shape(x.shape().begin() + 1, x.shape().end());
  const std::int64_t c =
      model_.expert(0).analyze(sample_shape).output_shape.back();
  q.classes = c;
  result.probs = Tensor({n, c});
  auto place = [&](const std::vector<int>& rows, const Tensor& pi) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::copy(pi.data() + static_cast<std::int64_t>(r) * c,
                pi.data() + static_cast<std::int64_t>(r + 1) * c,
                result.probs.data() + rows[r] * c);
    }
  };
  if (!groups[0].empty()) {
    place(groups[0],
          local_forward(q, model_.expert(0), ops::take_rows(x, groups[0])));
  }
  mark(q, obs::QueryPhase::local_compute_end);

  gather(q);  // strict: throws unless every routed expert answered
  for (std::size_t i = 1; i < groups.size(); ++i) {
    if (!groups[i].empty()) place(groups[i], q.flights[i - 1].probs);
  }
  result.predictions = ops::argmax_rows(result.probs);
  end_query(q, 0);
  return result;
}

}  // namespace teamnet::moe
