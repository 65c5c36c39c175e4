// Distributed SG-MoE inference (§VI-A): each expert runs on its own edge
// node; the gate sits on node 0 alongside expert 0. For every query the
// master evaluates the gate, routes each row to its top-1 expert's node
// (one request/response round trip per routed expert — or a local call
// for expert 0), and returns the routed experts' predictions.
//
// Workers reuse net::CollaborativeWorker — the Infer/Result protocol is the
// same. Dispatch, query ids, the shared deadline and the gather are
// net::MasterCore's (net/master_core.hpp); MoeMaster keeps only the gate
// routing, the row split (each routed expert's rows are one group send of
// one) and the row placement. Its gather waits for every asked expert and
// its contract is strict: a routed expert's answer IS the answer, so a
// miss, a send or receive error, or a malformed reply throws NetworkError
// — there is no degraded mode, and no later expert is asked.
#pragma once

#include <vector>

#include "moe/sg_moe.hpp"
#include "net/master_core.hpp"

namespace teamnet::moe {

class MoeMaster : private net::MasterCore {
 public:
  /// `workers[i]` serves expert i+1; expert 0 runs locally on the master.
  MoeMaster(SgMoe& model, std::vector<net::Channel*> workers);

  struct Result {
    Tensor probs;
    std::vector<int> predictions;
    std::vector<int> routed;  ///< expert chosen per sample
  };

  /// Routes and answers a batch ([n >= 1, ...]).
  Result infer(const Tensor& x);

  using MasterCore::set_compute_hook;
  using MasterCore::set_flow_trace;
  using MasterCore::set_worker_timeout;
  using MasterCore::shutdown;

 private:
  /// infer() for the query `q`, begun on `x`.
  Result serve(Query& q, const Tensor& x);

  SgMoe& model_;
};

}  // namespace teamnet::moe
