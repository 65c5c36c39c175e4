#include "mpi/decentralized.hpp"

#include "core/entropy.hpp"
#include "tensor/ops.hpp"

namespace teamnet::mpi {

DecentralizedResult decentralized_infer(Communicator& comm,
                                        nn::Module& local_expert,
                                        const Tensor& x,
                                        const net::ComputeHook& on_compute) {
  TEAMNET_CHECK(x.rank() >= 2);
  const std::int64_t n = x.dim(0);
  const int world = comm.size();

  if (on_compute) on_compute(net::batch_flops(local_expert, x));
  Tensor probs = ops::softmax_rows(local_expert.predict(x));
  Tensor entropy = core::predictive_entropy(probs);
  const auto local_predictions = ops::argmax_rows(probs);

  // Compact summary: one (class, entropy) pair per sample.
  Tensor summary({n, 2});
  for (std::int64_t r = 0; r < n; ++r) {
    summary[r * 2] = static_cast<float>(
        local_predictions[static_cast<std::size_t>(r)]);
    summary[r * 2 + 1] = entropy[r];
  }
  const std::vector<Tensor> all = comm.allgather(summary);

  DecentralizedResult result;
  result.predictions.resize(static_cast<std::size_t>(n));
  result.winner.resize(static_cast<std::size_t>(n));
  result.entropy = Tensor({n, world});
  for (std::int64_t r = 0; r < n; ++r) {
    int best_rank = 0;
    float best_entropy = all[0][r * 2 + 1];
    for (int rank = 0; rank < world; ++rank) {
      const float h = all[static_cast<std::size_t>(rank)][r * 2 + 1];
      result.entropy[r * world + rank] = h;
      if (h < best_entropy) {
        best_entropy = h;
        best_rank = rank;
      }
    }
    result.winner[static_cast<std::size_t>(r)] = best_rank;
    result.predictions[static_cast<std::size_t>(r)] = static_cast<int>(
        all[static_cast<std::size_t>(best_rank)][r * 2]);
  }
  return result;
}

}  // namespace teamnet::mpi
