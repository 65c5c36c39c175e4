// The paper's MPI baselines: model-parallel inference of a single model
// split across edge nodes (§VI-A).
//
//   MPI-Matrix — each Linear layer's weight matrix is row-partitioned; every
//     rank computes a partial product and an allreduce combines them. One
//     collective per layer -> the per-layer WiFi chatter that makes this
//     baseline 1-2 orders of magnitude slower than TeamNet (Table I).
//   MPI-Kernel — each Conv layer's output channels are partitioned; an
//     allgather reassembles the feature map after every conv (Table II).
//   MPI-Branch — the two Shake-Shake branches run on two ranks; feature
//     maps are exchanged once per residual block (Table II, 2 nodes only).
//
// All executors perform REAL distributed computation: every rank computes
// only its slice from the shared model parameters. MPI-Kernel and
// MPI-Branch are bit-identical to single-node inference; MPI-Matrix agrees
// within 1e-4, because the allreduce sums the partial products in a
// different order (all verified in tests). The optional compute hook
// reports each rank's FLOP share to the simulator.
#pragma once

#include "mpi/communicator.hpp"
#include "net/collab.hpp"
#include "nn/mlp.hpp"
#include "nn/shake_shake.hpp"

namespace teamnet::mpi {

using net::ComputeHook;

/// Row-partitioned Linear: rank r computes x[:, rows_r] @ W[rows_r, :];
/// partials are allreduce-summed and the bias added everywhere.
Tensor distributed_linear(const Tensor& x, nn::Linear& layer,
                          Communicator& comm, const ComputeHook& on_compute);

/// Output-channel-partitioned Conv2d: rank r computes channels [c0_r, c1_r)
/// with conv2d_forward over its weight columns; slices are allgathered and
/// concatenated.
Tensor distributed_conv(const Tensor& x, nn::Conv2d& layer, Communicator& comm,
                        const ComputeHook& on_compute);

/// Runs a Sequential with Linear/Conv2d layers distributed and everything
/// else (activations, batch-norm, pooling) computed locally on every rank.
Tensor run_sequential_partitioned(nn::Sequential& seq, const Tensor& x,
                                  Communicator& comm,
                                  const ComputeHook& on_compute,
                                  bool partition_linear, bool partition_conv);

/// MPI-Matrix over the MLP family. All ranks call infer with the same input
/// and all obtain the full logits.
class MpiMatrixMlp {
 public:
  MpiMatrixMlp(nn::MlpNet& model, Communicator& comm,
               ComputeHook on_compute = {});
  Tensor infer(const Tensor& x);

 private:
  nn::MlpNet& model_;
  Communicator& comm_;
  ComputeHook on_compute_;
};

/// MPI-Kernel over the Shake-Shake family.
class MpiKernelShakeShake {
 public:
  MpiKernelShakeShake(nn::ShakeShakeNet& model, Communicator& comm,
                      ComputeHook on_compute = {});
  Tensor infer(const Tensor& x);

 private:
  nn::ShakeShakeNet& model_;
  Communicator& comm_;
  ComputeHook on_compute_;
};

/// MPI-Branch over the Shake-Shake family; requires exactly 2 ranks.
/// Rank 0 owns stem/skip/combine/head and branch 0; rank 1 owns branch 1.
class MpiBranchShakeShake {
 public:
  MpiBranchShakeShake(nn::ShakeShakeNet& model, Communicator& comm,
                      ComputeHook on_compute = {});
  /// Returns the full logits on both ranks.
  Tensor infer(const Tensor& x);

 private:
  nn::ShakeShakeNet& model_;
  Communicator& comm_;
  ComputeHook on_compute_;
};

}  // namespace teamnet::mpi
