#include "mpi/partitioned.hpp"

#include <cstring>

#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"

namespace teamnet::mpi {

namespace {

/// Contiguous 1/size share of [0, total) for `rank` (remainder to the
/// leading ranks).
std::pair<std::int64_t, std::int64_t> share_of(std::int64_t total, int rank,
                                               int size) {
  const std::int64_t base = total / size;
  const std::int64_t extra = total % size;
  const std::int64_t lo =
      rank * base + std::min<std::int64_t>(rank, extra);
  const std::int64_t len = base + (rank < extra ? 1 : 0);
  return {lo, lo + len};
}

/// Columns [c0, c1) of a [m, n] matrix.
Tensor col_block(const Tensor& m, std::int64_t c0, std::int64_t c1) {
  TEAMNET_CHECK(m.rank() == 2 && c0 >= 0 && c0 <= c1 && c1 <= m.dim(1));
  Tensor out({m.dim(0), c1 - c0});
  for (std::int64_t r = 0; r < m.dim(0); ++r) {
    std::memcpy(out.data() + r * (c1 - c0), m.data() + r * m.dim(1) + c0,
                static_cast<std::size_t>(c1 - c0) * sizeof(float));
  }
  return out;
}

/// Rows [r0, r1) of a [m, n] matrix (view-free copy).
Tensor row_block(const Tensor& m, std::int64_t r0, std::int64_t r1) {
  TEAMNET_CHECK(m.rank() == 2 && r0 >= 0 && r0 <= r1 && r1 <= m.dim(0));
  Tensor out({r1 - r0, m.dim(1)});
  std::memcpy(out.data(), m.data() + r0 * m.dim(1),
              static_cast<std::size_t>(out.numel()) * sizeof(float));
  return out;
}

void charge(const ComputeHook& hook, std::int64_t flops) {
  if (hook) hook(flops);
}

/// Local eval-mode forward of an arbitrary module on a plain tensor, with
/// full FLOPs charged to this rank (duplicated work such as activations and
/// batch-norm that every rank performs on the full map).
Tensor local_forward(nn::Module& module, const Tensor& x,
                     const ComputeHook& hook) {
  charge(hook, net::batch_flops(module, x));
  return module.predict(x);
}

}  // namespace

Tensor distributed_linear(const Tensor& x, nn::Linear& layer,
                          Communicator& comm, const ComputeHook& on_compute) {
  TEAMNET_CHECK(x.rank() == 2 && x.dim(1) == layer.in_features());
  const auto [r0, r1] = share_of(layer.in_features(), comm.rank(), comm.size());

  // Partial product over this rank's row block of W.
  Tensor x_cols = col_block(x, r0, r1);
  Tensor w_rows = row_block(layer.weight().value(), r0, r1);
  charge(on_compute, 2 * x.dim(0) * (r1 - r0) * layer.out_features());
  Tensor partial = ops::matmul(x_cols, w_rows);

  // One allreduce per layer — the per-layer WiFi round trip.
  Tensor full = comm.allreduce_sum(partial);
  return ops::add(full, layer.bias().value());
}

Tensor distributed_conv(const Tensor& x, nn::Conv2d& layer, Communicator& comm,
                        const ComputeHook& on_compute) {
  TEAMNET_CHECK(x.rank() == 4 && x.dim(1) == layer.in_channels());
  const std::int64_t n = x.dim(0);
  const std::int64_t cout = layer.out_channels();
  const auto [c0, c1] = share_of(cout, comm.rank(), comm.size());
  const std::int64_t my_c = c1 - c0;

  // This rank's output channels through the conv forward itself (one GEMM
  // per image, bias included), so each channel's bits are the ones Conv2d's
  // own forward computes; the result is the NCHW slice [n, my_c, ho, wo].
  const std::int64_t kk = layer.in_channels() * layer.kernel() * layer.kernel();
  const std::int64_t ho =
      conv_out_dim(x.dim(2), layer.kernel(), layer.stride(), layer.pad());
  const std::int64_t wo =
      conv_out_dim(x.dim(3), layer.kernel(), layer.stride(), layer.pad());
  Tensor w_slice = col_block(layer.weight().value(), c0, c1);
  charge(on_compute, 2 * n * ho * wo * kk * my_c);
  Tensor slice = conv2d_forward(x, w_slice.data(), my_c,
                                {.bias = layer.bias().value().data() + c0},
                                layer.kernel(), layer.stride(), layer.pad());

  // Allgather the channel slices — the per-conv-layer WiFi exchange.
  std::vector<Tensor> slices = comm.allgather(slice);

  Tensor full({n, cout, ho, wo});
  for (int r = 0; r < comm.size(); ++r) {
    const auto [rc0, rc1] = share_of(cout, r, comm.size());
    const Tensor& s = slices[static_cast<std::size_t>(r)];
    TEAMNET_CHECK(s.dim(1) == rc1 - rc0);
    for (std::int64_t img = 0; img < n; ++img) {
      std::memcpy(full.data() + (img * cout + rc0) * ho * wo,
                  s.data() + img * (rc1 - rc0) * ho * wo,
                  static_cast<std::size_t>((rc1 - rc0) * ho * wo) *
                      sizeof(float));
    }
  }
  return full;
}

Tensor run_sequential_partitioned(nn::Sequential& seq, const Tensor& x,
                                  Communicator& comm,
                                  const ComputeHook& on_compute,
                                  bool partition_linear, bool partition_conv) {
  Tensor h = x;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    nn::Module& layer = seq.layer(i);
    if (auto* linear = dynamic_cast<nn::Linear*>(&layer);
        linear != nullptr && partition_linear) {
      h = distributed_linear(h, *linear, comm, on_compute);
    } else if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer);
               conv != nullptr && partition_conv) {
      h = distributed_conv(h, *conv, comm, on_compute);
    } else {
      h = local_forward(layer, h, on_compute);
    }
  }
  return h;
}

MpiMatrixMlp::MpiMatrixMlp(nn::MlpNet& model, Communicator& comm,
                           ComputeHook on_compute)
    : model_(model), comm_(comm), on_compute_(std::move(on_compute)) {
  // Eval mode is a caller responsibility: rank threads construct executors
  // concurrently, so the shared model must already be frozen.
  TEAMNET_CHECK_MSG(!model_.training(),
                    "partitioned executors need the model in eval mode");
}

Tensor MpiMatrixMlp::infer(const Tensor& x) {
  return run_sequential_partitioned(model_, x, comm_, on_compute_,
                                    /*partition_linear=*/true,
                                    /*partition_conv=*/false);
}

MpiKernelShakeShake::MpiKernelShakeShake(nn::ShakeShakeNet& model,
                                         Communicator& comm,
                                         ComputeHook on_compute)
    : model_(model), comm_(comm), on_compute_(std::move(on_compute)) {
  // Eval mode is a caller responsibility: rank threads construct executors
  // concurrently, so the shared model must already be frozen.
  TEAMNET_CHECK_MSG(!model_.training(),
                    "partitioned executors need the model in eval mode");
}

Tensor MpiKernelShakeShake::infer(const Tensor& x) {
  auto run = [&](nn::Sequential& seq, const Tensor& in) {
    return run_sequential_partitioned(seq, in, comm_, on_compute_,
                                      /*partition_linear=*/false,
                                      /*partition_conv=*/true);
  };
  Tensor h = run(model_.stem(), x);
  for (std::size_t i = 0; i < model_.num_blocks(); ++i) {
    nn::ShakeBlock& block = model_.block(i);
    Tensor b0 = run(block.branch_seq(0), h);
    Tensor b1 = run(block.branch_seq(1), h);
    Tensor skip = block.skip_seq() ? run(*block.skip_seq(), h) : h;
    // Eval-time combine (0.5/0.5 mix + residual + ReLU) on every rank.
    charge(on_compute_, 3 * b0.numel());
    h = nn::shake_tail(b0, b1, skip, 0.5f);
  }
  // The head (GAP + tiny Linear) is cheap; every rank runs it locally.
  for (std::size_t i = 0; i < model_.head().size(); ++i) {
    h = local_forward(model_.head().layer(i), h, on_compute_);
  }
  return h;
}

MpiBranchShakeShake::MpiBranchShakeShake(nn::ShakeShakeNet& model,
                                         Communicator& comm,
                                         ComputeHook on_compute)
    : model_(model), comm_(comm), on_compute_(std::move(on_compute)) {
  TEAMNET_CHECK_MSG(comm.size() == 2, "MPI-Branch needs exactly 2 ranks");
  TEAMNET_CHECK_MSG(!model_.training(),
                    "partitioned executors need the model in eval mode");
}

Tensor MpiBranchShakeShake::infer(const Tensor& x) {
  const int rank = comm_.rank();
  auto local = [&](nn::Sequential& seq, const Tensor& in) {
    Tensor h = in;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      h = local_forward(seq.layer(i), h, on_compute_);
    }
    return h;
  };

  Tensor h;
  if (rank == 0) {
    h = local(model_.stem(), x);
  }
  for (std::size_t i = 0; i < model_.num_blocks(); ++i) {
    nn::ShakeBlock& block = model_.block(i);
    // Rank 0 ships the current feature map; both branches then run in
    // parallel; rank 1 ships its branch output back — two transfers per
    // block (the per-block WiFi cost of Table II's MPI-Branch row).
    h = comm_.bcast(h, 0);
    if (rank == 0) {
      Tensor b0 = local(block.branch_seq(0), h);
      Tensor skip = block.skip_seq() ? local(*block.skip_seq(), h) : h;
      net::Message msg = comm_.recv(1);
      TEAMNET_CHECK(msg.type == net::MsgType::Result && msg.tensors.size() == 1);
      const Tensor& b1 = msg.tensors[0];
      charge(on_compute_, 3 * b0.numel());
      h = nn::shake_tail(b0, b1, skip, 0.5f);
    } else {
      Tensor b1 = local(block.branch_seq(1), h);
      net::Message msg;
      msg.type = net::MsgType::Result;
      msg.tensors = {std::move(b1)};
      comm_.send(0, msg);
    }
  }
  if (rank == 0) {
    h = local(model_.head(), h);
  }
  // Both ranks return the final logits.
  return comm_.bcast(h, 0);
}

}  // namespace teamnet::mpi
