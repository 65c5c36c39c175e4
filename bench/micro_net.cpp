// Microbenchmarks for the networking layer: message encode/decode, in-proc
// channel round trips, collective primitives, and weight serialization —
// the real byte-shuffling costs behind the simulated links — plus what the
// protocol's trace and timeline sites cost while tracing is off.
#include <benchmark/benchmark.h>

#include "micro_common.hpp"

#include <thread>

#include "mpi/communicator.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace teamnet {
namespace {

void BM_MessageEncodeDecode(benchmark::State& state) {
  Rng rng(1);
  net::Message msg;
  msg.type = net::MsgType::Infer;
  msg.tensors = {Tensor::randn({state.range(0)}, rng)};
  for (auto _ : state) {
    net::Message back = net::Message::decode(msg.encode());
    benchmark::DoNotOptimize(back.tensors.data());
  }
  state.SetBytesProcessed(state.iterations() * msg.encoded_size());
}
BENCHMARK(BM_MessageEncodeDecode)->Arg(784)->Arg(16384);

void BM_InprocRoundTrip(benchmark::State& state) {
  auto [a, b] = net::make_inproc_pair();
  std::thread echo([&b] {
    for (;;) {
      std::string m = b->recv();
      if (m == "quit") return;
      b->send(std::move(m));
    }
  });
  std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    a->send(payload);
    benchmark::DoNotOptimize(a->recv().size());
  }
  a->send("quit");
  echo.join();
}
BENCHMARK(BM_InprocRoundTrip)->Arg(64)->Arg(4096);

void BM_ParameterSerialization(benchmark::State& state) {
  Rng rng(2);
  nn::MlpConfig cfg;
  cfg.depth = 4;
  cfg.hidden = static_cast<std::int64_t>(state.range(0));
  nn::MlpNet model(cfg, rng);
  for (auto _ : state) {
    std::string bytes = nn::serialize_parameters(model);
    benchmark::DoNotOptimize(bytes.size());
  }
  state.SetBytesProcessed(state.iterations() * model.parameter_bytes());
}
BENCHMARK(BM_ParameterSerialization)->Arg(64)->Arg(256);

void BM_Allreduce(benchmark::State& state) {
  // The peer rank is DRIVEN by a control channel so both sides execute
  // exactly the same number of collectives (a free-running peer loop races
  // the shutdown flag and can strand the final allreduce without a
  // partner).
  const int world = 2;
  std::vector<std::vector<net::ChannelPtr>> mesh(world);
  for (auto& row : mesh) row.resize(world);
  auto [c01, c10] = net::make_inproc_pair();
  mesh[0][1] = std::move(c01);
  mesh[1][0] = std::move(c10);
  auto [ctl_main, ctl_peer] = net::make_inproc_pair();

  std::thread peer([&] {
    mpi::Communicator comm(1, {mesh[1][0].get(), nullptr});
    Rng rng(3);
    Tensor t = Tensor::randn({static_cast<std::int64_t>(1024)}, rng);
    for (;;) {
      if (ctl_peer->recv() == "quit") return;
      comm.allreduce_sum(t);
    }
  });

  mpi::Communicator comm(0, {nullptr, mesh[0][1].get()});
  Rng rng(4);
  Tensor t = Tensor::randn({static_cast<std::int64_t>(1024)}, rng);
  for (auto _ : state) {
    ctl_main->send("go");
    Tensor s = comm.allreduce_sum(t);
    benchmark::DoNotOptimize(s.data());
  }
  ctl_main->send("quit");
  peer.join();
}
BENCHMARK(BM_Allreduce);

// Disabled instrumentation: nothing in this binary turns the tracer or the
// timeline recorder on, so each site below takes its "off" branch. Compare
// both rows against BM_EmptyLoop, the bare loop they run in.
void BM_EmptyLoop(benchmark::State& state) {
  std::int64_t qid = 0;
  for (auto _ : state) benchmark::DoNotOptimize(++qid);
}
BENCHMARK(BM_EmptyLoop);

// A protocol trace site: the args lambda must never run while off.
void BM_TraceInstantDisabled(benchmark::State& state) {
  std::int64_t qid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(++qid);
    obs::trace_instant("hedge_dispatch", [&] {
      return obs::TraceArgs().arg("worker", std::int64_t{1}).arg("qid", qid);
    });
  }
}
BENCHMARK(BM_TraceInstantDisabled);

// A per-worker timeline mark, gated the way MasterCore gates it.
void BM_QtlWorkerMarkDisabled(benchmark::State& state) {
  std::int64_t qid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(++qid);
    if (obs::qtl_active()) {
      obs::qtl_worker_mark(qid, 0, obs::WorkerMark::sent, 0.0);
    }
  }
}
BENCHMARK(BM_QtlWorkerMarkDisabled);

}  // namespace
}  // namespace teamnet

int main(int argc, char** argv) {
  return teamnet::bench::micro_main(argc, argv);
}
