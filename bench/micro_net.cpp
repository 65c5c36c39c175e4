// Microbenchmarks for the networking layer: message encode/decode, in-proc
// and loopback TCP round trips, collective primitives, and weight
// serialization — the real byte-shuffling costs behind the simulated links —
// plus what the protocol's trace and timeline sites cost while tracing is
// off.
#include <benchmark/benchmark.h>

#include "micro_common.hpp"

#include <thread>

#include "data/synthetic_mnist.hpp"
#include "mpi/communicator.hpp"
#include "net/message.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "obs/critpath.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace teamnet {
namespace {

// One Infer over range(0) floats, range(1) per mille of them +0.0 at
// seeded positions, encoded and decoded in the coding its wire uses: raw
// floats when dense, compact when sparse (the airtime-first wire).
void BM_MessageEncodeDecode(benchmark::State& state) {
  Rng rng(1);
  net::Message msg;
  msg.type = net::MsgType::Infer;
  msg.tensors = {Tensor::randn({state.range(0)}, rng)};
  const float zero_share = static_cast<float>(state.range(1)) / 1000.0f;
  for (float& v : msg.tensors[0].values()) {
    if (rng.uniform() < zero_share) v = 0.0f;
  }
  const auto coding =
      zero_share > 0.0f ? net::TensorCoding::compact : net::TensorCoding::dense;
  for (auto _ : state) {
    net::Message back = net::Message::decode(msg.encode(coding));
    benchmark::DoNotOptimize(back.tensors.data());
  }
  state.SetBytesProcessed(state.iterations() * msg.encoded_size(coding));
}
// 325 per mille: the share of exact zeros in the quick MNIST test set.
BENCHMARK(BM_MessageEncodeDecode)
    ->Args({784, 0})
    ->Args({16384, 0})
    ->Args({784, 325});

// One Infer carrying a rendered quick-MNIST digit ([1, 784], the
// synthetic MNIST defaults), encoded and decoded dense (range(0) = 0) or
// compact (1): the pixels, zeros and top bytes the fleet wire's compact
// Infers carry, where the rows above time seeded randn values.
void BM_MessageEncodeDecodeDigit(benchmark::State& state) {
  Rng rng(1);
  const data::MnistConfig mnist;
  net::Message msg;
  msg.type = net::MsgType::Infer;
  msg.tensors = {data::render_digit(3, mnist.image_size, rng,
                                    mnist.noise_stddev, mnist.max_jitter)
                     .reshape({1, mnist.image_size * mnist.image_size})};
  const auto coding =
      state.range(0) != 0 ? net::TensorCoding::compact : net::TensorCoding::dense;
  for (auto _ : state) {
    net::Message back = net::Message::decode(msg.encode(coding));
    benchmark::DoNotOptimize(back.tensors.data());
  }
  state.SetBytesProcessed(state.iterations() * msg.encoded_size(coding));
}
BENCHMARK(BM_MessageEncodeDecodeDigit)->Arg(0)->Arg(1);

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

// The same echo over a loopback TCP pair: framing, the socket calls, and
// each read's spin-then-sleep wait. 3,256 B is tcp_cnn_k2's bytes per
// query (one Infer and one Result).
void BM_TcpRoundTrip(benchmark::State& state) {
  net::TcpListener listener(0);
  auto a = net::tcp_connect("127.0.0.1", listener.port());
  auto b = listener.accept();
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
BENCHMARK(BM_TcpRoundTrip)->Arg(64)->Arg(3256);

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

// One k=4 query's timeline, recorded and attributed: the master's marks
// and three fully marked worker lanes go through the TimelineRecorder,
// then take() and attribute(), as the load driver runs them per query.
void BM_AttributeQuery(benchmark::State& state) {
  constexpr int kWorkers = 3;
  auto& recorder = obs::TimelineRecorder::instance();
  std::vector<std::int64_t> slack;
  for (auto _ : state) {
    recorder.start(kWorkers);
    recorder.note_arrival(0.0);
    recorder.mark(1, obs::QueryPhase::dispatch, 0.001);
    recorder.mark(1, obs::QueryPhase::broadcast_end, 0.0011);
    recorder.mark(1, obs::QueryPhase::local_compute_end, 0.0012);
    // Later lanes read later: worker 2 releases the gather, 0 and 1 are
    // stragglers.
    double t = 0.0012;
    for (int w = 0; w < kWorkers; ++w) {
      for (int m = 0; m < obs::kNumWorkerMarks; ++m) {
        recorder.mark_worker(1, w, static_cast<obs::WorkerMark>(m),
                             t += 1e-4);
      }
    }
    recorder.mark(1, obs::QueryPhase::gather_end, t += 1e-4);
    recorder.mark(1, obs::QueryPhase::complete, t + 1e-4);
    recorder.stop();
    const std::vector<obs::QueryTimeline> timelines = recorder.take();
    slack.clear();
    benchmark::DoNotOptimize(obs::attribute(timelines[0], slack));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttributeQuery);

}  // namespace
}  // namespace teamnet

int main(int argc, char** argv) {
  return teamnet::bench::micro_main(argc, argv);
}
