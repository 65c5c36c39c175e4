#include "sim/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/annotations.hpp"
#include "core/teamnet.hpp"
#include "moe/moe_serving.hpp"
#include "mpi/decentralized.hpp"
#include "mpi/partitioned.hpp"
#include "net/collab.hpp"
#include "nn/loss.hpp"
#include "obs/percentile.hpp"
#include "obs/trace.hpp"
#include "sim/driver_util.hpp"

namespace teamnet::sim {

namespace {

double model_accuracy_pct(nn::Module& model, const data::Dataset& test) {
  model.set_training(false);
  return 100.0 * nn::accuracy(model.predict(test.images), test.labels);
}

}  // namespace

ScenarioResult run_baseline(nn::Module& model, const data::Dataset& test,
                            const ScenarioConfig& config) {
  model.set_training(false);
  const Shape sample_shape = test.sample_shape();
  const std::int64_t flops = model.analyze(sample_shape).flops;

  ScenarioResult result;
  result.approach = "Baseline(" + model.name() + ")";
  result.num_nodes = 1;
  result.latency_ms = 1e3 * config.device.compute_time(flops);
  result.accuracy_pct = model_accuracy_pct(model, test);
  result.usage = estimate_resources(
      config.device, model_working_set_bytes(model, sample_shape),
      /*busy_fraction=*/1.0);
  return result;
}

ScenarioResult run_teamnet(const std::vector<nn::Module*>& experts,
                           const data::Dataset& test,
                           const ScenarioConfig& config) {
  return run_teamnet_heterogeneous(
      experts,
      std::vector<DeviceProfile>(experts.size(), config.device), test,
      config);
}

ScenarioResult run_teamnet_heterogeneous(
    const std::vector<nn::Module*>& experts,
    const std::vector<DeviceProfile>& devices, const data::Dataset& test,
    const ScenarioConfig& config) {
  TEAMNET_CHECK(devices.size() == experts.size());
  Fleet fleet("teamnet", config,
              {.experts = experts,
               .devices = devices,
               .num_queries = config.num_queries});
  net::CollaborativeMaster master(*experts[0], fleet.worker_channels());
  fleet.attach(master);
  double total_latency = 0.0;
  for (int row : sample_query_rows(test, config.num_queries, config.seed)) {
    const double t0 = fleet.now();
    master.infer(query_row_tensor(test, row));
    total_latency += fleet.now() - t0;
  }
  fleet.finish(master);
  ScenarioResult result =
      fleet.result("TeamNet", total_latency, test.sample_shape());
  result.accuracy_pct =
      100.0 * static_cast<double>(core::count_correct(experts, test)) /
      static_cast<double>(test.size());
  return result;
}

ResilienceResult run_teamnet_resilience(const std::vector<nn::Module*>& experts,
                                        const data::Dataset& test,
                                        const ScenarioConfig& config,
                                        const ResilienceConfig& res) {
  const int k = static_cast<int>(experts.size());
  TEAMNET_CHECK_MSG(res.partition_worker < k - 1,
                    "partition_worker must name a worker (0-based, < "
                    "num_workers)");
  Fleet fleet("teamnet-resilience", config,
              {.experts = experts,
               .num_queries = config.num_queries,
               .faults = &res.faults,
               .backups = res.hedging,
               .drop_expired = res.drop_expired});
  net::CollaborativeMaster master(*experts[0], fleet.worker_channels());
  fleet.attach(master);
  master.set_worker_timeout(res.worker_timeout_s);
  master.set_probe_interval(res.probe_interval);
  master.set_gather_quorum(res.quorum);
  if (res.hedging) master.set_hedging(fleet.backup_channels());
  if (res.test_pre_qid_gather) master.set_test_pre_qid_gather(true);

  const auto rows = sample_query_rows(test, config.num_queries, config.seed);
  ResilienceResult result;
  double total_latency = 0.0;
  std::size_t n_correct = 0;
  for (std::size_t q = 0; q < rows.size(); ++q) {
    if (res.partition_worker >= 0) {
      auto& link = *fleet.links()[static_cast<std::size_t>(
          res.partition_worker)];
      const int qi = static_cast<int>(q);
      if (qi == res.partition_from_query) link.set_partition(true, true);
      if (qi == res.heal_at_query) link.set_partition(false, false);
    }
    const double t0 = fleet.now();
    auto r = master.infer(query_row_tensor(test, rows[q]));
    const double latency_s = fleet.now() - t0;
    total_latency += latency_s;
    result.latency_ms.push_back(1e3 * latency_s);
    result.degradation.push_back(static_cast<int>(r.degradation));
    const bool ok =
        r.predictions[0] == test.labels[static_cast<std::size_t>(rows[q])];
    if (ok) ++n_correct;
    result.correct.push_back(ok ? 1 : 0);
    result.live_nodes.push_back(k - master.failed_workers());
  }
  fleet.finish(master);

  result.scenario =
      fleet.result("TeamNet-Resilience", total_latency, test.sample_shape());
  result.scenario.accuracy_pct = 100.0 * static_cast<double>(n_correct) /
                                 static_cast<double>(rows.size());
  result.p50_ms = obs::nearest_rank_percentile(result.latency_ms, 50.0);
  result.p99_ms = obs::nearest_rank_percentile(result.latency_ms, 99.0);
  result.max_ms = obs::nearest_rank_percentile(result.latency_ms, 100.0);
  result.full_gathers = master.full_gathers();
  result.quorum_gathers = master.quorum_gathers();
  result.local_only_gathers = master.local_only_gathers();
  result.hedges_sent = master.hedges_sent();
  result.hedge_wins = master.hedge_wins();
  result.hedge_duplicates = master.hedge_duplicates();
  result.rejoins = master.rejoins();
  result.stale_replies = master.stale_replies_discarded();
  for (const auto& w : fleet.workers()) {
    result.expired_drops += w->expired_dropped();
  }
  for (std::size_t i = 0; i < fleet.links().size(); ++i) {
    const auto& link = *fleet.links()[i];
    result.faults_injected += link.faults_injected();
    result.fault_schedule += "worker " + std::to_string(i + 1) + ":\n";
    result.fault_schedule += link.fault_schedule();
  }
  return result;
}

namespace {

/// Shared runner for the MPI-style drivers: spins `num_nodes` rank threads.
/// Each rank builds its executor once via `make_runner(comm, hook)` and
/// then, per query, receives the input bcast from rank 0 and runs it. A
/// query's latency runs on rank 0's clock, or, with `last_rank_latency`,
/// until the last rank finishes. Rank 0's usage charges it `rank0_bytes`
/// of working set. Accuracy is the caller's.
template <typename MakeRunner>
ScenarioResult run_mpi_generic(const std::string& approach, int num_nodes,
                               const data::Dataset& test,
                               const ScenarioConfig& config,
                               std::int64_t rank0_bytes,
                               bool last_rank_latency,
                               MakeRunner make_runner) {
  obs::Tracer::instance().begin_epoch(approach);
  auto net = make_driver_net(config, num_nodes, config.num_queries);

  const auto queries =
      sample_query_rows(test, config.num_queries, config.seed);
  std::atomic<double> rank0_compute{0.0};

  auto rank_main = [&](int rank) {
    std::vector<net::Channel*> peers(static_cast<std::size_t>(num_nodes),
                                     nullptr);
    for (int r = 0; r < num_nodes; ++r) {
      if (r != rank) {
        peers[static_cast<std::size_t>(r)] = &net->channel(rank, r);
      }
    }
    mpi::Communicator comm(rank, peers);
    net::ComputeHook hook = make_compute_hook(
        *net, rank, config.device, rank == 0 ? &rank0_compute : nullptr);
    auto run_query = make_runner(comm, hook);
    for (int row : queries) {
      Tensor x;
      if (rank == 0) x = query_row_tensor(test, row);
      x = comm.bcast(x.defined() ? x : Tensor({1}), 0);
      run_query(x);
    }
  };

  // A rank that throws records the first error and closes the mesh so the
  // surviving ranks (blocked in collectives) fail fast instead of
  // deadlocking; every thread is always joined before the error resurfaces.
  // Each rank retires on exit, error or not, so remaining ranks' deliveries
  // keep flowing under discrete_event.
  // `error_mutex` (leaf lock) guards `first_error`; both are stack locals
  // whose lifetime spans every rank thread, joined below before either is
  // read. Locals cannot carry TN_GUARDED_BY, so the annotated wrappers
  // here buy the lint funnel rather than analysis coverage.
  Mutex error_mutex;
  std::exception_ptr first_error;
  auto rank_guarded = [&](int rank) {
    obs::TraceTrack track(
        rank, [&net, rank] { return net->node_time(rank); },
        "rank" + std::to_string(rank));
    try {
      rank_main(rank);
    } catch (...) {
      {
        MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      net->close_all();
    }
    net->retire(rank);
  };

  const double t0 = net->node_time(0);
  std::vector<std::thread> threads;
  for (int r = 1; r < num_nodes; ++r) {
    threads.emplace_back(rank_guarded, r);
  }
  rank_guarded(0);
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  double t_end = net->node_time(0);
  for (int r = 1; last_rank_latency && r < num_nodes; ++r) {
    t_end = std::max(t_end, net->node_time(r));
  }
  const double total_latency = t_end - t0;

  ScenarioResult result;
  result.schedule_digest = net->finish();
  result.approach = approach;
  result.num_nodes = num_nodes;
  result.latency_ms = 1e3 * total_latency / config.num_queries;
  result.usage = estimate_resources(config.device, rank0_bytes,
                                    rank0_compute.load() / total_latency);
  result.bytes_per_query =
      static_cast<double>(net->bytes_delivered()) / config.num_queries;
  result.messages_per_query =
      static_cast<double>(net->messages_delivered()) / config.num_queries;
  return result;
}

/// One partitioned executor per rank over `model`, which rank 0 holds 1/K
/// of.
template <typename Executor, typename Model>
ScenarioResult run_mpi_executor(const std::string& approach, Model& model,
                                const data::Dataset& test,
                                const ScenarioConfig& config, int num_nodes) {
  model.set_training(false);  // before any rank thread starts
  const double share = 1.0 / num_nodes;
  const auto rank0_bytes = static_cast<std::int64_t>(
      share * static_cast<double>(
                  model_working_set_bytes(model, test.sample_shape())));
  ScenarioResult result = run_mpi_generic(
      approach, num_nodes, test, config, rank0_bytes,
      /*last_rank_latency=*/false,
      [&model](mpi::Communicator& comm, const net::ComputeHook& hook) {
        return [executor = std::make_shared<Executor>(model, comm, hook)](
                   const Tensor& x) { executor->infer(x); };
      });
  result.accuracy_pct = model_accuracy_pct(model, test);
  return result;
}

}  // namespace

ScenarioResult run_mpi_matrix(nn::MlpNet& model, const data::Dataset& test,
                              const ScenarioConfig& config, int num_nodes) {
  return run_mpi_executor<mpi::MpiMatrixMlp>("MPI-Matrix", model, test,
                                             config, num_nodes);
}

ScenarioResult run_mpi_kernel(nn::ShakeShakeNet& model,
                              const data::Dataset& test,
                              const ScenarioConfig& config, int num_nodes) {
  return run_mpi_executor<mpi::MpiKernelShakeShake>("MPI-Kernel", model, test,
                                                    config, num_nodes);
}

ScenarioResult run_mpi_branch(nn::ShakeShakeNet& model,
                              const data::Dataset& test,
                              const ScenarioConfig& config) {
  return run_mpi_executor<mpi::MpiBranchShakeShake>("MPI-Branch", model, test,
                                                    config, 2);
}

ScenarioResult run_teamnet_decentralized(
    const std::vector<nn::Module*>& experts, const data::Dataset& test,
    const ScenarioConfig& config) {
  TEAMNET_CHECK(experts.size() >= 2);
  for (auto* expert : experts) expert->set_training(false);
  ScenarioResult result = run_mpi_generic(
      "TeamNet-decentralized", static_cast<int>(experts.size()), test, config,
      model_working_set_bytes(*experts[0], test.sample_shape()),
      /*last_rank_latency=*/true,
      [&experts](mpi::Communicator& comm, const net::ComputeHook& hook) {
        nn::Module& expert = *experts[static_cast<std::size_t>(comm.rank())];
        return [&comm, &expert, hook](const Tensor& x) {
          mpi::decentralized_infer(comm, expert, x, hook);
          comm.barrier();  // the query ends once every rank has the answer
        };
      });
  result.accuracy_pct =
      100.0 * static_cast<double>(core::count_correct(experts, test)) /
      static_cast<double>(test.size());
  return result;
}

ScenarioResult run_sg_moe(moe::SgMoe& model, const data::Dataset& test,
                          const ScenarioConfig& config) {
  std::vector<nn::Module*> experts;
  for (int i = 0; i < model.num_experts(); ++i) {
    experts.push_back(&model.expert(i));
  }
  Fleet fleet("sg-moe", config,
              {.experts = experts, .num_queries = config.num_queries});
  moe::MoeMaster master(model, fleet.worker_channels());
  fleet.attach(master);
  double total_latency = 0.0;
  for (int row : sample_query_rows(test, config.num_queries, config.seed)) {
    const double t0 = fleet.now();
    master.infer(query_row_tensor(test, row));
    total_latency += fleet.now() - t0;
  }
  fleet.finish(master);
  ScenarioResult result =
      fleet.result("SG-MoE", total_latency, test.sample_shape());
  result.accuracy_pct = 100.0 * model.evaluate_accuracy(test);
  return result;
}

}  // namespace teamnet::sim
