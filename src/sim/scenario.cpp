#include "sim/scenario.hpp"

#include "sim/driver_util.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "common/annotations.hpp"
#include "common/logging.hpp"
#include "core/entropy.hpp"
#include "obs/percentile.hpp"
#include "obs/trace.hpp"
#include "moe/moe_serving.hpp"
#include "mpi/partitioned.hpp"
#include "net/collab.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace teamnet::sim {

namespace {

// Worker-thread wrapper, compute hook and query sampling are shared with
// the load-generation driver — see sim/driver_util.hpp. Local aliases keep
// the call sites below readable.
constexpr auto spawn_worker = spawn_sim_worker;
constexpr auto make_hook = make_compute_hook;
constexpr auto sample_queries = sample_query_rows;
constexpr auto query_tensor = query_row_tensor;

double model_accuracy_pct(nn::Module& model, const data::Dataset& test) {
  model.set_training(false);
  return 100.0 * nn::accuracy(model.predict(test.images), test.labels);
}

SimNetOptions net_options(const ScenarioConfig& config) {
  SimNetOptions opts;
  opts.grant_policy = config.grant_policy;
  opts.schedule_seed = config.schedule_seed;
  opts.schedule_slack_s = config.schedule_slack_s;
  return opts;
}

/// Wraps the master's sim link to each of `nodes` in a FaultyChannel. One
/// base seed forks into per-node streams (node index = fork key), so the
/// whole fleet's fault schedule reproduces from `faults.seed` and a node
/// keeps its stream whatever other links exist. Delay faults advance the
/// master's virtual clock instead of sleeping.
std::vector<std::unique_ptr<net::FaultyChannel>> wrap_faulty_links(
    SimNet& net, const std::vector<int>& nodes,
    const net::FaultProfile& faults, Scheduler scheduler) {
  SimNet* netp = &net;
  Rng seeder(faults.seed);
  net::DelayFn delay = [netp](double seconds) { netp->advance(0, seconds); };
  std::vector<std::unique_ptr<net::FaultyChannel>> links;
  for (int node : nodes) {
    net::FaultProfile profile = faults;
    profile.seed = seeder.fork(static_cast<std::uint64_t>(node)).engine()();
    links.push_back(std::make_unique<net::FaultyChannel>(
        net.take_channel(0, node), profile, delay));
    if (scheduler == Scheduler::discrete_event) {
      // Timeout budgets must burn virtual time, not wall time: the real
      // clock's sub-deadline remainders differ run to run and would leak
      // nondeterminism into the recv_timeout sequence the inner DesChannel
      // sees. Free-running keeps the default real clock (its deadlines
      // really do elapse in real time).
      links.back()->set_time_source([netp] { return netp->node_time(0); });
    }
  }
  return links;
}

/// Quiesce before teardown: a duplicated Infer or hedge on the last query
/// leaves a reply in flight on a worker thread, and shutdown()'s close
/// would race with that send — making the traffic totals
/// nondeterministic. A Ping over each link's fault-free inner() path is
/// answered only after the worker has processed (and sent the replies
/// for) everything queued before it, so once the Pong is back, that
/// worker's deliveries are final. The sentinel id never collides with the
/// master's probe ids.
void quiesce_links(
    const std::vector<std::unique_ptr<net::FaultyChannel>>& links) {
  for (const auto& link : links) {
    try {
      net::Message quiesce;
      quiesce.type = net::MsgType::Ping;
      quiesce.ints = {-1};
      link->inner().send(quiesce.encode());
      while (auto raw = link->inner().recv_timeout(1.0)) {
        net::Message msg = net::Message::decode(*raw);
        if (msg.type == net::MsgType::Pong && !msg.ints.empty() &&
            msg.ints[0] == -1) {
          break;
        }
      }
    } catch (const Error& e) {
      LOG_DEBUG("quiesce skipped a worker: " << e.what());
    }
  }
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
  TEAMNET_CHECK(experts.size() >= 2 && devices.size() == experts.size());
  const int k = static_cast<int>(experts.size());
  // Before any worker spawns: each scenario run gets its own track epoch so
  // its restarted virtual clock never rewinds a previous run's trace rows.
  obs::Tracer::instance().begin_epoch("teamnet");
  auto net = make_sim_net(config.scheduler, k, config.link,
                          net_options(config));

  std::atomic<double> master_compute{0.0};
  // Workers 1..k-1 serve their experts on their own device profiles.
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<net::CollaborativeWorker>> workers;
  for (int i = 1; i < k; ++i) {
    workers.push_back(std::make_unique<net::CollaborativeWorker>(
        *experts[static_cast<std::size_t>(i)], net->channel(i, 0)));
    workers.back()->set_compute_hook(
        make_hook(*net, i, devices[static_cast<std::size_t>(i)], nullptr));
    workers.back()->set_trace_node(i);
    threads.push_back(
        spawn_worker(*net, i, [w = workers.back().get()] { w->serve(); }));
  }

  std::vector<net::Channel*> worker_channels;
  for (int i = 1; i < k; ++i) {
    worker_channels.push_back(&net->channel(0, i));
  }
  net::CollaborativeMaster master(*experts[0], worker_channels);
  master.set_compute_hook(make_hook(*net, 0, devices[0], &master_compute));
  // Fault-free path: every flow this master opens is closed by a worker
  // and vice versa, so traced runs pass the no-dangling-flow check. The
  // chaos/resilience runners stay un-instrumented — a dropped request
  // would leave a by-design dangling arrow the validator cannot excuse.
  master.set_flow_trace(true);

  SimNet* netp = net.get();
  obs::TraceTrack track(0, [netp] { return netp->node_time(0); }, "master");
  const auto queries = sample_queries(test, config.num_queries, config.seed);
  double total_latency = 0.0;
  std::size_t correct = 0;
  const std::int64_t bytes_before = net->bytes_delivered();
  const std::int64_t msgs_before = net->messages_delivered();
  try {
    for (int row : queries) {
      const double t0 = net->node_time(0);
      auto res = master.infer(query_tensor(test, row));
      total_latency += net->node_time(0) - t0;
      if (res.predictions[0] == test.labels[static_cast<std::size_t>(row)]) {
        ++correct;
      }
    }
  } catch (...) {
    // Wake workers blocked in recv, release the master's virtual-time
    // floor, join them, then surface the error.
    net->close_all();
    net->retire(0);
    for (auto& t : threads) t.join();
    throw;
  }
  const std::int64_t bytes_used = net->bytes_delivered() - bytes_before;
  const std::int64_t msgs_used = net->messages_delivered() - msgs_before;
  master.shutdown();
  net->retire(0);
  for (auto& t : threads) t.join();

  ScenarioResult result;
  result.schedule_digest = net->finish();
  result.approach = "TeamNet";
  result.num_nodes = k;
  result.latency_ms = 1e3 * total_latency / config.num_queries;
  // Accuracy over the full test set via the same argmin-entropy rule the
  // protocol applies (protocol equivalence is covered by tests).
  {
    Tensor entropy({test.size(), k});
    std::vector<Tensor> probs(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      probs[static_cast<std::size_t>(i)] = ops::softmax_rows(
          experts[static_cast<std::size_t>(i)]->predict(test.images));
      Tensor h = core::predictive_entropy(probs[static_cast<std::size_t>(i)]);
      for (std::int64_t r = 0; r < test.size(); ++r) {
        entropy[r * k + i] = h[r];
      }
    }
    const auto chosen = ops::argmin_rows(entropy);
    std::size_t ok = 0;
    for (std::int64_t r = 0; r < test.size(); ++r) {
      const Tensor& p = probs[static_cast<std::size_t>(chosen[
          static_cast<std::size_t>(r)])];
      const float* row = p.data() + r * p.dim(1);
      const int pred = static_cast<int>(
          std::max_element(row, row + p.dim(1)) - row);
      if (pred == test.labels[static_cast<std::size_t>(r)]) ++ok;
    }
    result.accuracy_pct =
        100.0 * static_cast<double>(ok) / static_cast<double>(test.size());
  }
  result.usage = estimate_resources(
      devices[0], model_working_set_bytes(*experts[0], test.sample_shape()),
      master_compute.load() / total_latency);
  result.bytes_per_query = static_cast<double>(bytes_used) / config.num_queries;
  result.messages_per_query =
      static_cast<double>(msgs_used) / config.num_queries;
  return result;
}

ChaosResult run_teamnet_chaos(const std::vector<nn::Module*>& experts,
                              const data::Dataset& test,
                              const ScenarioConfig& config,
                              const ChaosConfig& chaos) {
  TEAMNET_CHECK(experts.size() >= 2);
  TEAMNET_CHECK_MSG(
      chaos.partition_worker < static_cast<int>(experts.size()) - 1,
      "partition_worker must name a worker (0-based, < num_workers)");
  const int k = static_cast<int>(experts.size());
  obs::Tracer::instance().begin_epoch("teamnet-chaos");
  auto net = make_sim_net(config.scheduler, k, config.link,
                          net_options(config));
  SimNet* netp = net.get();

  std::atomic<double> master_compute{0.0};
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<net::CollaborativeWorker>> workers;
  for (int i = 1; i < k; ++i) {
    workers.push_back(std::make_unique<net::CollaborativeWorker>(
        *experts[static_cast<std::size_t>(i)], net->channel(i, 0)));
    workers.back()->set_compute_hook(
        make_hook(*net, i, config.device, nullptr));
    threads.push_back(
        spawn_worker(*net, i, [w = workers.back().get()] { w->serve(); }));
  }

  // The master reaches every worker through a FaultyChannel wrapped around
  // the sim channel.
  std::vector<int> worker_nodes;
  for (int i = 1; i < k; ++i) worker_nodes.push_back(i);
  auto faulty =
      wrap_faulty_links(*net, worker_nodes, chaos.faults, config.scheduler);
  std::vector<net::Channel*> worker_channels;
  for (auto& link : faulty) worker_channels.push_back(link.get());

  net::CollaborativeMaster master(*experts[0], worker_channels);
  master.set_compute_hook(make_hook(*net, 0, config.device, &master_compute));
  master.set_worker_timeout(chaos.worker_timeout_s);
  master.set_probe_interval(chaos.probe_interval);
  master.set_time_source([netp] { return netp->node_time(0); });
  if (chaos.test_pre_qid_gather) master.set_test_pre_qid_gather(true);

  obs::TraceTrack track(0, [netp] { return netp->node_time(0); }, "master");
  const auto queries = sample_queries(test, config.num_queries, config.seed);
  ChaosResult result;
  double total_latency = 0.0;
  std::size_t n_correct = 0;
  const std::int64_t bytes_before = net->bytes_delivered();
  const std::int64_t msgs_before = net->messages_delivered();
  try {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const int qi = static_cast<int>(q);
      if (chaos.partition_worker >= 0) {
        auto& link = *faulty[static_cast<std::size_t>(chaos.partition_worker)];
        if (qi == chaos.partition_from_query) link.set_partition(true, true);
        if (qi == chaos.heal_at_query) link.set_partition(false, false);
      }
      const int row = queries[q];
      const double t0 = net->node_time(0);
      auto res = master.infer(query_tensor(test, row));
      total_latency += net->node_time(0) - t0;
      const bool ok =
          res.predictions[0] == test.labels[static_cast<std::size_t>(row)];
      if (ok) ++n_correct;
      result.correct.push_back(ok ? 1 : 0);
      result.live_nodes.push_back(k - master.failed_workers());
    }
  } catch (...) {
    for (auto& link : faulty) link->close();
    net->close_all();
    net->retire(0);
    for (auto& t : threads) t.join();
    throw;
  }
  quiesce_links(faulty);
  master.shutdown();  // closes the faulty channels, waking every worker
  net->retire(0);
  for (auto& t : threads) t.join();
  result.scenario.schedule_digest = net->finish();
  // Counted after the quiesce + join, so the totals are deterministic; they
  // include the quiesce Ping/Pong pairs and the Shutdown messages.
  const std::int64_t bytes_used = net->bytes_delivered() - bytes_before;
  const std::int64_t msgs_used = net->messages_delivered() - msgs_before;

  result.stale_replies = master.stale_replies_discarded();
  result.rejoins = master.rejoins();
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    result.faults_injected += faulty[i]->faults_injected();
    result.fault_schedule += "worker " + std::to_string(i + 1) + ":\n";
    result.fault_schedule += faulty[i]->fault_schedule();
  }

  result.scenario.approach = "TeamNet-Chaos";
  result.scenario.num_nodes = k;
  result.scenario.latency_ms = 1e3 * total_latency / config.num_queries;
  result.scenario.accuracy_pct = 100.0 * static_cast<double>(n_correct) /
                                 static_cast<double>(queries.size());
  result.scenario.usage = estimate_resources(
      config.device,
      model_working_set_bytes(*experts[0], test.sample_shape()),
      total_latency > 0.0 ? master_compute.load() / total_latency : 0.0);
  result.scenario.bytes_per_query =
      static_cast<double>(bytes_used) / config.num_queries;
  result.scenario.messages_per_query =
      static_cast<double>(msgs_used) / config.num_queries;
  return result;
}

ResilienceResult run_teamnet_resilience(const std::vector<nn::Module*>& experts,
                                        const data::Dataset& test,
                                        const ScenarioConfig& config,
                                        const ResilienceConfig& res) {
  TEAMNET_CHECK(experts.size() >= 2);
  const int k = static_cast<int>(experts.size());
  // Node map: master 0, primary workers 1..k-1; with hedging, node k-1+i is
  // the backup replica serving worker i's expert (nodes k..2k-2).
  const int num_nodes = res.hedging ? 2 * k - 1 : k;
  obs::Tracer::instance().begin_epoch("teamnet-resilience");
  auto net = make_sim_net(config.scheduler, num_nodes, config.link,
                          net_options(config));
  SimNet* netp = net.get();

  std::atomic<double> master_compute{0.0};
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<net::CollaborativeWorker>> workers;
  // Every serving node (primary or backup) reads its own virtual clock, so
  // the propagated deadline stamps compare against the same time base the
  // master wrote them in (Lamport-synced on delivery).
  auto spawn_serving = [&](int node, int expert) {
    workers.push_back(std::make_unique<net::CollaborativeWorker>(
        *experts[static_cast<std::size_t>(expert)], net->channel(node, 0)));
    auto* w = workers.back().get();
    w->set_compute_hook(make_hook(*net, node, config.device, nullptr));
    w->set_time_source([netp, node] { return netp->node_time(node); });
    w->set_drop_expired(res.drop_expired);
    threads.push_back(spawn_worker(*net, node, [w] { w->serve(); }));
  };
  for (int i = 1; i < k; ++i) spawn_serving(i, i);
  if (res.hedging) {
    for (int i = 1; i < k; ++i) spawn_serving(k - 1 + i, i);
  }

  // Same fault plumbing as run_teamnet_chaos, extended to the backup links
  // (nodes k..2k-2), which fork after the primaries.
  std::vector<int> link_nodes;
  for (int node = 1; node < num_nodes; ++node) link_nodes.push_back(node);
  auto faulty =
      wrap_faulty_links(*net, link_nodes, res.faults, config.scheduler);
  std::vector<net::Channel*> worker_channels;
  std::vector<net::Channel*> backup_channels;
  for (int node = 1; node < num_nodes; ++node) {
    (node < k ? worker_channels : backup_channels)
        .push_back(faulty[static_cast<std::size_t>(node - 1)].get());
  }

  net::CollaborativeMaster master(*experts[0], worker_channels);
  master.set_compute_hook(make_hook(*net, 0, config.device, &master_compute));
  master.set_worker_timeout(res.worker_timeout_s);
  master.set_probe_interval(res.probe_interval);
  master.set_time_source([netp] { return netp->node_time(0); });
  if (res.health) master.enable_health(res.health_config);
  if (res.quorum > 0) master.set_gather_quorum(res.quorum);
  if (res.hedging) {
    master.set_hedging(backup_channels, res.hedge_min_delay_s,
                       res.hedge_latency_factor);
  }

  obs::TraceTrack track(0, [netp] { return netp->node_time(0); }, "master");
  const auto queries = sample_queries(test, config.num_queries, config.seed);
  ResilienceResult result;
  double total_latency = 0.0;
  std::size_t n_correct = 0;
  const std::int64_t bytes_before = net->bytes_delivered();
  const std::int64_t msgs_before = net->messages_delivered();
  try {
    for (int row : queries) {
      const double t0 = net->node_time(0);
      auto r = master.infer(query_tensor(test, row));
      const double latency_s = net->node_time(0) - t0;
      total_latency += latency_s;
      result.latency_ms.push_back(1e3 * latency_s);
      result.degradation.push_back(static_cast<int>(r.degradation));
      const bool ok =
          r.predictions[0] == test.labels[static_cast<std::size_t>(row)];
      if (ok) ++n_correct;
      result.correct.push_back(ok ? 1 : 0);
    }
  } catch (...) {
    for (auto& link : faulty) link->close();
    net->close_all();
    net->retire(0);
    for (auto& t : threads) t.join();
    throw;
  }
  quiesce_links(faulty);  // backups included
  master.shutdown();  // closes primaries and backups, waking every worker
  net->retire(0);
  for (auto& t : threads) t.join();
  result.scenario.schedule_digest = net->finish();
  const std::int64_t bytes_used = net->bytes_delivered() - bytes_before;
  const std::int64_t msgs_used = net->messages_delivered() - msgs_before;

  result.p50_ms = obs::nearest_rank_percentile(result.latency_ms, 50.0);
  result.p99_ms = obs::nearest_rank_percentile(result.latency_ms, 99.0);
  result.full_gathers = master.full_gathers();
  result.quorum_gathers = master.quorum_gathers();
  result.local_only_gathers = master.local_only_gathers();
  result.hedges_sent = master.hedges_sent();
  result.hedge_wins = master.hedge_wins();
  result.hedge_duplicates = master.hedge_duplicates();
  result.breaker_opens =
      master.health() != nullptr ? master.health()->breaker_opens() : 0;
  result.rejoins = master.rejoins();
  result.stale_replies = master.stale_replies_discarded();
  for (const auto& w : workers) result.expired_drops += w->expired_dropped();
  for (const auto& link : faulty) {
    result.faults_injected += link->faults_injected();
  }

  result.scenario.approach = "TeamNet-Resilience";
  result.scenario.num_nodes = num_nodes;
  result.scenario.latency_ms = 1e3 * total_latency / config.num_queries;
  result.scenario.accuracy_pct = 100.0 * static_cast<double>(n_correct) /
                                 static_cast<double>(queries.size());
  result.scenario.usage = estimate_resources(
      config.device,
      model_working_set_bytes(*experts[0], test.sample_shape()),
      total_latency > 0.0 ? master_compute.load() / total_latency : 0.0);
  result.scenario.bytes_per_query =
      static_cast<double>(bytes_used) / config.num_queries;
  result.scenario.messages_per_query =
      static_cast<double>(msgs_used) / config.num_queries;
  return result;
}

namespace {

/// Shared runner for the MPI executors: spins `num_nodes` rank threads.
/// Each rank builds its executor once via `make_runner(comm, hook)` and
/// then, per query, receives the input bcast from rank 0 and runs it.
template <typename MakeRunner>
ScenarioResult run_mpi_generic(const std::string& approach, int num_nodes,
                               const data::Dataset& test,
                               const ScenarioConfig& config,
                               nn::Module& model_for_metrics,
                               MakeRunner make_runner) {
  model_for_metrics.set_training(false);  // before any rank thread starts
  obs::Tracer::instance().begin_epoch(approach);
  auto net = make_sim_net(config.scheduler, num_nodes, config.link,
                          net_options(config));

  const auto queries = sample_queries(test, config.num_queries, config.seed);
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
    net::ComputeHook hook = make_hook(*net, rank, config.device,
                                      rank == 0 ? &rank0_compute : nullptr);
    auto run_query = make_runner(comm, hook);
    for (int row : queries) {
      Tensor x;
      if (rank == 0) x = query_tensor(test, row);
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

  const std::int64_t bytes_before = net->bytes_delivered();
  const std::int64_t msgs_before = net->messages_delivered();
  const double t0 = net->node_time(0);
  std::vector<std::thread> threads;
  for (int r = 1; r < num_nodes; ++r) {
    threads.emplace_back(rank_guarded, r);
  }
  rank_guarded(0);
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  const double total_latency = net->node_time(0) - t0;

  ScenarioResult result;
  result.schedule_digest = net->finish();
  result.approach = approach;
  result.num_nodes = num_nodes;
  result.latency_ms = 1e3 * total_latency / config.num_queries;
  result.accuracy_pct = model_accuracy_pct(model_for_metrics, test);
  const double share = 1.0 / num_nodes;  // rank 0 holds 1/K of the weights
  result.usage = estimate_resources(
      config.device,
      static_cast<std::int64_t>(
          share * static_cast<double>(model_working_set_bytes(
                      model_for_metrics, test.sample_shape()))),
      rank0_compute.load() / total_latency);
  result.bytes_per_query =
      static_cast<double>(net->bytes_delivered() - bytes_before) /
      config.num_queries;
  result.messages_per_query =
      static_cast<double>(net->messages_delivered() - msgs_before) /
      config.num_queries;
  return result;
}

}  // namespace

ScenarioResult run_mpi_matrix(nn::MlpNet& model, const data::Dataset& test,
                              const ScenarioConfig& config, int num_nodes) {
  return run_mpi_generic(
      "MPI-Matrix", num_nodes, test, config, model,
      [&model](mpi::Communicator& comm, const net::ComputeHook& hook) {
        return [executor = std::make_shared<mpi::MpiMatrixMlp>(model, comm,
                                                               hook)](
                   const Tensor& x) { executor->infer(x); };
      });
}

ScenarioResult run_mpi_kernel(nn::ShakeShakeNet& model,
                              const data::Dataset& test,
                              const ScenarioConfig& config, int num_nodes) {
  return run_mpi_generic(
      "MPI-Kernel", num_nodes, test, config, model,
      [&model](mpi::Communicator& comm, const net::ComputeHook& hook) {
        return [executor = std::make_shared<mpi::MpiKernelShakeShake>(
                    model, comm, hook)](const Tensor& x) {
          executor->infer(x);
        };
      });
}

ScenarioResult run_mpi_branch(nn::ShakeShakeNet& model,
                              const data::Dataset& test,
                              const ScenarioConfig& config) {
  return run_mpi_generic(
      "MPI-Branch", 2, test, config, model,
      [&model](mpi::Communicator& comm, const net::ComputeHook& hook) {
        return [executor = std::make_shared<mpi::MpiBranchShakeShake>(
                    model, comm, hook)](const Tensor& x) {
          executor->infer(x);
        };
      });
}

ScenarioResult run_sg_moe(moe::SgMoe& model, const data::Dataset& test,
                          const ScenarioConfig& config) {
  const int k = model.num_experts();
  obs::Tracer::instance().begin_epoch("sg-moe");
  auto net = make_sim_net(config.scheduler, k, config.link,
                          net_options(config));

  std::atomic<double> master_compute{0.0};
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<net::CollaborativeWorker>> workers;
  for (int i = 1; i < k; ++i) {
    workers.push_back(std::make_unique<net::CollaborativeWorker>(
        model.expert(i), net->channel(i, 0)));
    workers.back()->set_compute_hook(
        make_hook(*net, i, config.device, nullptr));
    workers.back()->set_trace_node(i);
    threads.push_back(
        spawn_worker(*net, i, [w = workers.back().get()] { w->serve(); }));
  }

  std::vector<net::Channel*> worker_channels;
  for (int i = 1; i < k; ++i) {
    worker_channels.push_back(&net->channel(0, i));
  }
  moe::MoeMaster master(model, worker_channels);
  master.set_compute_hook(make_hook(*net, 0, config.device, &master_compute));
  master.set_flow_trace(true);  // fault-free: flows always pair (see above)

  SimNet* netp = net.get();
  obs::TraceTrack track(0, [netp] { return netp->node_time(0); }, "master");
  const auto queries = sample_queries(test, config.num_queries, config.seed);
  double total_latency = 0.0;
  const std::int64_t bytes_before = net->bytes_delivered();
  const std::int64_t msgs_before = net->messages_delivered();
  try {
    for (int row : queries) {
      const double t0 = net->node_time(0);
      master.infer(query_tensor(test, row));
      total_latency += net->node_time(0) - t0;
    }
  } catch (...) {
    net->close_all();
    net->retire(0);
    for (auto& t : threads) t.join();
    throw;
  }
  const std::int64_t bytes_used = net->bytes_delivered() - bytes_before;
  const std::int64_t msgs_used = net->messages_delivered() - msgs_before;
  master.shutdown();
  net->retire(0);
  for (auto& t : threads) t.join();

  ScenarioResult result;
  result.schedule_digest = net->finish();
  result.approach = "SG-MoE";
  result.num_nodes = k;
  result.latency_ms = 1e3 * total_latency / config.num_queries;
  result.accuracy_pct = 100.0 * model.evaluate_accuracy(test);
  result.usage = estimate_resources(
      config.device,
      model_working_set_bytes(model.expert(0), test.sample_shape()),
      master_compute.load() / total_latency);
  result.bytes_per_query = static_cast<double>(bytes_used) / config.num_queries;
  result.messages_per_query =
      static_cast<double>(msgs_used) / config.num_queries;
  return result;
}

}  // namespace teamnet::sim
