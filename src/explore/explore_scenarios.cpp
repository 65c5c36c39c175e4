#include "explore/explore_scenarios.hpp"

#include <iomanip>
#include <memory>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "core/teamnet.hpp"
#include "data/blobs.hpp"
#include "load/loadgen.hpp"
#include "moe/sg_moe.hpp"
#include "nn/mlp.hpp"
#include "sim/des/engine.hpp"
#include "sim/driver_util.hpp"

namespace teamnet::sim {
namespace {

// ---- fixtures (same shapes as the determinism gate) ------------------------

data::Dataset blob_test_set() {
  data::BlobsConfig cfg;
  cfg.num_samples = 200;
  cfg.num_classes = 4;
  cfg.dims = 8;
  cfg.seed = 21;
  return data::make_blobs(cfg);
}

std::vector<std::unique_ptr<nn::MlpNet>> make_experts(int k) {
  std::vector<std::unique_ptr<nn::MlpNet>> experts;
  for (int i = 0; i < k; ++i) {
    nn::MlpConfig cfg;
    cfg.in_features = 8;
    cfg.num_classes = 4;
    cfg.depth = 2;
    cfg.hidden = 12;
    Rng rng(100 + i);
    experts.push_back(std::make_unique<nn::MlpNet>(cfg, rng));
  }
  return experts;
}

ScenarioConfig scenario_config(const ExploreScenarioOptions& options,
                               const des::ScheduleCase& c) {
  ScenarioConfig cfg;
  cfg.num_queries = options.num_queries;
  cfg.link = options.link;
  cfg.seed = options.seed;
  cfg.grant_policy = c.policy;
  cfg.schedule_seed = c.schedule_seed;
  cfg.schedule_slack_s = options.schedule_slack_s;
  return cfg;
}

/// Wraps a scenario invocation into the explorer's outcome shape,
/// translating the two failure modes the explorer distinguishes.
template <typename Run>
des::RunOutcome guarded_run(Run&& run) {
  des::RunOutcome out;
  try {
    std::forward<Run>(run)(out);
  } catch (const des::DeadlockError&) {
    out.deadlocked = true;
  } catch (const Error& e) {
    out.error = e.what();
  }
  return out;
}

struct TeamNetFixture {
  std::vector<std::unique_ptr<nn::MlpNet>> experts = make_experts(3);
  data::Dataset test = blob_test_set();

  std::vector<nn::Module*> expert_ptrs() const {
    std::vector<nn::Module*> ptrs;
    for (const auto& e : experts) ptrs.push_back(e.get());
    return ptrs;
  }
};

/// TeamNet's answer for every test row, computed in process.
std::vector<core::InferenceResult> reference_answers(
    const TeamNetFixture& fixture) {
  std::vector<core::InferenceResult> answers;
  for (int row = 0; row < static_cast<int>(fixture.test.size()); ++row) {
    answers.push_back(core::infer_experts(
        fixture.expert_ptrs(), query_row_tensor(fixture.test, row)));
  }
  return answers;
}

}  // namespace

ResilienceConfig ExploreScenarioOptions::default_explore_chaos() {
  ResilienceConfig chaos;
  chaos.drop_expired = false;
  chaos.faults.drop_prob = 0.2;
  chaos.faults.corrupt_prob = 0.1;
  chaos.faults.duplicate_prob = 0.15;
  chaos.worker_timeout_s = 0.25;
  chaos.probe_interval = 2;
  chaos.partition_worker = 0;
  chaos.partition_from_query = 3;
  chaos.heal_at_query = 6;
  chaos.multicast = false;  // the unicast dispatch its pins were taken with
  return chaos;
}

ResilienceConfig ExploreScenarioOptions::default_explore_resilience() {
  ResilienceConfig res;
  res.faults.drop_prob = 0.2;
  res.faults.duplicate_prob = 0.15;
  res.worker_timeout_s = 0.25;
  res.probe_interval = 2;
  res.quorum = 2;  // master + one worker completes the gather
  res.hedging = true;
  res.multicast = false;  // "resilience-multicast" turns it on
  return res;
}

const std::vector<std::string>& explore_scenario_names() {
  static const std::vector<std::string> names = {
      "teamnet", "mpi", "sg-moe", "chaos", "resilience", "load",
      "multicast", "resilience-multicast"};
  return names;
}

namespace {

// ---- schedule-invariant serializations -------------------------------------

std::string discrete_bytes(const ScenarioResult& result) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "approach=" << result.approach << "\n"
      << "num_nodes=" << result.num_nodes << "\n"
      << "accuracy_pct=" << result.accuracy_pct << "\n"
      << "bytes_per_query=" << result.bytes_per_query << "\n"
      << "messages_per_query=" << result.messages_per_query << "\n";
  return out.str();
}

std::string chaos_discrete_bytes(const ResilienceResult& result) {
  std::ostringstream out;
  out << discrete_bytes(result.scenario);
  out << "live_nodes=";
  for (std::size_t i = 0; i < result.live_nodes.size(); ++i) {
    if (i != 0) out << ",";
    out << result.live_nodes[i];
  }
  out << "\ncorrect=";
  for (char c : result.correct) out << (c ? '1' : '0');
  out << "\nstale_replies=" << result.stale_replies
      << "\nrejoins=" << result.rejoins
      << "\nfaults_injected=" << result.faults_injected
      << "\nfault_schedule=" << result.fault_schedule << "\n";
  return out.str();
}

/// What must hold for the resilience scenario on EVERY legal schedule is
/// the protocol's accounting: the degradation counters partition the
/// queries, per-query vectors are complete, hedge wins/duplicates never
/// exceed hedges sent, and every counter is non-negative.
std::string discrete_bytes(const ResilienceResult& result) {
  const std::size_t n = result.degradation.size();
  const bool accounted =
      result.full_gathers + result.quorum_gathers + result.local_only_gathers ==
      static_cast<std::int64_t>(n);
  const bool vectors_complete =
      result.latency_ms.size() == n && result.correct.size() == n;
  const bool hedges_bounded = result.hedge_wins <= result.hedges_sent &&
                              result.hedge_duplicates <= result.hedges_sent;
  const bool non_negative =
      result.full_gathers >= 0 && result.quorum_gathers >= 0 &&
      result.local_only_gathers >= 0 && result.hedges_sent >= 0 &&
      result.hedge_wins >= 0 && result.hedge_duplicates >= 0 &&
      result.rejoins >= 0 && result.stale_replies >= 0 &&
      result.expired_drops >= 0 && result.faults_injected >= 0;
  std::ostringstream out;
  out << "approach=" << result.scenario.approach << "\n"
      << "num_nodes=" << result.scenario.num_nodes << "\n"
      << "num_queries=" << n << "\n"
      << "degradation_accounted=" << (accounted ? 1 : 0) << "\n"
      << "vectors_complete=" << (vectors_complete ? 1 : 0) << "\n"
      << "hedges_bounded=" << (hedges_bounded ? 1 : 0) << "\n"
      << "counters_non_negative=" << (non_negative ? 1 : 0) << "\n";
  return out.str();
}

/// The pipelined load run's invariants: every query is answered exactly as
/// the oracle answers its row, both attribution partitions telescope to
/// the measured latency, and each query's traffic is its broadcast and
/// gather, delivered and on the air (an Infer frame per worker unicast,
/// one per query multicast). Which query waits for the medium behind
/// which is the schedule's business, so latencies stay out.
std::string discrete_bytes(const load::LoadResult& result,
                           const std::vector<core::InferenceResult>& oracle) {
  int answered_right = 0;
  int reconciled = 0;
  for (std::size_t q = 0; q < result.records.size(); ++q) {
    const load::QueryRecord& rec = result.records[q];
    const core::InferenceResult& want =
        oracle[static_cast<std::size_t>(rec.row)];
    if (rec.degradation == 0 && rec.prediction == want.predictions[0] &&
        rec.chosen == want.chosen[0]) {
      ++answered_right;
    }
    const obs::QueryAttribution& a = result.attributions[q];
    if (a.qid == static_cast<std::int64_t>(q) + 1 && a.total_ns > 0 &&
        a.e2e_sum() == a.total_ns && a.crit_sum() == a.total_ns) {
      ++reconciled;
    }
  }
  std::ostringstream out;
  out << std::setprecision(17);
  out << "approach=" << result.approach << "\n"
      << "num_nodes=" << result.num_nodes << "\n"
      << "num_queries=" << result.records.size() << "\n"
      << "full_gathers_matching_oracle=" << answered_right << "\n"
      << "attributions_reconciled=" << reconciled << "\n"
      << "bytes_per_query=" << result.bytes_per_query << "\n"
      << "messages_per_query=" << result.messages_per_query << "\n"
      << "air_bytes_per_query=" << result.air_bytes_per_query << "\n";
  return out.str();
}

}  // namespace

des::ScheduleRunner make_explore_runner(const std::string& scenario,
                                        const ExploreScenarioOptions& options) {
  if (scenario == "teamnet") {
    auto fixture = std::make_shared<TeamNetFixture>();
    return [fixture, options](const des::ScheduleCase& c) {
      return guarded_run([&](des::RunOutcome& out) {
        const auto result = run_teamnet(fixture->expert_ptrs(), fixture->test,
                                        scenario_config(options, c));
        out.discrete = discrete_bytes(result);
        out.digest = result.schedule_digest;
      });
    };
  }
  if (scenario == "mpi") {
    nn::MlpConfig cfg;
    cfg.in_features = 8;
    cfg.num_classes = 4;
    cfg.depth = 3;
    cfg.hidden = 12;
    Rng rng(7);
    auto model = std::make_shared<nn::MlpNet>(cfg, rng);
    auto test = std::make_shared<data::Dataset>(blob_test_set());
    return [model, test, options](const des::ScheduleCase& c) {
      return guarded_run([&](des::RunOutcome& out) {
        const auto result =
            run_mpi_matrix(*model, *test, scenario_config(options, c), 3);
        out.discrete = discrete_bytes(result);
        out.digest = result.schedule_digest;
      });
    };
  }
  if (scenario == "sg-moe") {
    moe::SgMoeConfig cfg;
    cfg.num_experts = 3;
    cfg.epochs = 1;
    auto model =
        std::make_shared<moe::SgMoe>(cfg, 8, [](int /*index*/, Rng& rng) {
          nn::MlpConfig mc;
          mc.in_features = 8;
          mc.num_classes = 4;
          mc.depth = 2;
          mc.hidden = 10;
          return std::make_unique<nn::MlpNet>(mc, rng);
        });
    auto test = std::make_shared<data::Dataset>(blob_test_set());
    model->train(*test);
    return [model, test, options](const des::ScheduleCase& c) {
      return guarded_run([&](des::RunOutcome& out) {
        const auto result =
            run_sg_moe(*model, *test, scenario_config(options, c));
        out.discrete = discrete_bytes(result);
        out.digest = result.schedule_digest;
      });
    };
  }
  if (scenario == "chaos") {
    auto fixture = std::make_shared<TeamNetFixture>();
    ResilienceConfig chaos = options.chaos;
    chaos.faults.seed = options.seed;
    return [fixture, options, chaos](const des::ScheduleCase& c) {
      return guarded_run([&](des::RunOutcome& out) {
        const auto result =
            run_teamnet_resilience(fixture->expert_ptrs(), fixture->test,
                                   scenario_config(options, c), chaos);
        out.discrete = chaos_discrete_bytes(result);
        out.digest = result.scenario.schedule_digest;
      });
    };
  }
  if (scenario == "resilience" || scenario == "resilience-multicast") {
    auto fixture = std::make_shared<TeamNetFixture>();
    ResilienceConfig res = options.resilience;
    res.faults.seed = options.seed;
    // "resilience" keeps the unicast dispatch its pinned digests were
    // taken with; "resilience-multicast" is the same fixture with one
    // group frame per query, every receiver rolling its own faults.
    if (scenario == "resilience-multicast") res.multicast = true;
    return [fixture, options, res](const des::ScheduleCase& c) {
      return guarded_run([&](des::RunOutcome& out) {
        const auto result =
            run_teamnet_resilience(fixture->expert_ptrs(), fixture->test,
                                   scenario_config(options, c), res);
        out.discrete = discrete_bytes(result);
        out.digest = result.scenario.schedule_digest;
      });
    };
  }
  if (scenario == "load" || scenario == "multicast") {
    auto fixture = std::make_shared<TeamNetFixture>();
    auto oracle = std::make_shared<std::vector<core::InferenceResult>>(
        reference_answers(*fixture));
    load::LoadConfig load;
    // "load" keeps the unicast broadcast its pinned digests were taken
    // with; "multicast" is the same run with one group frame per query.
    load.multicast = scenario == "multicast";
    load.arrival.kind = load::ArrivalKind::open_poisson;
    // Open-loop Poisson at a rate where the default link keeps several
    // queries in flight at once.
    load.arrival.rate_qps = 150.0;
    load.arrival.seed = options.seed;
    load.query_seed = options.seed;
    load.num_queries = options.num_queries;
    load.warmup_queries = 0;
    return [fixture, oracle, options, load](const des::ScheduleCase& c) {
      return guarded_run([&](des::RunOutcome& out) {
        const auto result =
            load::run_teamnet_load(fixture->expert_ptrs(), fixture->test,
                                   scenario_config(options, c), load);
        out.discrete = discrete_bytes(result, *oracle);
        out.digest = result.schedule_digest;
      });
    };
  }
  throw InvalidArgument(
      "unknown explore scenario: " + scenario +
      " (expected teamnet|mpi|sg-moe|chaos|resilience|load|multicast|"
      "resilience-multicast)");
}

}  // namespace teamnet::sim
