// Benchmark driver: runs one workload through the public serving APIs and
// writes the raw observations (per-query records, counters, spans) as one
// JSON document. perfbench/run.py reduces that document to the metrics.
//
//   perfbench --prepare --cache DIR
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --cache DIR --out FILE
//
// Workloads (rationale in perfbench/README.md):
//   fleet_mlp_k4    load::run_teamnet_load, open-loop Poisson over a fixed
//                   ladder of offered rates, discrete_event virtual clock
//   fleet_lossy_k4  sim::run_teamnet_resilience, 20% drops, quorum 3 +
//                   hedging + health, one sequential client, virtual clock
//   tcp_cnn_k2      net::CollaborativeMaster/Worker over loopback TCP, one
//                   client back to back, wall clock
//
// Spans come only from this file's decorators around the calls into each
// layer (TracedModule around an expert, TracedChannel around a TCP channel,
// a span around CollaborativeMaster::infer); the program itself is not
// modified. Spans are kept in memory and written out when the run ends.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/entropy.hpp"
#include "load/loadgen.hpp"
#include "net/collab.hpp"
#include "net/message.hpp"
#include "net/tcp.hpp"
#include "obs/critpath.hpp"
#include "sim/driver_util.hpp"
#include "sim/scenario.hpp"
#include "tensor/ops.hpp"

namespace perfbench {
namespace {

using namespace teamnet;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Independent sub-seed for one random stream of a run (splitmix64 mix), so
/// arrivals, query rows and faults vary independently with --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---- spans -----------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root on its thread
  std::int64_t qid = 0;     ///< query in flight when the span opened
  int thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Process-wide span store. Recording is off unless enabled; a disabled
/// ScopedSpan costs one relaxed load.
class SpanLog {
 public:
  static SpanLog& instance() {
    static SpanLog log;
    return log;
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  std::int64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void add(const Span& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }
  std::vector<Span> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(spans_);
  }

  /// Query id stamped on new spans. The client loop sets it before each
  /// query, so worker-thread spans join the query in flight.
  std::atomic<std::int64_t> current_qid{0};

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

thread_local std::vector<std::int64_t> t_open_spans;

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    SpanLog& log = SpanLog::instance();
    if (!log.enabled()) return;
    span_.name = name;
    span_.id = log.next_id();
    span_.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
    span_.qid = log.current_qid.load(std::memory_order_relaxed);
    span_.thread = thread_index();
    t_open_spans.push_back(span_.id);
    span_.start_ns = now_ns();
  }
  ~ScopedSpan() {
    if (span_.id == 0) return;
    span_.end_ns = now_ns();
    t_open_spans.pop_back();
    SpanLog::instance().add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
};

// ---- decorators --------------------------------------------------------------

/// Expert decorator: times each forward as an `nn.forward` span and notes
/// when the first forward began (the end of set-up). Everything else —
/// analyze, parameters, buffers, set_training — forwards unchanged, so the
/// simulator charges exactly the FLOPs it would charge the bare expert.
class TracedModule final : public nn::Module {
 public:
  explicit TracedModule(nn::Module& inner) : inner_(inner) {
    training_ = inner.training();
  }

  ag::Var forward(const ag::Var& input) override {
    std::int64_t unset = -1;
    first_forward_ns_.compare_exchange_strong(unset, now_ns(),
                                              std::memory_order_relaxed);
    ScopedSpan span("nn.forward");
    return inner_.forward(input);
  }
  std::vector<ag::Var> parameters() override { return inner_.parameters(); }
  std::vector<Tensor*> buffers() override { return inner_.buffers(); }
  nn::Analysis analyze(const Shape& input_shape) const override {
    return inner_.analyze(input_shape);
  }
  void set_training(bool training) override {
    training_ = training;
    inner_.set_training(training);
  }
  std::string name() const override { return inner_.name(); }

  /// Process-clock ns of the first forward; -1 before any.
  std::int64_t first_forward_ns() const {
    return first_forward_ns_.load(std::memory_order_relaxed);
  }

 private:
  nn::Module& inner_;
  std::atomic<std::int64_t> first_forward_ns_{-1};
};

/// Channel decorator: counts messages and payload bytes each way and times
/// each send (`net.send`) and receive (`net.recv`) as spans.
class TracedChannel final : public net::Channel {
 public:
  explicit TracedChannel(net::ChannelPtr inner) : inner_(std::move(inner)) {}

  void send(std::string bytes) override {
    count(bytes);
    ScopedSpan span("net.send");
    inner_->send(std::move(bytes));
  }
  std::string recv() override {
    std::string bytes;
    {
      ScopedSpan span("net.recv");
      bytes = inner_->recv();
    }
    count(bytes);
    return bytes;
  }
  std::optional<std::string> recv_timeout(double seconds) override {
    std::optional<std::string> bytes;
    {
      ScopedSpan span("net.recv");
      bytes = inner_->recv_timeout(seconds);
    }
    if (bytes) count(*bytes);
    return bytes;
  }
  void close() override { inner_->close(); }

  std::int64_t messages() const { return msgs_; }
  std::int64_t bytes() const { return bytes_; }

 private:
  void count(const std::string& bytes) {
    ++msgs_;
    bytes_ += static_cast<std::int64_t>(bytes.size());
  }

  net::ChannelPtr inner_;
  std::int64_t msgs_ = 0;  ///< one thread uses each end, so plain counters
  std::int64_t bytes_ = 0;
};

// ---- raw JSON output ---------------------------------------------------------

/// Minimal JSON writer for the raw document. Doubles use %.17g so virtual
/// times round-trip exactly and same-seed documents compare byte for byte.
class Json {
 public:
  Json& key(const char* k) {
    comma();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    comma();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& integer(std::int64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& str(const std::string& s) {
    comma();
    out_ += '"';
    out_ += s;  // callers pass identifiers only
    out_ += '"';
    return *this;
  }
  Json& open(char bracket) {
    comma();
    out_ += bracket;
    fresh_ = true;
    return *this;
  }
  Json& close(char bracket) {
    out_ += bracket;
    fresh_ = false;
    return *this;
  }
  template <typename T, typename F>
  Json& array(const std::vector<T>& values, F emit) {
    open('[');
    for (const auto& v : values) emit(*this, v);
    return close(']');
  }
  /// Splices an already-serialized JSON value.
  Json& raw(const std::string& value) {
    comma();
    out_ += value;
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  void comma() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

void emit_spans(Json& j, const std::vector<Span>& spans) {
  j.key("spans").open('[');
  for (const Span& s : spans) {
    j.open('[')
        .str(s.name)
        .integer(s.id)
        .integer(s.parent)
        .integer(s.qid)
        .integer(s.thread)
        .integer(s.start_ns)
        .integer(s.end_ns)
        .close(']');
  }
  j.close(']');
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- reference selection -------------------------------------------------------

/// Single-process reference of TeamNet's selection for every test row: the
/// arg-min-entropy loop of core::TeamNetEnsemble::infer over the same
/// expert objects the serving path uses (first minimum wins, as in the
/// master's gather).
struct Reference {
  std::vector<int> prediction;
  std::vector<int> chosen;
  std::vector<char> correct;
};

Reference compute_reference(const std::vector<nn::Module*>& experts,
                            const data::Dataset& test) {
  Reference ref;
  for (int row = 0; row < static_cast<int>(test.size()); ++row) {
    const Tensor x = sim::query_row_tensor(test, row);
    int winner = 0;
    float best = 0.0f;
    Tensor winner_probs;
    for (std::size_t i = 0; i < experts.size(); ++i) {
      Tensor probs = ops::softmax_rows(experts[i]->predict(x));
      const float h = core::predictive_entropy(probs)[0];
      if (i == 0 || h < best) {
        best = h;
        winner = static_cast<int>(i);
        winner_probs = probs;
      }
    }
    const int pred = ops::argmax_rows(winner_probs)[0];
    ref.prediction.push_back(pred);
    ref.chosen.push_back(winner);
    ref.correct.push_back(
        pred == test.labels[static_cast<std::size_t>(row)] ? 1 : 0);
  }
  return ref;
}

/// Codec cost per query: Message::encode (resp. decode) of the frames one
/// query puts on the wire — one Infer plus one Result per worker — built
/// through the protocol's public message API from test row 0 and timed
/// after the measured phase.
void emit_codec(Json& j, const std::vector<nn::Module*>& experts,
                const data::Dataset& test) {
  const Tensor x = sim::query_row_tensor(test, 0);
  net::Message infer;
  infer.type = net::MsgType::Infer;
  net::InferInfo info;
  info.qid = 1;
  net::set_infer_info(infer, info);
  infer.tensors = {x};
  net::Message result;
  result.type = net::MsgType::Result;
  result.ints = infer.ints;
  Tensor probs = ops::softmax_rows(experts[1]->predict(x));
  Tensor entropy = core::predictive_entropy(probs);
  result.tensors = {std::move(probs), std::move(entropy)};
  const std::string infer_frame = infer.encode();
  const std::string result_frame = result.encode();
  const std::size_t workers = experts.size() - 1;

  constexpr int kIters = 2000;
  std::size_t sink = 0;  // keeps every timed call's result observable
  std::int64_t t0 = now_ns();
  for (int i = 0; i < kIters; ++i) {
    sink += infer.encode().size();
    for (std::size_t w = 0; w < workers; ++w) sink += result.encode().size();
  }
  const double encode_us = static_cast<double>(now_ns() - t0) * 1e-3 / kIters;
  t0 = now_ns();
  for (int i = 0; i < kIters; ++i) {
    sink += net::Message::decode(infer_frame).tensors.size();
    for (std::size_t w = 0; w < workers; ++w) {
      sink += net::Message::decode(result_frame).tensors.size();
    }
  }
  const double decode_us = static_cast<double>(now_ns() - t0) * 1e-3 / kIters;
  j.key("codec").open('{');
  j.key("encode_us").num(encode_us);
  j.key("decode_us").num(decode_us);
  j.key("checksum").integer(static_cast<std::int64_t>(sink));
  j.close('}');
}

// ---- workloads ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool prepare = false;
  std::string cache = ".bench_build/cache";
  std::string out;
};

bench::Options bench_options(const Args& args) {
  bench::Options opts;
  opts.quick = true;  // the --quick models behind the BENCH_*.json rows
  opts.cache_dir = args.cache;
  return opts;
}

/// Set-up repetitions per run; the reducer reports their median.
constexpr int kSetupReps = 7;

using Decorated = std::vector<std::unique_ptr<TracedModule>>;

Decorated decorate(const std::vector<nn::Module*>& experts) {
  Decorated out;
  for (nn::Module* e : experts) out.push_back(std::make_unique<TracedModule>(*e));
  return out;
}

std::vector<nn::Module*> as_modules(const Decorated& v) {
  std::vector<nn::Module*> out;
  for (const auto& m : v) out.push_back(m.get());
  return out;
}

/// Process-clock ns of the earliest first forward among `v`.
std::int64_t first_forward(const Decorated& v) {
  std::int64_t first = -1;
  for (const auto& m : v) {
    const std::int64_t t = m->first_forward_ns();
    if (t >= 0 && (first < 0 || t < first)) first = t;
  }
  return first;
}

void emit_flops(Json& j, const std::vector<nn::Module*>& experts,
                const data::Dataset& test) {
  j.key("flops_per_forward").open('[');
  for (nn::Module* e : experts) j.integer(e->analyze(test.sample_shape()).flops);
  j.close(']');
}

sim::ScenarioConfig fleet_scenario() {
  sim::ScenarioConfig cfg;
  cfg.device = sim::jetson_tx2_cpu();
  cfg.link = sim::socket_link();
  cfg.scheduler = sim::Scheduler::discrete_event;
  return cfg;
}

/// One rung of the fleet_mlp_k4 ladder: offered rate and steady queries
/// per --seconds.
struct Rung {
  double rate_qps;
  int queries_per_second;
};

/// The BENCH_*.json 50 q/s rung, then rungs through the K=4 knee (service
/// ~4.5 ms, so saturation ~220 q/s) and past it. slo_qps rests on the p99
/// of the knee rungs, which is the noisiest statistic here, so they run
/// twice as many queries.
const std::vector<Rung> kLadder = {{50, 250},  {150, 500}, {175, 500},
                                   {190, 500}, {205, 500}, {220, 250},
                                   {250, 250}};

load::LoadConfig rung_config(const Args& args, std::size_t rung, double rate,
                             int steady) {
  load::LoadConfig load;
  load.arrival.kind = load::ArrivalKind::open_poisson;
  load.arrival.rate_qps = rate;
  load.arrival.seed = derive_seed(args.seed, 100 + rung);
  load.query_seed = derive_seed(args.seed, 200 + rung);
  load.warmup_queries = std::max(10, steady / 10);
  load.num_queries = load.warmup_queries + steady;
  return load;
}

/// One pass over the ladder. Returns the rungs' virtual-clock records as a
/// JSON array (byte-stable per seed); wall seconds per rung go to `walls`.
std::string run_ladder(const Args& args, const std::vector<nn::Module*>& experts,
                       const data::Dataset& test, const Reference& ref,
                       std::vector<double>* walls) {
  const sim::ScenarioConfig cfg = fleet_scenario();
  Json j;
  j.open('[');
  for (std::size_t i = 0; i < kLadder.size(); ++i) {
    const double rate = kLadder[i].rate_qps;
    const load::LoadConfig load = rung_config(
        args, i, rate, kLadder[i].queries_per_second * args.seconds);
    const double t0 = now_s();
    const load::LoadResult r = load::run_teamnet_load(experts, test, cfg, load);
    walls->push_back(now_s() - t0);

    std::int64_t checked = 0;
    std::int64_t mismatches = 0;
    std::int64_t local_wins = 0;
    for (const auto& rec : r.records) {
      if (rec.degradation != 0) continue;  // full gathers have a reference
      ++checked;
      const auto row = static_cast<std::size_t>(rec.row);
      if ((rec.correct ? 1 : 0) != ref.correct[row]) ++mismatches;
      if (ref.chosen[row] == 0) ++local_wins;
    }
    // Critical-path ns per obs::CritKind and master queue wait, summed over
    // the steady-phase queries (exact integers).
    std::vector<std::int64_t> crit(obs::kNumCritKinds, 0);
    std::int64_t queue_ns = 0;
    for (std::size_t q = static_cast<std::size_t>(load.warmup_queries);
         q < r.attributions.size(); ++q) {
      const auto& a = r.attributions[q];
      for (int p = 0; p < obs::kNumAttrPhases; ++p) {
        crit[static_cast<std::size_t>(
            obs::kind_of(static_cast<obs::AttrPhase>(p)))] +=
            a.crit_ns[static_cast<std::size_t>(p)];
      }
      queue_ns +=
          a.e2e_ns[static_cast<std::size_t>(obs::AttrPhase::master_queue)];
    }

    j.open('{');
    j.key("rate_qps").num(rate);
    j.key("warmup").integer(load.warmup_queries);
    j.key("bytes_per_query").num(r.bytes_per_query);
    j.key("msgs_per_query").num(r.messages_per_query);
    j.key("schedule_digest").str(std::to_string(r.schedule_digest));
    j.key("checked").integer(checked);
    j.key("mismatches").integer(mismatches);
    j.key("local_wins").integer(local_wins);
    j.key("crit_ns").array(crit, [](Json& o, std::int64_t v) { o.integer(v); });
    j.key("queue_ns").integer(queue_ns);
    j.key("arrival_s").array(r.records, [](Json& o, const load::QueryRecord& x) {
      o.num(x.arrival_s);
    });
    j.key("completion_s")
        .array(r.records,
               [](Json& o, const load::QueryRecord& x) { o.num(x.completion_s); });
    j.key("correct").array(r.records, [](Json& o, const load::QueryRecord& x) {
      o.integer(x.correct ? 1 : 0);
    });
    j.key("degradation")
        .array(r.records, [](Json& o, const load::QueryRecord& x) {
          o.integer(x.degradation);
        });
    j.close('}');
  }
  j.close(']');
  return j.text();
}

sim::ResilienceConfig lossy_config(const Args& args) {
  // resilience_sweep's degraded mode at its 20% drop rung.
  sim::ResilienceConfig res;
  res.faults.seed = derive_seed(args.seed, 300);
  res.faults.drop_prob = 0.2;
  res.faults.duplicate_prob = 0.2 / 4;
  res.worker_timeout_s = 0.05;
  res.probe_interval = 2;
  res.quorum = 3;
  res.hedging = true;
  res.health = true;
  return res;
}

/// One sequential run under faults. Returns its virtual-clock results as a
/// JSON object (byte-stable per seed); wall seconds go to `walls`.
std::string run_lossy(const Args& args, const std::vector<nn::Module*>& experts,
                      const data::Dataset& test, const Reference& ref,
                      std::vector<double>* walls) {
  sim::ScenarioConfig cfg = fleet_scenario();
  cfg.num_queries = std::max(400, 400 * args.seconds);
  cfg.seed = derive_seed(args.seed, 301);
  const double t0 = now_s();
  const sim::ResilienceResult r =
      sim::run_teamnet_resilience(experts, test, cfg, lossy_config(args));
  walls->push_back(now_s() - t0);
  // The driver serves rows sample_query_rows(test, n, cfg.seed); replaying
  // the draw pairs every answer with its reference.
  const auto rows = sim::sample_query_rows(test, cfg.num_queries, cfg.seed);
  std::int64_t checked = 0;
  std::int64_t mismatches = 0;
  std::int64_t local_wins = 0;
  for (std::size_t q = 0; q < rows.size(); ++q) {
    if (r.degradation[q] != 0) continue;
    ++checked;
    const auto row = static_cast<std::size_t>(rows[q]);
    if (r.correct[q] != ref.correct[row]) ++mismatches;
    if (ref.chosen[row] == 0) ++local_wins;
  }
  Json j;
  j.open('{');
  j.key("queries").integer(cfg.num_queries);
  j.key("bytes_per_query").num(r.scenario.bytes_per_query);
  j.key("msgs_per_query").num(r.scenario.messages_per_query);
  j.key("schedule_digest").str(std::to_string(r.scenario.schedule_digest));
  j.key("checked").integer(checked);
  j.key("mismatches").integer(mismatches);
  j.key("local_wins").integer(local_wins);
  j.key("latency_ms").array(r.latency_ms, [](Json& o, double v) { o.num(v); });
  j.key("correct").array(r.correct, [](Json& o, char v) { o.integer(v); });
  j.key("degradation").array(r.degradation, [](Json& o, int v) { o.integer(v); });
  j.key("counters").open('{');
  j.key("quorum_gathers").integer(r.quorum_gathers);
  j.key("local_only_gathers").integer(r.local_only_gathers);
  j.key("hedges_sent").integer(r.hedges_sent);
  j.key("hedge_wins").integer(r.hedge_wins);
  j.key("stale_replies").integer(r.stale_replies);
  j.key("breaker_opens").integer(r.breaker_opens);
  j.key("rejoins").integer(r.rejoins);
  j.close('}');
  j.close('}');
  return j.text();
}

/// fleet_mlp_k4 and fleet_lossy_k4: the MNIST quadro-node team on the
/// discrete_event clock, through two drivers of the same serving layer.
std::string run_fleet(const Args& args) {
  const bench::Options opts = bench_options(args);
  const bool lossy = args.workload == "fleet_lossy_k4";

  // Set-up: dataset build + checkpoint load + mesh and worker spawn, up to
  // the first expert forward of a two-query run. Repeated; the last
  // repetition's team is the one measured.
  std::vector<double> setup_s;
  std::optional<bench::MnistSetup> setup;
  std::optional<bench::TrainedTeam> team;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    setup.emplace(bench::mnist_setup(opts));
    team.emplace(bench::train_mnist_teamnet(*setup, 4, opts));
    const Decorated probes = decorate(team->expert_ptrs());
    if (lossy) {
      sim::ScenarioConfig cfg = fleet_scenario();
      cfg.num_queries = 2;
      sim::run_teamnet_resilience(as_modules(probes), setup->test, cfg,
                                  lossy_config(args));
    } else {
      load::LoadConfig load = rung_config(args, 0, kLadder[0].rate_qps, 1);
      load.warmup_queries = 1;
      load.num_queries = 2;
      load::run_teamnet_load(as_modules(probes), setup->test, fleet_scenario(),
                             load);
    }
    setup_s.push_back(static_cast<double>(first_forward(probes) - t0) * 1e-9);
  }

  const std::vector<nn::Module*> experts = team->expert_ptrs();
  const data::Dataset& test = setup->test;
  const Reference ref = compute_reference(experts, test);
  auto run_once = [&](const std::vector<nn::Module*>& serving,
                      std::vector<double>* walls) {
    return lossy ? run_lossy(args, serving, test, ref, walls)
                 : run_ladder(args, serving, test, ref, walls);
  };

  Json j;
  j.open('{');
  j.key("workload").str(args.workload);
  j.key("setup_s").array(setup_s, [](Json& o, double v) { o.num(v); });
  emit_flops(j, experts, test);

  // End-to-end pass: bare experts, spans off.
  std::vector<double> walls;
  const std::string plain = run_once(experts, &walls);
  // Memory high-water mark of the measured pass, before the traced pass.
  const double rss_mb = peak_rss_mb();
  j.key("result").raw(plain);
  j.key("wall_s").array(walls, [](Json& o, double v) { o.num(v); });

  if (args.trace) {
    // Traced pass: the same inputs through decorated experts with spans on.
    // The decorators must be transparent: identical virtual results.
    const Decorated traced = decorate(experts);
    std::vector<double> traced_walls;
    SpanLog::instance().set_enabled(true);
    const std::string with_spans = run_once(as_modules(traced), &traced_walls);
    SpanLog::instance().set_enabled(false);
    j.key("traced_wall_s")
        .array(traced_walls, [](Json& o, double v) { o.num(v); });
    j.key("decorators_transparent").integer(plain == with_spans ? 1 : 0);
    emit_spans(j, SpanLog::instance().take());
    emit_codec(j, experts, test);
  }
  j.key("peak_rss_mb").num(rss_mb);
  j.close('}');
  return j.text();
}

/// A K-node TeamNet over loopback TCP inside this process: worker threads
/// serve experts 1..K-1 on their accepted connections; the master holds
/// expert 0. Both ends of every connection sit behind a TracedChannel.
class TcpDeployment {
 public:
  explicit TcpDeployment(const std::vector<nn::Module*>& experts) {
    try {
      for (std::size_t i = 1; i < experts.size(); ++i) {
        // Connect before accept: the kernel completes the handshake from
        // the listen backlog, so no thread ever blocks in accept.
        net::TcpListener listener(0);
        channels_.push_back(std::make_unique<TracedChannel>(
            net::tcp_connect("127.0.0.1", listener.port())));
        auto worker_end = std::make_unique<TracedChannel>(listener.accept());
        threads_.emplace_back(
            [this, expert = experts[i], channel = std::move(worker_end)] {
              try {
                net::CollaborativeWorker worker(*expert, *channel);
                worker.serve();
              } catch (const Error& e) {
                worker_errors_.fetch_add(1);
                std::fprintf(stderr, "worker: %s\n", e.what());
              }
            });
      }
    } catch (...) {
      for (auto& c : channels_) c->close();  // fails the workers' recv
      for (auto& t : threads_) t.join();
      throw;
    }
    std::vector<net::Channel*> ptrs;
    for (const auto& c : channels_) ptrs.push_back(c.get());
    master_ = std::make_unique<net::CollaborativeMaster>(*experts[0], ptrs);
  }
  ~TcpDeployment() { close(); }
  TcpDeployment(const TcpDeployment&) = delete;
  TcpDeployment& operator=(const TcpDeployment&) = delete;

  /// Shuts the workers down, joins them and returns how many failed.
  int close() {
    if (master_) {
      try {
        master_->shutdown();
      } catch (const Error& e) {
        std::fprintf(stderr, "shutdown: %s\n", e.what());
      }
      master_.reset();
    }
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    return worker_errors_.load();
  }

  net::CollaborativeMaster& master() { return *master_; }
  const std::vector<std::unique_ptr<TracedChannel>>& channels() const {
    return channels_;
  }

 private:
  std::vector<std::unique_ptr<TracedChannel>> channels_;
  std::unique_ptr<net::CollaborativeMaster> master_;
  std::atomic<int> worker_errors_{0};
  std::vector<std::thread> threads_;
};

struct TcpPhase {
  std::vector<double> latency_ms;
  std::vector<char> ok;       ///< answered and equal to the reference
  std::vector<char> correct;  ///< prediction equals the label
  std::int64_t errors = 0;
  std::int64_t local_wins = 0;
  double wall_s = 0.0;
};

/// Closed loop, one client, back to back for `seconds` of wall time. Rows
/// walk a seeded permutation of the test set, so every row is served
/// equally often. Each query is timed from the previous completion (its
/// due time in a closed loop) to its own.
TcpPhase tcp_phase(TcpDeployment& dep, const data::Dataset& test,
                   const Reference& ref, const std::vector<int>& order,
                   std::size_t* cursor, double seconds, bool spans) {
  TcpPhase phase;
  SpanLog& log = SpanLog::instance();
  log.set_enabled(spans);
  const std::int64_t t_start = now_ns();
  std::int64_t t_due = t_start;
  while (static_cast<double>(t_due - t_start) * 1e-9 < seconds) {
    const int row = order[*cursor % order.size()];
    ++*cursor;
    log.current_qid.store(static_cast<std::int64_t>(*cursor));
    bool ok = false;
    bool correct = false;
    try {
      std::optional<net::CollaborativeMaster::Result> res;
      {
        ScopedSpan span("net.service");
        res.emplace(dep.master().infer(sim::query_row_tensor(test, row)));
      }
      const auto r = static_cast<std::size_t>(row);
      ok = res->predictions[0] == ref.prediction[r] &&
           res->chosen[0] == ref.chosen[r] &&
           res->degradation == net::DegradationLevel::full;
      correct = res->predictions[0] == test.labels[r];
      if (res->chosen[0] == 0) ++phase.local_wins;
    } catch (const Error& e) {
      ++phase.errors;
      std::fprintf(stderr, "query failed: %s\n", e.what());
    }
    const std::int64_t t_done = now_ns();
    phase.latency_ms.push_back(static_cast<double>(t_done - t_due) * 1e-6);
    phase.ok.push_back(ok ? 1 : 0);
    phase.correct.push_back(correct ? 1 : 0);
    t_due = t_done;
  }
  phase.wall_s = static_cast<double>(t_due - t_start) * 1e-9;
  log.set_enabled(false);
  return phase;
}

void emit_tcp_phase(Json& j, const char* name, const TcpPhase& p) {
  j.key(name).open('{');
  j.key("wall_s").num(p.wall_s);
  j.key("errors").integer(p.errors);
  j.key("local_wins").integer(p.local_wins);
  j.key("latency_ms").array(p.latency_ms, [](Json& o, double v) { o.num(v); });
  j.key("ok").array(p.ok, [](Json& o, char v) { o.integer(v); });
  j.key("correct").array(p.correct, [](Json& o, char v) { o.integer(v); });
  j.close('}');
}

/// tcp_cnn_k2: the CIFAR double-node team over real loopback TCP.
std::string run_tcp(const Args& args) {
  const bench::Options opts = bench_options(args);
  std::vector<double> setup_s;
  std::optional<bench::CifarSetup> setup;
  std::optional<bench::TrainedTeam> team;
  Decorated experts;
  std::unique_ptr<TcpDeployment> dep;
  // Set-up: dataset build + checkpoint load + worker spawn and connect.
  // Repeated; the last repetition's deployment is the one measured.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dep.reset();
    const std::int64_t t0 = now_ns();
    setup.emplace(bench::cifar_setup(opts));
    team.emplace(bench::train_cifar_teamnet(*setup, 2, opts));
    experts = decorate(team->expert_ptrs());
    dep = std::make_unique<TcpDeployment>(as_modules(experts));
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const data::Dataset& test = setup->test;
  // The reference runs on the bare experts while the worker sits idle in
  // recv, before any query is sent.
  const Reference ref = compute_reference(team->expert_ptrs(), test);

  std::vector<int> order(static_cast<std::size_t>(test.size()));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(derive_seed(args.seed, 400));
  for (std::size_t i = order.size(); i > 1; --i) {
    const int pick = rng.randint(0, static_cast<int>(i) - 1);
    std::swap(order[i - 1], order[static_cast<std::size_t>(pick)]);
  }
  std::size_t cursor = 0;

  Json j;
  j.open('{');
  j.key("workload").str(args.workload);
  j.key("setup_s").array(setup_s, [](Json& o, double v) { o.num(v); });
  emit_flops(j, team->expert_ptrs(), test);

  // Warm-up (caches, page faults, socket buffers); counted, not timed.
  const TcpPhase warm = tcp_phase(*dep, test, ref, order, &cursor, 0.3, false);
  emit_tcp_phase(j, "warmup", warm);

  auto totals = [&dep](std::int64_t* msgs, std::int64_t* bytes) {
    *msgs = 0;
    *bytes = 0;
    for (const auto& c : dep->channels()) {
      *msgs += c->messages();
      *bytes += c->bytes();
    }
  };
  std::int64_t msgs0 = 0;
  std::int64_t bytes0 = 0;
  totals(&msgs0, &bytes0);
  const double measure_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const TcpPhase plain =
      tcp_phase(*dep, test, ref, order, &cursor, measure_s, false);
  const double rss_mb = peak_rss_mb();
  std::int64_t msgs1 = 0;
  std::int64_t bytes1 = 0;
  totals(&msgs1, &bytes1);
  const auto n = static_cast<double>(plain.ok.size());
  j.key("msgs_per_query").num(static_cast<double>(msgs1 - msgs0) / n);
  j.key("bytes_per_query").num(static_cast<double>(bytes1 - bytes0) / n);
  emit_tcp_phase(j, "measured", plain);

  if (args.trace) {
    const TcpPhase traced =
        tcp_phase(*dep, test, ref, order, &cursor, measure_s, true);
    emit_tcp_phase(j, "traced", traced);
    emit_spans(j, SpanLog::instance().take());
    emit_codec(j, team->expert_ptrs(), test);
  }
  j.key("counters").open('{');
  j.key("quorum_gathers").integer(dep->master().quorum_gathers());
  j.key("local_only_gathers").integer(dep->master().local_only_gathers());
  j.key("hedges_sent").integer(dep->master().hedges_sent());
  j.key("hedge_wins").integer(dep->master().hedge_wins());
  j.key("stale_replies").integer(dep->master().stale_replies_discarded());
  j.key("breaker_opens").integer(0);  // no health tracker on this path
  j.key("rejoins").integer(dep->master().rejoins());
  j.close('}');
  j.key("worker_errors").integer(dep->close());
  j.key("peak_rss_mb").num(rss_mb);
  j.close('}');
  return j.text();
}

/// Trains (or loads from the cache) every team the workloads serve, so
/// that training never lands inside a measured run.
void prepare(const Args& args) {
  const bench::Options opts = bench_options(args);
  const bench::MnistSetup mnist = bench::mnist_setup(opts);
  bench::train_mnist_teamnet(mnist, 4, opts);
  const bench::CifarSetup cifar = bench::cifar_setup(opts);
  bench::train_cifar_teamnet(cifar, 2, opts);
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --prepare [--cache DIR]\n"
               "       %s --workload fleet_mlp_k4|fleet_lossy_k4|tcp_cnn_k2 "
               "--seed N --seconds S --trace 0|1 --out FILE [--cache DIR]\n",
               argv0, argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--prepare") {
      args.prepare = true;
    } else if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::stoull(value());
    } else if (a == "--seconds") {
      args.seconds = std::stoi(value());
    } else if (a == "--trace") {
      args.trace = value() == "1";
    } else if (a == "--cache") {
      args.cache = value();
    } else if (a == "--out") {
      args.out = value();
    } else {
      usage(argv[0]);
    }
  }
  if (!args.prepare &&
      (args.out.empty() || args.seconds < 1 ||
       (args.workload != "fleet_mlp_k4" && args.workload != "fleet_lossy_k4" &&
        args.workload != "tcp_cnn_k2"))) {
    usage(argv[0]);
  }
  return args;
}

int main_impl(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Protocol warnings (missed deadlines under injected drops) are expected
  // on the lossy workload and would only cost time.
  log::set_level(log::Level::Error);
  if (args.prepare) {
    prepare(args);
    return 0;
  }
  const std::string doc =
      args.workload == "tcp_cnn_k2" ? run_tcp(args) : run_fleet(args);
  std::ofstream os(args.out, std::ios::binary);
  os << doc << '\n';
  os.flush();
  if (!os.good()) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
