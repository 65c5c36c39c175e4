#include "load/breakdown.hpp"

#include <algorithm>
#include <cstdlib>

#include "obs/json.hpp"
#include "obs/percentile.hpp"

namespace teamnet::load {

namespace {

constexpr double kNsPerMs = 1e6;

void append_samples_json(std::string& out, const std::vector<double>& ms) {
  auto percentile = [&ms](double pct) {
    return obs::json_double(obs::published_percentile(
        obs::nearest_rank_percentile(ms, pct), ms.size(), pct));
  };
  out += "{\"count\": " + std::to_string(ms.size());
  out += ", \"mean_ms\": " + obs::json_double(obs::sample_mean(ms));
  out += ", \"p50_ms\": " + percentile(50.0);
  out += ", \"p95_ms\": " + percentile(95.0);
  out += ", \"p99_ms\": " + percentile(99.0);
  out += ", \"max_ms\": " +
         obs::json_double(obs::nearest_rank_percentile(ms, 100.0));
  out += "}";
}

const char* level_name(int level) {
  switch (level) {
    case 0:
      return "full";
    case 1:
      return "quorum";
    default:
      return "local_only";
  }
}

}  // namespace

double BreakdownSummary::crit_share(obs::AttrPhase phase) const {
  const std::int64_t total = crit_total_ns();
  if (total <= 0) return 0.0;
  return static_cast<double>(phases[static_cast<int>(phase)].crit_sum_ns) /
         static_cast<double>(total);
}

double BreakdownSummary::kind_share(obs::CritKind kind) const {
  const std::int64_t total = crit_total_ns();
  if (total <= 0) return 0.0;
  std::int64_t sum = 0;
  for (int p = 0; p < obs::kNumAttrPhases; ++p) {
    if (obs::kind_of(static_cast<obs::AttrPhase>(p)) == kind) {
      sum += phases[p].crit_sum_ns;
    }
  }
  return static_cast<double>(sum) / static_cast<double>(total);
}

double BreakdownSummary::dominant_kind_fraction(obs::CritKind kind) const {
  if (queries <= 0) return 0.0;
  return static_cast<double>(dominant_kind_queries[static_cast<int>(kind)]) /
         static_cast<double>(queries);
}

std::int64_t BreakdownSummary::crit_total_ns() const {
  std::int64_t total = 0;
  for (const PhaseBreakdown& p : phases) total += p.crit_sum_ns;
  return total;
}

BreakdownSummary summarize_attributions(
    const obs::AttributionSet& attrs, std::size_t skip_warmup) {
  BreakdownSummary s;

  for (std::size_t i = skip_warmup; i < attrs.size(); ++i) {
    const obs::QueryAttribution& a = attrs[i];
    s.queries += 1;
    const std::int64_t e2e_res = std::llabs(a.e2e_sum() - a.total_ns);
    const std::int64_t crit_res = std::llabs(a.crit_sum() - a.total_ns);
    if (e2e_res == 0 && crit_res == 0) s.reconciled += 1;
    s.max_residual_ns = std::max({s.max_residual_ns, e2e_res, crit_res});

    for (int p = 0; p < obs::kNumAttrPhases; ++p) {
      s.phases[p].e2e_sum_ns += a.e2e_ns[p];
      s.phases[p].crit_sum_ns += a.crit_ns[p];
      if (a.crit_ns[p] > 0) {
        s.phases[p].crit_ms.push_back(static_cast<double>(a.crit_ns[p]) /
                                      kNsPerMs);
      }
    }
    s.phases[static_cast<int>(a.dominant)].dominant_queries += 1;
    s.dominant_kind_queries[static_cast<int>(a.dominant_kind())] += 1;
    const double latency_ms = static_cast<double>(a.total_ns) / kNsPerMs;
    s.latency_ms.push_back(latency_ms);
    for (std::int64_t slack : attrs.straggler_slack_ns(a)) {
      s.straggler_slack_ms.push_back(static_cast<double>(slack) / kNsPerMs);
    }
    const int level = std::clamp<int>(a.degradation, 0, 2);
    s.levels[level].queries += 1;
    s.levels[level].latency_ms.push_back(latency_ms);
  }

  // Dominant phase of the RUN: largest aggregate critical contribution,
  // ties to the lowest enum value (master_queue first — the serial
  // master is the paper's expected bottleneck, so ties read as it).
  std::int64_t best = -1;
  for (int p = 0; p < obs::kNumAttrPhases; ++p) {
    if (s.phases[p].crit_sum_ns > best) {
      best = s.phases[p].crit_sum_ns;
      s.dominant_phase = static_cast<obs::AttrPhase>(p);
    }
  }
  return s;
}

void append_breakdown_json(std::string& out, const BreakdownSummary& s,
                           const std::string& indent) {
  const std::string in1 = indent + "  ";
  const std::string in2 = in1 + "  ";
  out += "{\n";
  out += in1 + "\"queries\": " + std::to_string(s.queries) + ",\n";
  out += in1 + "\"reconciled\": " + std::to_string(s.reconciled) + ",\n";
  out += in1 + "\"max_residual_ns\": " + std::to_string(s.max_residual_ns) +
         ",\n";
  out += in1 + "\"dominant_phase\": \"" +
         std::string(obs::to_string(s.dominant_phase)) + "\",\n";
  out += in1 + "\"dominant_share\": " +
         obs::json_double(s.crit_share(s.dominant_phase)) + ",\n";

  out += in1 + "\"phases\": {";
  bool first = true;
  for (int p = 0; p < obs::kNumAttrPhases; ++p) {
    const PhaseBreakdown& pb = s.phases[p];
    if (pb.e2e_sum_ns == 0 && pb.crit_sum_ns == 0 &&
        pb.dominant_queries == 0) {
      continue;  // keep rows readable; absent phase == all-zero phase
    }
    if (!first) out += ",";
    first = false;
    const auto phase = static_cast<obs::AttrPhase>(p);
    out += "\n" + in2 + "\"" + std::string(obs::to_string(phase)) + "\": ";
    out += "{\"e2e_ms_total\": " +
           obs::json_double(static_cast<double>(pb.e2e_sum_ns) / kNsPerMs);
    out += ", \"crit_ms_total\": " +
           obs::json_double(static_cast<double>(pb.crit_sum_ns) / kNsPerMs);
    out += ", \"crit_share\": " + obs::json_double(s.crit_share(phase));
    out += ", \"dominant_queries\": " + std::to_string(pb.dominant_queries);
    out += ", \"crit\": ";
    append_samples_json(out, pb.crit_ms);
    out += "}";
  }
  if (!first) out += "\n" + in1;
  out += "},\n";

  out += in1 + "\"kinds\": {";
  for (int k = 0; k < obs::kNumCritKinds; ++k) {
    const auto kind = static_cast<obs::CritKind>(k);
    if (k > 0) out += ",";
    out += "\n" + in2 + "\"" + std::string(obs::to_string(kind)) + "\": ";
    out += "{\"crit_share\": " + obs::json_double(s.kind_share(kind));
    out += ", \"dominant_queries\": " +
           std::to_string(s.dominant_kind_queries[k]);
    out += ", \"dominant_fraction\": " +
           obs::json_double(s.dominant_kind_fraction(kind));
    out += "}";
  }
  out += "\n" + in1 + "},\n";

  out += in1 + "\"latency\": ";
  append_samples_json(out, s.latency_ms);
  out += ",\n";
  out += in1 + "\"straggler_slack\": ";
  append_samples_json(out, s.straggler_slack_ms);
  out += ",\n";

  out += in1 + "\"levels\": {";
  for (int l = 0; l < 3; ++l) {
    if (l > 0) out += ",";
    out += "\n" + in2 + "\"" + std::string(level_name(l)) + "\": ";
    out += "{\"queries\": " + std::to_string(s.levels[l].queries);
    out += ", \"latency\": ";
    append_samples_json(out, s.levels[l].latency_ms);
    out += "}";
  }
  out += "\n" + in1 + "}\n";
  out += indent + "}";
}

}  // namespace teamnet::load
