#include "micro_common.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace teamnet::bench {
namespace {

using obs::json_double;
using obs::json_escape;

const char* time_unit_name(benchmark::TimeUnit unit) {
  switch (unit) {
    case benchmark::kNanosecond: return "ns";
    case benchmark::kMicrosecond: return "us";
    case benchmark::kMillisecond: return "ms";
    case benchmark::kSecond: return "s";
  }
  return "?";
}

/// Console output as usual, plus one collected row per finished run.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    std::int64_t iterations = 0;
    double real_time = 0.0;  ///< per-iteration, in `unit`
    double cpu_time = 0.0;
    std::string unit;
    double items_per_second = -1.0;  ///< < 0 = not reported
    double bytes_per_second = -1.0;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      row.iterations = run.iterations;
      row.real_time = run.GetAdjustedRealTime();
      row.cpu_time = run.GetAdjustedCPUTime();
      row.unit = time_unit_name(run.time_unit);
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) row.items_per_second = items->second;
      const auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) row.bytes_per_second = bytes->second;
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

std::string basename_of(const char* path) {
  const std::string s(path);
  const std::size_t slash = s.find_last_of('/');
  return slash == std::string::npos ? s : s.substr(slash + 1);
}

int write_json(const std::string& path, const std::string& experiment,
               const std::vector<CollectingReporter::Row>& rows) {
  std::ofstream os(path);
  if (!os.good()) {
    std::fprintf(stderr, "cannot open --json output file: %s\n",
                 path.c_str());
    return 1;
  }
  os << "{\n  \"experiment\": \"" << json_escape(experiment)
     << "\",\n  \"results\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    os << (i == 0 ? "" : ",") << "\n    {\"name\": \"" << json_escape(r.name)
       << "\", \"iterations\": " << r.iterations
       << ", \"real_time\": " << json_double(r.real_time)
       << ", \"cpu_time\": " << json_double(r.cpu_time) << ", \"time_unit\": \""
       << r.unit << "\"";
    if (r.items_per_second >= 0.0) {
      os << ", \"items_per_second\": " << json_double(r.items_per_second);
    }
    if (r.bytes_per_second >= 0.0) {
      os << ", \"bytes_per_second\": " << json_double(r.bytes_per_second);
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
  if (!os.good()) {
    std::fprintf(stderr, "failed writing --json output file: %s\n",
                 path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int micro_main(int argc, char** argv) {
  // Strip `--json PATH` before benchmark::Initialize sees (and rejects) it.
  // The console reporter is fixed, so another --benchmark_format would be
  // silently ignored: reject it instead.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    const std::string_view arg = argv[i];
    if (arg.starts_with("--benchmark_format=") &&
        arg != "--benchmark_format=console") {
      std::fprintf(stderr,
                   "%s: unsupported %s: results print to the console; "
                   "use --json PATH for machine-readable rows\n",
                   argv[0], argv[i]);
      return 1;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  args.push_back(nullptr);

  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    return write_json(json_path, basename_of(argv[0]), reporter.rows());
  }
  return 0;
}

}  // namespace teamnet::bench
