#include "obs/metrics.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace teamnet::obs {

std::size_t Counter::shard_index() {
  // Hash the thread id once per thread; threads spread across the cells so
  // concurrent adds from the pool don't contend on one cache line.
  static thread_local const std::size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  return shard;
}

Histogram::Histogram(std::vector<double> upper_edges)
    : upper_edges_(std::move(upper_edges)),
      buckets_(new std::atomic<std::int64_t>[upper_edges_.size() + 1]) {
  TEAMNET_CHECK_MSG(!upper_edges_.empty(), "histogram needs >= 1 bucket edge");
  TEAMNET_CHECK_MSG(
      std::is_sorted(upper_edges_.begin(), upper_edges_.end()) &&
          std::adjacent_find(upper_edges_.begin(), upper_edges_.end()) ==
              upper_edges_.end(),
      "histogram bucket edges must be strictly increasing");
  for (std::size_t i = 0; i <= upper_edges_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double value) {
  const auto it =
      std::lower_bound(upper_edges_.begin(), upper_edges_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - upper_edges_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<std::int64_t> Histogram::bucket_counts() const {
  std::vector<std::int64_t> out(upper_edges_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

MetricsRegistry& MetricsRegistry::instance() {
  // Leaked on purpose: metric updates and the atexit metrics writer may run
  // during static destruction, after function-local statics are torn down.
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<double>& upper_edges) {
  MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(upper_edges);
  } else {
    TEAMNET_CHECK_MSG(slot->upper_edges() == upper_edges,
                      "histogram '" << name
                                    << "' re-registered with different edges");
  }
  return *slot;
}

Series& MetricsRegistry::series(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = series_[name];
  if (!slot) slot = std::make_unique<Series>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->total();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->get();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.upper_edges = histogram->upper_edges();
    h.bucket_counts = histogram->bucket_counts();
    h.count = histogram->count();
    h.sum = histogram->sum();
    snap.histograms[name] = std::move(h);
  }
  for (const auto& [name, series] : series_) {
    snap.series[name] = series->values();
  }
  return snap;
}

void MetricsRegistry::reset_for_testing() {
  MutexLock lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  series_.clear();
}

namespace {

template <typename Map, typename EmitValue>
void emit_json_map(std::ostream& os, const char* key, const Map& map,
                   EmitValue emit_value) {
  os << "  \"" << key << "\": {";
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) os << ",";
    first = false;
    os << "\n    \"" << json_escape(name) << "\": ";
    emit_value(os, value);
  }
  if (!first) os << "\n  ";
  os << "}";
}

void emit_double_array(std::ostream& os, const std::vector<double>& values) {
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ", ";
    os << json_double(values[i]);
  }
  os << "]";
}

}  // namespace

void write_metrics_json(const std::string& path) {
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) {
    throw Error("cannot open --metrics output file: " + path);
  }
  os << "{\n";
  emit_json_map(os, "counters", snap.counters,
                [](std::ostream& o, std::int64_t v) { o << v; });
  os << ",\n";
  emit_json_map(os, "gauges", snap.gauges,
                [](std::ostream& o, double v) { o << json_double(v); });
  os << ",\n";
  emit_json_map(os, "histograms", snap.histograms,
                [](std::ostream& o, const HistogramSnapshot& h) {
                  o << "{\"upper_edges\": ";
                  emit_double_array(o, h.upper_edges);
                  o << ", \"bucket_counts\": [";
                  for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
                    if (i > 0) o << ", ";
                    o << h.bucket_counts[i];
                  }
                  o << "], \"count\": " << h.count
                    << ", \"sum\": " << json_double(h.sum) << "}";
                });
  os << ",\n";
  emit_json_map(os, "series", snap.series, [](std::ostream& o,
                                              const std::vector<double>& v) {
    emit_double_array(o, v);
  });
  os << "\n}\n";
  os.flush();
  if (!os.good()) {
    throw Error("failed writing --metrics output file: " + path);
  }
}

void require_writable_parent(const std::string& path,
                             const std::string& flag) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (parent.empty()) return;  // relative file in the working directory
  std::error_code ec;
  if (!std::filesystem::is_directory(parent, ec)) {
    throw Error(flag + " output path '" + path +
                "': parent directory does not exist");
  }
}

}  // namespace teamnet::obs
