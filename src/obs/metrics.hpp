// Process-wide metrics registry (DESIGN.md §10 "Observability").
//
// Four metric kinds, all safe to update from any thread with no external
// locking and all cheap enough for protocol hot paths:
//
//   Counter    monotone int64, SHARDED: each thread adds into one of a
//              fixed set of cache-line-padded atomic cells (thread-id
//              hashed), so concurrent senders never bounce one cache line.
//              total() sums the shards on demand.
//   Gauge      last-write-wins double (atomic store/load).
//   Histogram  fixed bucket upper edges set at creation; observe() is one
//              atomic increment on the bucket found by binary search, plus
//              a CAS-add into the running sum.
//   Series     append-only vector of doubles under a leaf mutex — for
//              per-iteration training curves (gate γ̄, objective), where
//              the full sequence IS the result and updates are off the
//              inference hot path.
//
// The registry maps stable names to metric instances; a metric, once
// created, lives for the process (pointers stay valid, lookups after the
// first can be cached by the caller). snapshot() returns ordered copies of
// every value so the JSON emission is byte-stable for a deterministic run.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"

namespace teamnet::obs {

class Counter {
 public:
  static constexpr int kShards = 16;

  void add(std::int64_t delta) {
    cells_[shard_index()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }

  /// Sum over all shards. Concurrent adds may or may not be included —
  /// the usual monotone-counter read contract.
  std::int64_t total() const {
    std::int64_t sum = 0;
    for (const Cell& cell : cells_) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::int64_t> value{0};
  };

  static std::size_t shard_index();

  std::array<Cell, kShards> cells_{};
};

class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  /// `upper_edges` must be strictly increasing; values above the last edge
  /// land in an implicit overflow bucket.
  explicit Histogram(std::vector<double> upper_edges);

  void observe(double value);

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& upper_edges() const { return upper_edges_; }
  /// Per-bucket counts; index upper_edges().size() is the overflow bucket.
  std::vector<std::int64_t> bucket_counts() const;

 private:
  const std::vector<double> upper_edges_;
  std::unique_ptr<std::atomic<std::int64_t>[]> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class Series {
 public:
  void append(double value) {
    MutexLock lock(mutex_);
    values_.push_back(value);
  }
  std::vector<double> values() const {
    MutexLock lock(mutex_);
    return values_;
  }
  std::size_t size() const {
    MutexLock lock(mutex_);
    return values_.size();
  }

 private:
  mutable Mutex mutex_;
  std::vector<double> values_ TN_GUARDED_BY(mutex_);
};

struct HistogramSnapshot {
  std::vector<double> upper_edges;
  std::vector<std::int64_t> bucket_counts;  ///< last entry = overflow
  std::int64_t count = 0;
  double sum = 0.0;
};

/// Ordered (std::map — deterministic iteration) copies of every metric.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, std::vector<double>> series;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Find-or-create. The returned reference is valid for the process
  /// lifetime; callers on hot paths should look up once and keep the
  /// pointer. Creating the same histogram name with different edges throws
  /// InvariantError.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& upper_edges);
  Series& series(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// Drops every registered metric (tests and bench isolation only — any
  /// cached Counter*/Gauge* held by callers dangles after this).
  void reset_for_testing();

 private:
  MetricsRegistry() = default;

  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      TN_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ TN_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      TN_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Series>> series_ TN_GUARDED_BY(mutex_);
};

/// Writes a snapshot of every registered metric as a JSON document (the
/// `--metrics PATH` sink). Doubles are %.17g so a deterministic run writes
/// a byte-stable file. Throws teamnet::Error naming `path` on I/O failure.
void write_metrics_json(const std::string& path);

/// Fails fast when `path`'s parent directory does not exist, throwing a
/// teamnet::Error that names the path and the flag it came from — the
/// alternative is a bench that runs for minutes and then loses its output.
void require_writable_parent(const std::string& path, const std::string& flag);

}  // namespace teamnet::obs
