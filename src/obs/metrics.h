// Unified metrics registry: named counters, gauges and log-scale
// histograms with near-zero-cost increments.
//
// Every node owns one MetricsRegistry (inside its statistical module);
// subsystems register instruments once — registration takes a mutex — and
// then increment through plain relaxed atomics on the hot path. A
// MetricsSnapshot is the uniform frozen/serializable/mergeable form every
// export path speaks: the kStatsReport trailer the super-peer aggregates,
// the human-readable text reports, and the machine-readable JSON the
// benches emit all render the SAME snapshot, so they cannot drift. The
// trailer is the only way a node's counters reach a super-peer: besides
// the registry it carries the node's cost ledger (`cost.*`) and durability
// counters (`storage.*`), merged in by StatisticsModule::SerializeAll.
//
// Metric naming scheme (dotted, lowercase): `<subsystem>.<what>[.<detail>]`
//   net.messages, net.bytes, net.msgs.UPDATE_DATA (the network's cost
//   ledger, obs/cost_ledger.h), update.data_msgs_in, query.results_in,
//   storage.wal.records, update.handler_us (histogram).
// Histograms are log2-bucketed: bucket 0 holds the value 0, bucket i>0
// holds values in [2^(i-1), 2^i).

#ifndef CODB_OBS_METRICS_H_
#define CODB_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"
#include "relation/wire.h"
#include "util/status.h"

namespace codb {

enum class MetricKind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// 0 plus one bucket per power of two up to 2^63.
inline constexpr size_t kHistogramBuckets = 65;

// Bucket index of a recorded value: 0 for 0, 1 + floor(log2(v)) otherwise.
inline size_t HistogramBucketOf(uint64_t value) {
  return value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
}

// Inclusive lower bound of a bucket.
inline uint64_t HistogramBucketLow(size_t bucket) {
  return bucket == 0 ? 0 : uint64_t{1} << (bucket - 1);
}

class Histogram {
 public:
  void Record(uint64_t value) {
    buckets_[HistogramBucketOf(value)].fetch_add(1,
                                                 std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t BucketCount(size_t bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

// Frozen value of one metric; histograms keep only non-empty buckets.
struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  int64_t value = 0;  // counter/gauge reading; histogram total count
  uint64_t sum = 0;   // histograms only
  std::vector<std::pair<uint32_t, uint64_t>> buckets;  // (index, count)

  void Merge(const MetricValue& other);
};

struct MetricsSnapshot {
  std::map<std::string, MetricValue> entries;

  bool empty() const { return entries.empty(); }

  // Convenience builders for adapting legacy counter structs.
  void SetCounter(const std::string& name, uint64_t value);
  void SetGauge(const std::string& name, int64_t value);

  // Point-wise merge: counters/gauges/histogram buckets add.
  void Merge(const MetricsSnapshot& other);

  void SerializeTo(WireWriter& writer) const;
  static Result<MetricsSnapshot> DeserializeFrom(WireReader& reader);

  // Machine-readable form: {"name": value, ...}; histograms expand into
  // an object with count/sum/mean/p50/p99/buckets.
  JsonValue ToJson() const;

  // The one human-readable formatter. Every text report that shows
  // metrics renders through here, so the human and machine paths agree.
  // `indent` is prepended to every line.
  std::string Render(const std::string& indent = "  ") const;

  // Approximate quantile (0..1) of a histogram entry from its buckets;
  // returns the lower bound of the bucket holding the quantile.
  static uint64_t Quantile(const MetricValue& hist, double q);
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration is idempotent and returns a stable pointer the caller
  // should cache; increments through it are lock-free. Registering an
  // existing name with a different kind returns the existing instrument
  // of the requested kind under a kind-suffixed name (never nullptr).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

 private:
  struct Instrument {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Instrument& Register(const std::string& name, MetricKind kind);
  Instrument& RegisterLocked(const std::string& name, MetricKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Instrument> instruments_;
};

}  // namespace codb

#endif  // CODB_OBS_METRICS_H_
