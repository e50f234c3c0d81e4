// Shared types of the coDB benchmark program: sample sets, clocks and the
// per-op record every workload returns.

#ifndef CODB_PERFBENCH_BENCH_H_
#define CODB_PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace codb::perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// A failing call leaves the run without a result: report it and exit.
[[noreturn]] inline void Fatal(const std::string& what,
                               const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

inline void MustOk(const Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what, status);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what, result.status());
  return std::move(result).value();
}

// Measurements of one quantity, in the order they were taken.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }

  // Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - static_cast<double>(lo)) *
                            (sorted[hi] - sorted[lo]);
  }

  // Samples strictly above the `percentile` quantile.
  size_t Beyond(double percentile) const {
    const double cut = Quantile(percentile / 100.0);
    size_t beyond = 0;
    for (double v : values_) beyond += v > cut ? 1 : 0;
    return beyond;
  }

 private:
  std::vector<double> values_;
};

// The operations a workload's closed loop runs.
enum class OpKind { kFullUpdate, kIncrUpdate, kDistQuery, kLocalQuery };
inline constexpr int kOpKinds = 4;

// The percentiles a tail may stand for.
inline constexpr double kTailPercentiles[] = {70, 75, 90,  95,
                                              98, 99, 99.5, 99.9};

// One operation of a closed loop: its latency, its simulated completion
// time and the benchmark's own timing of each public call it made.
struct OpResult {
  OpKind kind = OpKind::kFullUpdate;
  double wall_us = 0;     // first call through the last return
  double virtual_us = 0;  // simulated time the network needed (0: local)
  // Benchmark-side spans: layer metric name -> microseconds in the call.
  std::vector<std::pair<const char*, double>> calls;
  // Serialized bytes of the rows the op inserted (WAL amplification base).
  uint64_t user_bytes = 0;
};

}  // namespace codb::perfbench

#endif  // CODB_PERFBENCH_BENCH_H_
