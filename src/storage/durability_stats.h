// Counters and timings of the durable-storage subsystem, accumulated per
// node. They reach the super-peer as `storage.*` entries of the node's
// metrics snapshot (core/statistics.cc merges ToSnapshot() into the
// kStatsReport trailer).

#ifndef CODB_STORAGE_DURABILITY_STATS_H_
#define CODB_STORAGE_DURABILITY_STATS_H_

#include <cstdint>

#include "obs/metrics.h"

namespace codb {

struct DurabilityStats {
  uint64_t wal_records_appended = 0;
  uint64_t wal_bytes_appended = 0;
  uint64_t wal_segments_created = 0;
  uint64_t wal_append_failures = 0;
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_bytes_written = 0;
  uint64_t recoveries = 0;
  uint64_t recovered_checkpoint_tuples = 0;
  uint64_t recovered_wal_records = 0;
  uint64_t torn_tails_truncated = 0;
  double checkpoint_wall_micros = 0;
  double recovery_wall_micros = 0;

  // True once any durable activity happened (gates the snapshot).
  bool Any() const;

  // Uniform snapshot form under storage.* names. Every entry is a
  // counter, so merging nodes sums them — the wall timings too
  // (storage.*.wall_us, rounded to whole microseconds).
  MetricsSnapshot ToSnapshot() const;
};

}  // namespace codb

#endif  // CODB_STORAGE_DURABILITY_STATS_H_
