#include "storage/durability_stats.h"

namespace codb {

bool DurabilityStats::Any() const {
  return wal_records_appended != 0 || wal_bytes_appended != 0 ||
         wal_segments_created != 0 || wal_append_failures != 0 ||
         checkpoints_written != 0 || checkpoint_bytes_written != 0 ||
         recoveries != 0 || recovered_checkpoint_tuples != 0 ||
         recovered_wal_records != 0 || torn_tails_truncated != 0;
}

MetricsSnapshot DurabilityStats::ToSnapshot() const {
  MetricsSnapshot snapshot;
  snapshot.SetCounter("storage.wal.records", wal_records_appended);
  snapshot.SetCounter("storage.wal.bytes", wal_bytes_appended);
  snapshot.SetCounter("storage.wal.segments", wal_segments_created);
  snapshot.SetCounter("storage.wal.append_failures", wal_append_failures);
  snapshot.SetCounter("storage.checkpoints", checkpoints_written);
  snapshot.SetCounter("storage.checkpoint.bytes", checkpoint_bytes_written);
  snapshot.SetCounter("storage.checkpoint.wall_us",
                      static_cast<uint64_t>(checkpoint_wall_micros));
  snapshot.SetCounter("storage.recoveries", recoveries);
  snapshot.SetCounter("storage.recovered.checkpoint_tuples",
                      recovered_checkpoint_tuples);
  snapshot.SetCounter("storage.recovered.wal_records",
                      recovered_wal_records);
  snapshot.SetCounter("storage.torn_tails", torn_tails_truncated);
  snapshot.SetCounter("storage.recovery.wall_us",
                      static_cast<uint64_t>(recovery_wall_micros));
  return snapshot;
}

}  // namespace codb
