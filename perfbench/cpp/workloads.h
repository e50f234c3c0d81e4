// The benchmark's three workloads. Each is a closed loop with one client
// and one operation in flight on the deterministic simulator at the node
// defaults (one evaluator thread, no worker threads, membership off): the
// next op starts when NetworkBase::Run() has returned.
//
//   full_sync    a fresh 16 x 800 join-copy chain per op, one full global
//                update from n0 (engine-bound: evaluation, insert/index,
//                dedup, encode).
//   incr_stream  a 63-peer copy tree x 1000 rows with durable storage,
//                synchronised once per 500 ops; each op inserts 10 rows at
//                a seeded peer and runs an incremental update (dispatch,
//                termination, WAL and retained per-flow state).
//   query_mix    a materialised 15-peer copy tree x 2000 rows serving
//                local queries, distributed queries and incremental
//                updates 6:3:1 from peers at every depth, rebuilt every
//                200 ops.
//
// The loop runs whole windows that each hold the same mix of ops (one
// deployment; four ops of full_sync).

#ifndef CODB_PERFBENCH_WORKLOADS_H_
#define CODB_PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>

#include "bench.h"
#include "workload/testbed.h"

namespace codb::perfbench {

struct WorkloadOptions {
  uint64_t seed = 1;
  // Testbed::Options::profiling: cost ledger and queue profiler (the
  // traced run only; timed runs keep them off).
  bool profiling = false;
  // Directory for durable storage; emptied before every set-up.
  std::string scratch_dir;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // The networked op whose latency is the workload's headline.
  virtual OpKind headline() const = 0;
  // The tail percentile reported for it: the highest of kTailPercentiles
  // with at least ten samples beyond it in the quieter half of a run of
  // the benchmark's length. Fixed per workload, so that all runs report
  // the same percentile.
  virtual double tail_percentile() const = 0;
  // How many set-ups a run measures before its loop (0: the loop builds
  // one deployment per op and times that instead).
  virtual int setups() const = 0;
  // The loop replaces the deployment (untimed) after this many ops; 0
  // keeps one deployment for the run.
  virtual uint64_t ops_per_deployment() const { return 0; }
  // The loop runs whole windows of this many ops, each with the same mix
  // of ops; the end-to-end metrics pool the quieter half of them.
  virtual uint64_t ops_per_window() const { return ops_per_deployment(); }

  // Replaces the deployment with a freshly built and synchronised one.
  virtual void SetUp() = 0;
  // Untimed preparation of op `index` (seeded inputs; full_sync builds
  // the op's deployment here).
  virtual void Prepare(uint64_t index) = 0;
  // The timed op.
  virtual OpResult Run(uint64_t index) = 0;
  // Untimed output check of the op just run; false counts it as failed.
  virtual bool Check(const OpResult& result) = 0;
  // Output checks after the measured phase; appends one line per check
  // to `report` and returns the number that failed.
  virtual int FinalChecks(std::string* report) = 0;

  Testbed& bed() { return *bed_; }
  const GeneratedNetwork& generated() const { return generated_; }
  // Seconds of each Testbed::Create and of each set-up synchronisation.
  const Samples& create_s() const { return create_s_; }
  const Samples& sync_s() const { return sync_s_; }
  // Whole set-ups: Create plus sync, one sample per deployment built.
  const Samples& setup_s() const { return setup_s_; }

 protected:
  // Builds bed_ from generated_ and records the Create time.
  void Create(const Testbed::Options& options);

  std::unique_ptr<Testbed> bed_;
  GeneratedNetwork generated_;
  Samples create_s_;
  Samples sync_s_;
  Samples setup_s_;
};

// The named node of `bed`; exits when it is missing.
Node& NodeOf(Testbed& bed, const std::string& name);

// Null for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadOptions& options);

}  // namespace codb::perfbench

#endif  // CODB_PERFBENCH_WORKLOADS_H_
