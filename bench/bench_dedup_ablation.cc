// Experiment E6 — dedup ablation (paper, section 3: "For performance
// reasons, it is important to avoid duplication in producing and
// propagating data", which motivates both the receiver-side T' = T \ R
// dedup and the exporter's record of shipped frontiers, the export
// memory).
//
// Runs the same grid update under all four dedup configurations and
// reports the traffic each produces. Grids deliver the same data along
// multiple simple paths, which is exactly the duplication the two
// mechanisms suppress.
//
// Expected shape: full dedup is the floor, and either mechanism alone
// reaches it; disabling both explodes the data-message count while final
// stores stay identical (set semantics). The binary gates that shape:
// it exits non-zero unless every configuration completes, the three with
// a dedup send the same data messages and bytes, and the one without
// sends more.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"

namespace codb {
namespace bench {
namespace {

void Run() {
  Print("E6: dedup ablation (4x4 grid, 20 tuples/node)\n");
  Print("%-22s | %7s %10s %9s %9s\n", "configuration", "dataM",
              "bytes", "virt(us)", "wall(ms)");

  WorkloadOptions options;
  options.grid_rows = 4;
  options.grid_cols = 4;
  options.tuples_per_node = 20;
  GeneratedNetwork generated = MakeGrid(options);

  struct Case {
    const char* name;
    bool dedup_received;
    bool dedup_sent;
  };
  const Case cases[] = {
      {"full dedup (paper)", true, true},
      {"no T'=T\\R dedup", false, true},
      {"no export-set dedup", true, false},
      {"no dedup at all", false, false},
  };

  std::vector<UpdateMetrics> results;
  for (const Case& c : cases) {
    Testbed::Options testbed_options;
    testbed_options.node.update.dedup_received = c.dedup_received;
    testbed_options.node.update.dedup_sent = c.dedup_sent;
    UpdateMetrics metrics = RunUpdate(generated, "n0", testbed_options);
    RecordScenario(c.name, metrics);
    Print("%-22s | %7llu %10llu %9lld %9.2f%s\n", c.name,
                static_cast<unsigned long long>(metrics.data_messages),
                static_cast<unsigned long long>(metrics.data_bytes),
                static_cast<long long>(metrics.virtual_us),
                metrics.wall_ms,
                metrics.completed ? "" : "  INCOMPLETE");
    results.push_back(std::move(metrics));
  }

  const UpdateMetrics& floor = results.front();
  const UpdateMetrics& no_dedup = results.back();
  bool ok = no_dedup.completed &&
            no_dedup.data_messages > floor.data_messages &&
            no_dedup.data_bytes > floor.data_bytes;
  for (size_t i = 0; i + 1 < results.size(); ++i) {
    ok = ok && results[i].completed &&
         results[i].data_messages == floor.data_messages &&
         results[i].data_bytes == floor.data_bytes;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "E6 GATE FAILED: every configuration must complete, the "
                 "three with a dedup must send equal data messages and "
                 "bytes, and no dedup at all must send more\n");
    std::exit(1);
  }
}

}  // namespace
}  // namespace bench
}  // namespace codb

int main(int argc, char** argv) {
  return codb::bench::BenchMain(argc, argv, codb::bench::Run);
}
