// Experiment Q1 — microbenchmarks of the conjunctive-query engine and the
// wire layer (google-benchmark). These are the per-node building blocks
// whose cost the distributed experiments aggregate.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/export_memory.h"
#include "relation/wire.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/rule.h"
#include "relation/database.h"
#include "util/random.h"

namespace codb {
namespace {

// Builds r(a,b) with `rows` rows, keys dense, b in [0, fanout).
Database MakeDb(int64_t rows, int64_t fanout) {
  Database db;
  db.CreateRelation(RelationSchema(
      "r", {{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  db.CreateRelation(RelationSchema(
      "s", {{"b", ValueType::kInt}, {"c", ValueType::kInt}}));
  Rng rng(1);
  Relation* r = db.Find("r");
  Relation* s = db.Find("s");
  for (int64_t i = 0; i < rows; ++i) {
    r->Insert(Tuple{Value::Int(i),
                    Value::Int(static_cast<int64_t>(rng.Uniform(
                        static_cast<uint64_t>(fanout))))});
    s->Insert(Tuple{Value::Int(i % fanout), Value::Int(i)});
  }
  return db;
}

void BM_ScanFilter(benchmark::State& state) {
  Database db = MakeDb(state.range(0), 100);
  CompiledQuery q = std::move(CompiledQuery::Compile(
                                  ParseQuery("q(A) :- r(A, B), B < 50.")
                                      .value(),
                                  db.Schema(), {"A"}))
                        .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.Evaluate(db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanFilter)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_HashJoin(benchmark::State& state) {
  Database db = MakeDb(state.range(0), 100);
  CompiledQuery q = std::move(CompiledQuery::Compile(
                                  ParseQuery("q(A, C) :- r(A, B), s(B, C).")
                                      .value(),
                                  db.Schema(), {"A", "C"}))
                        .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.Evaluate(db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(10000);

void BM_DeltaEvaluation(benchmark::State& state) {
  Database db = MakeDb(state.range(0), 100);
  CompiledQuery q = std::move(CompiledQuery::Compile(
                                  ParseQuery("q(A, C) :- r(A, B), s(B, C).")
                                      .value(),
                                  db.Schema(), {"A", "C"}))
                        .value();
  std::vector<Tuple> delta = {Tuple{Value::Int(-1), Value::Int(5)}};
  db.Find("r")->Insert(delta[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.EvaluateDelta(db, "r", delta));
  }
}
BENCHMARK(BM_DeltaEvaluation)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RuleFrontierAndInstantiate(benchmark::State& state) {
  Database db = MakeDb(state.range(0), 100);
  DatabaseSchema importer;
  importer.AddRelation(RelationSchema(
      "d", {{"a", ValueType::kInt}, {"z", ValueType::kInt}}));
  CoordinationRule rule(
      "r1", "importer", "exporter",
      ParseQuery("d(A, Z) :- r(A, B).").value());
  rule.Compile(db.Schema(), importer);
  NullMinter minter(1);
  for (auto _ : state) {
    std::vector<Tuple> frontiers = rule.EvaluateFrontier(db);
    size_t produced = 0;
    for (const Tuple& f : frontiers) {
      produced += rule.InstantiateHead(f, minter).size();
    }
    benchmark::DoNotOptimize(produced);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RuleFrontierAndInstantiate)->Arg(1000)->Arg(10000);

void BM_WireTupleRoundTrip(benchmark::State& state) {
  std::vector<Tuple> tuples;
  Rng rng(2);
  for (int64_t i = 0; i < state.range(0); ++i) {
    tuples.push_back(Tuple{Value::Int(i), Value::String(rng.RandomString(8)),
                           Value::Null(1, static_cast<uint64_t>(i))});
  }
  for (auto _ : state) {
    WireWriter writer;
    writer.WriteTuples(tuples);
    std::vector<uint8_t> bytes = writer.Take();
    WireReader reader(bytes);
    benchmark::DoNotOptimize(reader.ReadTuples());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireTupleRoundTrip)->Arg(100)->Arg(1000);

// Join with string keys: r(a, b:str) ⋈ s(b:str, c). Against BM_HashJoin
// (identical shape, int keys) this isolates the cost of string
// equality/hashing on the join hot path — the gap interning closes.
void BM_StringHashJoin(benchmark::State& state) {
  Database db;
  db.CreateRelation(RelationSchema(
      "r", {{"a", ValueType::kInt}, {"b", ValueType::kString}}));
  db.CreateRelation(RelationSchema(
      "s", {{"b", ValueType::kString}, {"c", ValueType::kInt}}));
  Rng rng(3);
  Relation* r = db.Find("r");
  Relation* s = db.Find("s");
  constexpr int64_t kFanout = 100;
  std::vector<std::string> keys;
  for (int64_t k = 0; k < kFanout; ++k) {
    // Long common prefix: byte-wise comparisons must walk the whole key.
    keys.push_back("warehouse/region-7/shelf-" + std::to_string(k));
  }
  for (int64_t i = 0; i < state.range(0); ++i) {
    r->Insert(Tuple{Value::Int(i),
                    Value::String(
                        keys[rng.Uniform(static_cast<uint64_t>(kFanout))])});
    s->Insert(Tuple{Value::String(keys[static_cast<uint64_t>(i) % kFanout]),
                    Value::Int(i)});
  }
  CompiledQuery q = std::move(CompiledQuery::Compile(
                                  ParseQuery("q(A, C) :- r(A, B), s(B, C).")
                                      .value(),
                                  db.Schema(), {"A", "C"}))
                        .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.Evaluate(db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StringHashJoin)->Arg(1000)->Arg(10000);

// The fixpoint pattern of the global-update algorithm: every incoming
// delta batch inserts into a relation and immediately probes it again for
// the next semi-naive pass. With invalidate-on-insert each probe rebuilds
// the whole index (quadratic in delta count); with append-on-insert the
// loop is near-linear — compare total time across the 10x/100x Args.
void BM_InsertProbeFixpoint(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Relation r(RelationSchema(
        "r", {{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
    state.ResumeTiming();
    size_t matched = 0;
    for (int64_t i = 0; i < state.range(0); ++i) {
      r.Insert(Tuple{Value::Int(i % 16), Value::Int(i)});
      matched += r.Probe(0, Value::Int(i % 16)).size();
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InsertProbeFixpoint)->Arg(100)->Arg(1000)->Arg(10000);

// Multi-bound probe: after t(A,B,C) binds A and B, u(A,B) has *two* bound
// columns. A single-column index scans the whole bucket and filters
// tuple-by-tuple; a composite index jumps straight to the matches.
void BM_MultiBoundProbe(benchmark::State& state) {
  Database db;
  db.CreateRelation(RelationSchema("t", {{"a", ValueType::kInt},
                                         {"b", ValueType::kInt},
                                         {"c", ValueType::kInt}}));
  db.CreateRelation(RelationSchema(
      "u", {{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  Relation* t = db.Find("t");
  Relation* u = db.Find("u");
  // Few distinct `a` values -> huge single-column buckets; (a, b) pairs
  // are selective.
  for (int64_t i = 0; i < state.range(0); ++i) {
    t->Insert(Tuple{Value::Int(i % 4), Value::Int(i), Value::Int(i)});
    u->Insert(Tuple{Value::Int(i % 4), Value::Int(i)});
  }
  CompiledQuery q = std::move(CompiledQuery::Compile(
                                  ParseQuery("q(C) :- t(A, B, C), u(A, B).")
                                      .value(),
                                  db.Schema(), {"C"}))
                        .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.Evaluate(db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MultiBoundProbe)->Arg(1000)->Arg(10000);

// Primitive-level composite probe vs single-column probe + filter, on the
// same data shape as BM_MultiBoundProbe (selective pair, fat single-column
// bucket). Isolates the index from the join machinery around it.
void BM_CompositeProbePrimitive(benchmark::State& state) {
  Relation u(RelationSchema(
      "u", {{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  for (int64_t i = 0; i < state.range(0); ++i) {
    u.Insert(Tuple{Value::Int(i % 4), Value::Int(i)});
  }
  const std::vector<int> columns = {0, 1};
  size_t matched = 0;
  for (auto _ : state) {
    for (int64_t i = 0; i < state.range(0); ++i) {
      if (state.range(1) != 0) {
        matched +=
            u.ProbeComposite(columns, {Value::Int(i % 4), Value::Int(i)})
                .size();
      } else {
        for (uint32_t row : u.Probe(0, Value::Int(i % 4))) {
          if (u.rows()[row].at(1) == Value::Int(i)) ++matched;
        }
      }
    }
  }
  benchmark::DoNotOptimize(matched);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompositeProbePrimitive)
    ->ArgsProduct({{1000, 10000}, {0, 1}});

void BM_RelationInsertNew(benchmark::State& state) {
  std::vector<Tuple> batch;
  for (int64_t i = 0; i < state.range(0); ++i) {
    batch.push_back(Tuple{Value::Int(i), Value::Int(i)});
  }
  for (auto _ : state) {
    state.PauseTiming();
    Relation r(RelationSchema(
        "r", {{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
    state.ResumeTiming();
    benchmark::DoNotOptimize(r.InsertNew(batch));
    benchmark::DoNotOptimize(r.InsertNew(batch));  // all-duplicate pass
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_RelationInsertNew)->Arg(1000)->Arg(10000);

// The insert a global update pays at every hop: fresh rows into a relation
// whose column-0 index a rule body already probes, so each insert also
// links the row into that index (BM_RelationInsertNew builds none).
void BM_RelationInsertIndexed(benchmark::State& state) {
  std::vector<Tuple> batch;
  for (int64_t i = 0; i < state.range(0); ++i) {
    batch.push_back(Tuple{Value::Int(i), Value::Int(i % 100)});
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto r = std::make_unique<Relation>(RelationSchema(
        "r", {{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
    r->Probe(0, Value::Int(0));
    state.ResumeTiming();
    for (const Tuple& t : batch) r->Insert(t);
    benchmark::DoNotOptimize(r->size());
    state.PauseTiming();
    r.reset();  // freed off the clock
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RelationInsertIndexed)->Arg(10000)->Arg(100000);

// One full flow's shipments through a link's export memory: 100-frontier
// batches, each new, then the same batches again (every one a within-flow
// duplicate the memory drops).
void BM_ExportMemoryAdmit(benchmark::State& state) {
  std::vector<std::vector<Tuple>> shipments(
      static_cast<size_t>(state.range(0) / 100));
  for (int64_t i = 0; i < state.range(0); ++i) {
    shipments[static_cast<size_t>(i / 100)].push_back(
        Tuple{Value::Int(i), Value::Int(i % 7)});
  }
  size_t kept = 0;
  const std::string rule = "r1";
  for (auto _ : state) {
    state.PauseTiming();
    auto memory = std::make_unique<ExportMemory>();
    const uint64_t epoch = memory->NewEpoch();
    std::vector<std::vector<Tuple>> batches = shipments;
    std::vector<std::vector<Tuple>> again = shipments;
    state.ResumeTiming();
    for (std::vector<Tuple>& frontiers : batches) {
      memory->Admit(rule, epoch, /*incremental=*/false, frontiers);
      kept += frontiers.size();
    }
    for (std::vector<Tuple>& frontiers : again) {
      memory->Admit(rule, epoch, /*incremental=*/false, frontiers);
      kept += frontiers.size();
    }
    state.PauseTiming();
    memory.reset();  // freed off the clock, with the batches
    batches.clear();
    again.clear();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(kept);
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_ExportMemoryAdmit)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace codb

// Like BENCHMARK_MAIN(), but maps the harness-wide --json flag onto
// google-benchmark's native JSON reporter so run_experiments.sh can treat
// every bench uniformly.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static char format_flag[] = "--benchmark_format=json";
  for (char*& arg : args) {
    if (std::strcmp(arg, "--json") == 0) arg = format_flag;
  }
  int forwarded = static_cast<int>(args.size());
  benchmark::Initialize(&forwarded, args.data());
  if (benchmark::ReportUnrecognizedArguments(forwarded, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
