#include "workloads.h"

#include <algorithm>
#include <filesystem>

#include "core/oracle.h"
#include "query/homomorphism.h"
#include "query/parser.h"
#include "relation/wire.h"
#include "util/random.h"

namespace codb::perfbench {

namespace {

// Inserted rows get keys clear of every seeded range (node i owns
// [i * 10000, i * 10000 + rows)).
constexpr int64_t kFreshKeyBase = 100'000'000;
constexpr int kDeltaRows = 10;

// splitmix64 finaliser: independent streams derived from the run seed.
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Times one public call into `result.calls`.
template <typename Call>
auto Timed(OpResult& result, const char* layer, Call&& call) {
  Clock::time_point start = Clock::now();
  auto value = call();
  result.calls.emplace_back(layer, MicrosSince(start));
  return value;
}

std::vector<Tuple> FreshRows(Rng& rng, uint64_t index) {
  std::vector<Tuple> rows;
  for (int j = 0; j < kDeltaRows; ++j) {
    rows.push_back(Tuple{
        Value::Int(kFreshKeyBase + static_cast<int64_t>(index) * kDeltaRows +
                   j),
        Value::Int(rng.UniformInt(0, 99))});
  }
  return rows;
}

uint64_t EncodedBytes(const std::vector<Tuple>& rows) {
  WireWriter writer;
  writer.WriteTuples(rows);
  return writer.size();
}

std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

::codb::WorkloadOptions Shape(int nodes, int rows, RuleStyle style,
                              uint64_t seed) {
  ::codb::WorkloadOptions shape;
  shape.nodes = nodes;
  shape.tuples_per_node = rows;
  shape.style = style;
  shape.seed = seed;
  return shape;
}

// InsertLocal of `rows` at `node` through quiescence of the incremental
// update they seed: the update op of incr_stream and query_mix.
OpResult RunIncremental(Testbed& bed, Node& node,
                        const std::vector<Tuple>& rows, FlowId* flow) {
  OpResult result;
  result.kind = OpKind::kIncrUpdate;
  result.user_bytes = EncodedBytes(rows);
  const int64_t virtual_start = bed.network().now_us();
  const Clock::time_point start = Clock::now();
  MustOk(Timed(result, "wrapper.insert_local_us",
               [&] { return node.InsertLocal("d", rows); }),
         "InsertLocal");
  *flow = Must(Timed(result, "core.start_us",
                     [&] { return node.StartIncrementalUpdate(); }),
               "StartIncrementalUpdate");
  Timed(result, "net.run_us", [&] { return bed.network().Run(); });
  result.wall_us = MicrosSince(start);
  result.virtual_us =
      static_cast<double>(bed.network().now_us() - virtual_start);
  return result;
}

// A peer of a fanout-2 tree (MakeTree) at `depth`, uniformly.
std::string PeerAtDepth(Rng& rng, int depth) {
  const uint64_t width = uint64_t{1} << depth;
  return NodeName(static_cast<int>(width - 1 + rng.Uniform(width)));
}

// Draws from a fixed multiset in seeded order, reshuffling when it runs
// out, so every full deck of ops has exactly the intended mix: run-to-run
// differences come from the system, not from sampling the mix.
class Deck {
 public:
  Deck(std::vector<int> cards, uint64_t seed)
      : cards_(std::move(cards)), rng_(seed), next_(cards_.size()) {}

  int Draw() {
    if (next_ == cards_.size()) {
      rng_.Shuffle(cards_);
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<int> cards_;
  Rng rng_;
  size_t next_;
};

std::vector<int> Range(int first, int last, int step) {
  std::vector<int> values;
  for (int v = first; v <= last; v += step) values.push_back(v);
  return values;
}

// A copy tree built and synchronised by one full update from the root,
// several times per run for setup_s. Every row inserted at any peer must
// reach the root n0.
class SyncedWorkload : public Workload {
 public:
  int setups() const override { return 3; }

  int FinalChecks(std::string* report) override {
    CheckRoot();
    *report += "root holds " + std::to_string(inserted_total_ - missing_) +
               " of " + std::to_string(inserted_total_) +
               " inserted rows\n";
    return missing_ == 0 ? 0 : 1;
  }

 protected:
  // Checks the current deployment's inserted rows at its root, then drops
  // it.
  void Retire() {
    if (bed_ != nullptr) CheckRoot();
    bed_.reset();
  }

  void BuildAndSync(const Testbed::Options& options) {
    Retire();
    Create(options);
    const Clock::time_point start = Clock::now();
    FlowId sync = Must(bed_->RunGlobalUpdate("n0"), "set-up sync");
    if (!bed_->AllComplete(sync)) {
      Fatal("set-up sync", Status::Internal("update did not complete"));
    }
    sync_s_.Add(MicrosSince(start) / 1e6);
    setup_s_.Add(create_s_.values().back() + sync_s_.values().back());
  }

  void RecordInserted(const std::vector<Tuple>& rows) {
    inserted_.insert(inserted_.end(), rows.begin(), rows.end());
  }

 private:
  // Counts the current deployment's inserted rows missing at the root.
  void CheckRoot() {
    const Relation* d = NodeOf(*bed_, "n0").database().Find("d");
    for (const Tuple& row : inserted_) {
      if (d == nullptr || !d->Contains(row)) ++missing_;
    }
    inserted_total_ += inserted_.size();
    inserted_.clear();
  }

  std::vector<Tuple> inserted_;
  size_t inserted_total_ = 0;
  size_t missing_ = 0;
};

class FullSync : public Workload {
 public:
  explicit FullSync(const WorkloadOptions& options) : options_(options) {}

  OpKind headline() const override { return OpKind::kFullUpdate; }
  double tail_percentile() const override { return 70; }
  int setups() const override { return 0; }
  uint64_t ops_per_window() const override { return 4; }
  void SetUp() override {}

  void Prepare(uint64_t index) override {
    bed_.reset();
    generated_ = MakeChain(Shape(16, 800, RuleStyle::kJoinCopy,
                                 Mix(options_.seed, index)));
    Testbed::Options bed_options;
    bed_options.profiling = options_.profiling;
    Create(bed_options);
    setup_s_.Add(create_s_.values().back());
  }

  OpResult Run(uint64_t) override {
    OpResult result;
    result.kind = OpKind::kFullUpdate;
    Node& root = NodeOf(*bed_, "n0");
    const int64_t virtual_start = bed_->network().now_us();
    const Clock::time_point start = Clock::now();
    flow_ = Must(Timed(result, "core.start_us",
                       [&] { return root.StartGlobalUpdate(); }),
                 "StartGlobalUpdate");
    Timed(result, "net.run_us", [&] { return bed_->network().Run(); });
    result.wall_us = MicrosSince(start);
    result.virtual_us =
        static_cast<double>(bed_->network().now_us() - virtual_start);
    return result;
  }

  bool Check(const OpResult&) override { return bed_->AllComplete(flow_); }

  int FinalChecks(std::string* report) override {
    // The last op's stores against the path-bounded oracle at every peer;
    // join-copy rules mint no nulls, so the certain parts are the whole
    // stores.
    NetworkInstance expected = Must(
        Oracle::PathBounded(generated_.config, generated_.seeds), "oracle");
    NetworkInstance actual = bed_->Snapshot();
    int differing = 0;
    for (const auto& [name, instance] : expected) {
      auto it = actual.find(name);
      if (it == actual.end() ||
          CertainPart(instance) != CertainPart(it->second)) {
        ++differing;
      }
    }
    *report += "oracle: " + std::to_string(differing) + " of " +
               std::to_string(expected.size()) + " peers differ (last op)\n";
    return differing == 0 ? 0 : 1;
  }

 private:
  WorkloadOptions options_;
  FlowId flow_;
};

class IncrStream : public SyncedWorkload {
 public:
  explicit IncrStream(const WorkloadOptions& options)
      : options_(options),
        rng_(Mix(options.seed, 1)),
        depths_({1, 2, 3, 4, 5}, Mix(options.seed, 3)),
        storage_(options.scratch_dir + "/incr_stream") {
    ::codb::WorkloadOptions shape =
        Shape(63, 1000, RuleStyle::kCopy, options.seed);
    shape.tree_fanout = 2;
    generated_ = MakeTree(shape);
  }
  ~IncrStream() override {
    bed_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(storage_, ignored);
  }

  OpKind headline() const override { return OpKind::kIncrUpdate; }
  double tail_percentile() const override { return 99.5; }
  // At the seed commit latency grows with the updates a deployment has
  // already run; whole streams of 500 updates make every run measure the
  // same stretch of that growth.
  uint64_t ops_per_deployment() const override { return 500; }

  void SetUp() override {
    // Durable storage with the StorageOptions defaults: flush each WAL
    // append, no automatic checkpoints. Each set-up starts on empty disk.
    Retire();
    std::error_code ignored;
    std::filesystem::remove_all(storage_, ignored);
    std::filesystem::create_directories(storage_);
    Testbed::Options bed_options;
    bed_options.profiling = options_.profiling;
    bed_options.storage.directory = storage_;
    BuildAndSync(bed_options);
  }

  void Prepare(uint64_t index) override {
    // Depths 1..5 equally often: the update's path to the root is 1 to 5
    // hops long.
    peer_ = PeerAtDepth(rng_, depths_.Draw());
    rows_ = FreshRows(rng_, index);
  }

  OpResult Run(uint64_t) override {
    OpResult result =
        RunIncremental(*bed_, NodeOf(*bed_, peer_), rows_, &flow_);
    RecordInserted(rows_);
    return result;
  }

  bool Check(const OpResult&) override { return bed_->AllComplete(flow_); }

  int FinalChecks(std::string* report) override {
    int failed = SyncedWorkload::FinalChecks(report);
    // A crash-killed peer restarts from its checkpoint and WAL alone.
    const std::string victim = PeerAtDepth(rng_, depths_.Draw());
    auto before = NodeOf(*bed_, victim).database().Snapshot();
    MustOk(bed_->KillNode(victim), "KillNode");
    Node* revived = Must(bed_->RestartNode(victim), "RestartNode");
    auto after = revived->database().Snapshot();
    bool equal = before.size() == after.size();
    for (auto& [relation, rows] : before) {
      auto it = after.find(relation);
      equal = equal && it != after.end() &&
              Sorted(rows) == Sorted(it->second);
    }
    *report += "restart of " + victim + " from disk: store " +
               (equal ? "equal" : "DIFFERS") + "\n";
    return failed + (equal ? 0 : 1);
  }

 private:
  WorkloadOptions options_;
  Rng rng_;
  Deck depths_;
  std::string storage_;
  std::string peer_;
  std::vector<Tuple> rows_;
  FlowId flow_;
};

class QueryMix : public SyncedWorkload {
 public:
  // Ops 6:3:1 local query : distributed query : incremental update.
  // Query origins weigh depths 0..3 as 1:2:4:3 and update origins depths
  // 1..3 as 2:5:3: latency grows with the subtree a query covers or the
  // path an update travels, and these weights put each median well
  // inside one depth's share of the ops rather than on the edge between
  // two. Each op kind draws from decks of its own, and every deck divides
  // that kind's ops in a deployment (120, 60 and 20 of 200), so each
  // deployment runs the same number of ops of each kind at each depth,
  // form and selectivity, in a seeded order.
  explicit QueryMix(const WorkloadOptions& options)
      : options_(options),
        rng_(Mix(options.seed, 2)),
        kinds_({0, 0, 0, 0, 0, 0, 1, 1, 1, 2}, Mix(options.seed, 4)),
        update_depths_({1, 1, 2, 2, 2, 2, 2, 3, 3, 3}, Mix(options.seed, 7)),
        local_(options.seed, 5),
        dist_(options.seed, 6) {
    ::codb::WorkloadOptions shape =
        Shape(15, 2000, RuleStyle::kCopy, options.seed);
    shape.tree_fanout = 2;
    generated_ = MakeTree(shape);
  }

  OpKind headline() const override { return OpKind::kDistQuery; }
  double tail_percentile() const override { return 98; }
  // At the seed commit every distributed query keeps its store-sized
  // overlay; a fresh deployment every 200 ops bounds the run's memory.
  uint64_t ops_per_deployment() const override { return 200; }

  void SetUp() override {
    Testbed::Options bed_options;
    bed_options.profiling = options_.profiling;
    BuildAndSync(bed_options);
  }

  void Prepare(uint64_t index) override {
    static constexpr OpKind kKinds[] = {
        OpKind::kLocalQuery, OpKind::kDistQuery, OpKind::kIncrUpdate};
    kind_ = kKinds[kinds_.Draw()];
    if (kind_ == OpKind::kIncrUpdate) {
      peer_ = PeerAtDepth(rng_, update_depths_.Draw());
      rows_ = FreshRows(rng_, index);
      return;
    }
    QueryDecks& decks = kind_ == OpKind::kLocalQuery ? local_ : dist_;
    peer_ = PeerAtDepth(rng_, decks.depths.Draw());
    // Selections keep `bound` percent of d; a third of the queries join
    // d with the peer's local e.
    const std::string bound = std::to_string(decks.bounds.Draw());
    const std::string text =
        decks.joins.Draw() == 1
            ? "q(K, V, W) :- d(K, V), e(K, W), V < " + bound + "."
            : "q(K, V) :- d(K, V), V < " + bound + ".";
    query_ = Must(ParseQuery(text), "ParseQuery");
  }

  OpResult Run(uint64_t) override {
    Node& node = NodeOf(*bed_, peer_);
    if (kind_ == OpKind::kIncrUpdate) {
      OpResult result = RunIncremental(*bed_, node, rows_, &flow_);
      RecordInserted(rows_);
      return result;
    }
    OpResult result;
    result.kind = kind_;
    const int64_t virtual_start = bed_->network().now_us();
    const Clock::time_point start = Clock::now();
    if (kind_ == OpKind::kLocalQuery) {
      answers_ = Must(Timed(result, "core.query.local_us",
                            [&] { return node.LocalQuery(query_); }),
                      "LocalQuery");
    } else {
      flow_ = Must(Timed(result, "core.start_us",
                         [&] { return node.StartQuery(query_); }),
                   "StartQuery");
      Timed(result, "net.run_us", [&] { return bed_->network().Run(); });
      answers_ = Must(Timed(result, "core.query.answers_us",
                            [&] { return node.QueryAnswers(flow_); }),
                      "QueryAnswers");
    }
    result.wall_us = MicrosSince(start);
    result.virtual_us =
        static_cast<double>(bed_->network().now_us() - virtual_start);
    return result;
  }

  bool Check(const OpResult& result) override {
    switch (result.kind) {
      case OpKind::kIncrUpdate:
        return bed_->AllComplete(flow_);
      case OpKind::kDistQuery: {
        // The store is materialised, so fetching adds nothing a local
        // evaluation at the same peer does not already see.
        Node& node = NodeOf(*bed_, peer_);
        Result<std::vector<Tuple>> local = node.LocalQuery(query_);
        return node.QueryDone(flow_) && local.ok() &&
               Sorted(answers_) == Sorted(local.value());
      }
      default:
        return true;
    }
  }

 private:
  // The origin depth, form and selectivity of one kind of query.
  struct QueryDecks {
    QueryDecks(uint64_t seed, uint64_t stream)
        : depths({0, 1, 1, 2, 2, 2, 2, 3, 3, 3}, Mix(seed, stream)),
          joins({1, 0, 0}, Mix(seed, stream + 10)),
          bounds(Range(5, 100, 5), Mix(seed, stream + 20)) {}
    Deck depths;
    Deck joins;
    Deck bounds;
  };

  WorkloadOptions options_;
  Rng rng_;
  Deck kinds_;
  Deck update_depths_;
  QueryDecks local_;
  QueryDecks dist_;
  OpKind kind_ = OpKind::kLocalQuery;
  std::string peer_;
  ConjunctiveQuery query_;
  std::vector<Tuple> rows_;
  std::vector<Tuple> answers_;
  FlowId flow_;
};

}  // namespace

Node& NodeOf(Testbed& bed, const std::string& name) {
  Node* node = bed.node(name);
  if (node == nullptr) {
    Fatal("deployment", Status::NotFound("no node named '" + name + "'"));
  }
  return *node;
}

void Workload::Create(const Testbed::Options& options) {
  const Clock::time_point start = Clock::now();
  bed_ = Must(Testbed::Create(generated_, options), "Testbed::Create");
  create_s_.Add(MicrosSince(start) / 1e6);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadOptions& options) {
  if (name == "full_sync") return std::make_unique<FullSync>(options);
  if (name == "incr_stream") return std::make_unique<IncrStream>(options);
  if (name == "query_mix") return std::make_unique<QueryMix>(options);
  return nullptr;
}

}  // namespace codb::perfbench
