// Per-link export memory: which frontiers this node has shipped to each
// importer, and which update flow shipped each one last (DESIGN.md §14).
// It is the only record of what a link has shipped, and it owns the
// whole "already shipped?" decision.
//
// Every update flow gets an epoch from NewEpoch() when the node first
// sees it, and each entry carries the epoch of the flow that last shipped
// it. For one shipment of flow e, Admit() keeps a frontier when
//   * it has no entry — new, recorded with e;
//   * its entry is an earlier flow's and e is a full flow — a full update
//     restates every export, so it re-ships and re-tags it with e;
// and drops it when
//   * its entry carries e — flow e already shipped it;
//   * its entry is an earlier flow's and e is incremental — the importer
//     holds it, so the semi-naive flow must not re-ship (or, for rules
//     with existential head variables, re-mint nulls for) it.
// The memory lives in the Node (like the update sequence counter) so it
// survives the manager rebuilds a reconfiguration performs. It takes no
// lock: every caller holds Node::mutex_ (DESIGN.md §10).
//
// Layout, per rule: every frontier that ever got an entry sits once in an
// append-only RowStore whose segments never move, its epoch at the same
// position of a flat array, and a PositionTable of those positions finds
// it by hash. Recording a frontier copies it into the store and costs no
// allocation of its own; growth allocates a segment or doubles an array.
//
// Invariant: a recorded frontier has been handed to the reliability
// layer for shipment to the importer. On a send failure the caller
// Forget()s the batch, which marks its entries unshipped (they stay in
// the store), trading a possible future re-ship (harmless: importers
// store sets) for never silently missing an export. A refresh update
// Reset()s the memory network-wide — its drop-and-rederive semantics
// restate every export from scratch, which is also how the memory
// recovers from an importer that lost its store.

#ifndef CODB_CORE_EXPORT_MEMORY_H_
#define CODB_CORE_EXPORT_MEMORY_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "relation/position_table.h"
#include "relation/row_store.h"
#include "relation/tuple.h"

namespace codb {

class ExportMemory {
 public:
  // Reconciles the memory with the current rule set: entries for rules
  // that disappeared are dropped, and an entry whose rule *definition*
  // changed (fingerprint mismatch) is cleared — frontiers recorded for
  // the old body say nothing about the new one. Called by the update
  // manager's Init on every reconfiguration.
  void SyncRules(const std::map<std::string, std::string>& fingerprints);

  // A fresh epoch for an update flow this node has just seen. Never 0
  // and never reused, also across manager rebuilds.
  uint64_t NewEpoch();

  // One shipment of flow `epoch` on `rule_id`: removes from `frontiers`
  // (keeping the order of the rest) every frontier the flow must not
  // ship, and records the rest as shipped by `epoch`. Returns how many
  // were dropped because an earlier flow shipped them (incremental flows
  // only).
  size_t Admit(const std::string& rule_id, uint64_t epoch, bool incremental,
               std::vector<Tuple>& frontiers);

  // Per-tuple forms. Record marks `frontier` shipped outside any flow
  // (epoch 0, earlier than every flow) and returns true when it had no
  // entry; Seen tells whether it has one.
  bool Record(const std::string& rule_id, const Tuple& frontier);
  bool Seen(const std::string& rule_id, const Tuple& frontier) const;

  // Marks a batch whose shipment failed unshipped, so a later shipment
  // may re-derive and re-ship it as if it had no entry.
  void Forget(const std::string& rule_id,
              const std::vector<Tuple>& frontiers);

  // Drops everything (refresh updates: every export is restated).
  void Reset();

 private:
  // The epoch of a forgotten entry: shipped by no flow.
  static constexpr uint64_t kUnshipped = std::numeric_limits<uint64_t>::max();

  struct RuleMemory {
    // Position of `frontier` in `frontiers`, or PositionTable::kNone.
    uint32_t Find(const Tuple& frontier) const;
    // Find, and when that finds nothing, appends `frontier` with `epoch`
    // and returns PositionTable::kNone.
    uint32_t FindOrAdd(const Tuple& frontier, uint64_t epoch);
    void Clear();

    std::string fingerprint;
    RowStore frontiers;            // every frontier with an entry
    std::vector<uint64_t> epochs;  // by position: flow that shipped it last
    PositionTable index;           // positions into `frontiers`
  };

  uint64_t next_epoch_ = 1;
  std::map<std::string, RuleMemory> rules_;
};

}  // namespace codb

#endif  // CODB_CORE_EXPORT_MEMORY_H_
