#include "core/export_memory.h"

namespace codb {

uint32_t ExportMemory::RuleMemory::Find(const Tuple& frontier) const {
  return index.Find(PositionTable::Fold(frontier.Hash()),
                    [&](uint32_t at) { return frontiers[at] == frontier; });
}

uint32_t ExportMemory::RuleMemory::FindOrAdd(const Tuple& frontier,
                                             uint64_t epoch) {
  const uint32_t found = index.FindOrInsert(
      PositionTable::Fold(frontier.Hash()),
      static_cast<uint32_t>(frontiers.size()),
      [&](uint32_t at) { return frontiers[at] == frontier; });
  if (found == PositionTable::kNone) {
    frontiers.push_back(frontier);
    epochs.push_back(epoch);
  }
  return found;
}

void ExportMemory::RuleMemory::Clear() {
  frontiers.Clear();
  std::vector<uint64_t>().swap(epochs);
  index.Clear();
}

void ExportMemory::SyncRules(
    const std::map<std::string, std::string>& fingerprints) {
  std::erase_if(rules_, [&](const auto& entry) {
    return fingerprints.count(entry.first) == 0;
  });
  for (const auto& [rule_id, fingerprint] : fingerprints) {
    RuleMemory& memory = rules_[rule_id];
    if (memory.fingerprint != fingerprint) {
      memory.Clear();
      memory.fingerprint = fingerprint;
    }
  }
}

uint64_t ExportMemory::NewEpoch() {
  return next_epoch_++;
}

size_t ExportMemory::Admit(const std::string& rule_id, uint64_t epoch,
                           bool incremental, std::vector<Tuple>& frontiers) {
  RuleMemory& memory = rules_[rule_id];
  size_t suppressed = 0;
  // erase_if visits the frontiers in order, so a batch's first copy of a
  // frontier is the one that stays.
  std::erase_if(frontiers, [&](const Tuple& frontier) {
    const uint32_t found = memory.FindOrAdd(frontier, epoch);
    if (found == PositionTable::kNone) return false;  // new
    uint64_t& shipped = memory.epochs[found];
    if (shipped == epoch) return true;  // this flow shipped it already
    if (incremental && shipped != kUnshipped) {
      ++suppressed;  // an earlier flow shipped it
      return true;
    }
    shipped = epoch;  // a full flow restates it, or it was forgotten
    return false;
  });
  return suppressed;
}

bool ExportMemory::Record(const std::string& rule_id, const Tuple& frontier) {
  RuleMemory& memory = rules_[rule_id];
  const uint32_t found = memory.FindOrAdd(frontier, 0);
  if (found == PositionTable::kNone) return true;
  if (memory.epochs[found] != kUnshipped) return false;
  memory.epochs[found] = 0;
  return true;
}

bool ExportMemory::Seen(const std::string& rule_id,
                        const Tuple& frontier) const {
  auto it = rules_.find(rule_id);
  if (it == rules_.end()) return false;
  const uint32_t found = it->second.Find(frontier);
  return found != PositionTable::kNone &&
         it->second.epochs[found] != kUnshipped;
}

void ExportMemory::Forget(const std::string& rule_id,
                          const std::vector<Tuple>& frontiers) {
  auto it = rules_.find(rule_id);
  if (it == rules_.end()) return;
  RuleMemory& memory = it->second;
  for (const Tuple& frontier : frontiers) {
    const uint32_t found = memory.Find(frontier);
    if (found != PositionTable::kNone) memory.epochs[found] = kUnshipped;
  }
}

void ExportMemory::Reset() {
  for (auto& [rule_id, memory] : rules_) memory.Clear();
}

}  // namespace codb
