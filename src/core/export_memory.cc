#include "core/export_memory.h"

namespace codb {

void ExportMemory::SyncRules(
    const std::map<std::string, std::string>& fingerprints) {
  std::erase_if(rules_, [&](const auto& entry) {
    return fingerprints.count(entry.first) == 0;
  });
  for (const auto& [rule_id, fingerprint] : fingerprints) {
    RuleMemory& memory = rules_[rule_id];
    if (memory.fingerprint != fingerprint) {
      memory.shipped.clear();
      memory.fingerprint = fingerprint;
    }
  }
}

uint64_t ExportMemory::NewEpoch() {
  return next_epoch_++;
}

size_t ExportMemory::Admit(const std::string& rule_id, uint64_t epoch,
                           bool incremental, std::vector<Tuple>& frontiers) {
  std::unordered_map<Tuple, uint64_t, TupleHash>& shipped =
      rules_[rule_id].shipped;
  size_t suppressed = 0;
  // erase_if visits the frontiers in order, so a batch's first copy of a
  // frontier is the one that stays.
  std::erase_if(frontiers, [&](const Tuple& frontier) {
    auto [it, inserted] = shipped.try_emplace(frontier, epoch);
    if (inserted) return false;
    if (it->second == epoch) return true;  // this flow shipped it already
    if (incremental) {
      ++suppressed;  // an earlier flow shipped it
      return true;
    }
    it->second = epoch;  // a full flow restates it
    return false;
  });
  return suppressed;
}

bool ExportMemory::Record(const std::string& rule_id, const Tuple& frontier) {
  return rules_[rule_id].shipped.try_emplace(frontier, 0).second;
}

bool ExportMemory::Seen(const std::string& rule_id,
                        const Tuple& frontier) const {
  auto it = rules_.find(rule_id);
  return it != rules_.end() && it->second.shipped.count(frontier) != 0;
}

void ExportMemory::Forget(const std::string& rule_id,
                          const std::vector<Tuple>& frontiers) {
  auto it = rules_.find(rule_id);
  if (it == rules_.end()) return;
  for (const Tuple& frontier : frontiers) it->second.shipped.erase(frontier);
}

void ExportMemory::Reset() {
  for (auto& [rule_id, memory] : rules_) memory.shipped.clear();
}

}  // namespace codb
