#include "workload/testbed.h"

#include <algorithm>

namespace codb {

namespace {

// Events a settle run may consume (discovery + config).
constexpr uint64_t kSettleEventCap = 1'000'000;

}  // namespace

Result<std::unique_ptr<Testbed>> Testbed::Create(
    const GeneratedNetwork& generated, Options options) {
  auto testbed = std::unique_ptr<Testbed>(new Testbed());
  testbed->generated_ = generated;
  testbed->options_ = options;
  if (options.threaded) {
    testbed->network_ = std::make_unique<ThreadedNetwork>();
  } else {
    testbed->network_ = std::make_unique<Network>();
  }
  // Profiling goes on before anything joins or sends, so discovery and
  // the config broadcast below — the O(n²) settle traffic the cost model
  // exists to expose — are fully profiled.
  if (options.profiling) testbed->network_->profiler().Enable();

  for (const NodeDecl& decl : generated.config.nodes()) {
    CODB_RETURN_IF_ERROR(testbed->SpawnNode(decl, /*seed=*/true).status());
  }

  // One super-peer per region. With S == 1 the single super keeps its
  // historical name and an empty region (= the whole network); with more,
  // the declarations are split into S contiguous regions.
  const size_t supers = static_cast<size_t>(
      std::max(1, std::min<int>(options.super_peers,
                                static_cast<int>(
                                    generated.config.nodes().size()))));
  const std::vector<NodeDecl>& decls = generated.config.nodes();
  for (size_t s = 0; s < supers; ++s) {
    std::string name =
        supers == 1 ? "super-peer" : "super-" + std::to_string(s);
    auto super = SuperPeer::Create(testbed->network_.get(), name);
    if (options.profiling) super->EnableProfiling();
    CODB_RETURN_IF_ERROR(super->LoadConfig(generated.config));
    if (supers > 1) {
      std::vector<std::string> region;
      const size_t begin = s * decls.size() / supers;
      const size_t end = (s + 1) * decls.size() / supers;
      for (size_t i = begin; i < end; ++i) {
        region.push_back(decls[i].name);
        testbed->region_of_[decls[i].name] = s;
      }
      super->SetRegion(std::move(region));
    }
    testbed->super_peers_.push_back(std::move(super));
  }
  for (auto& a : testbed->super_peers_) {
    for (auto& b : testbed->super_peers_) {
      if (a.get() != b.get()) a->AddFederationPeer(b->id());
    }
  }
  for (auto& super : testbed->super_peers_) {
    CODB_RETURN_IF_ERROR(super->BroadcastConfig());
  }
  testbed->network_->Run(kSettleEventCap);

  for (const auto& node : testbed->nodes_) {
    if (!node->has_config()) {
      return Status::Internal("node '" + node->name() +
                              "' did not receive the configuration");
    }
  }
  // Membership after the settle run: pipes exist, so the first beacon
  // tick reaches the real neighbour set. Beacons ride the maintenance
  // lane and never hold Run() open.
  if (options.membership) {
    for (const auto& node : testbed->nodes_) {
      CODB_RETURN_IF_ERROR(
          node->EnableMembership(options.membership_options));
    }
    for (auto& super : testbed->super_peers_) {
      CODB_RETURN_IF_ERROR(
          super->EnableMembership(options.membership_options));
    }
  }
  // Faults go live only once the deployment has settled: discovery and
  // the config broadcast above ran on a reliable network.
  if (options.fault.Active()) {
    testbed->network_->SetDefaultFaultProfile(options.fault);
  }
  return testbed;
}

Result<Node*> Testbed::SpawnNode(const NodeDecl& decl, bool seed) {
  DatabaseSchema schema;
  for (const RelationSchema& rel : decl.relations) {
    CODB_RETURN_IF_ERROR(schema.AddRelation(rel));
  }
  CODB_ASSIGN_OR_RETURN(
      std::unique_ptr<Node> node,
      Node::Create(network_.get(), decl.name, std::move(schema),
                   decl.mediator, options_.node));
  if (options_.profiling) node->EnableProfiling();

  if (seed) {
    auto it = generated_.seeds.find(decl.name);
    if (it != generated_.seeds.end()) {
      for (const auto& [relation, tuples] : it->second) {
        CODB_ASSIGN_OR_RETURN(Relation * r, node->database().Get(relation));
        for (const Tuple& tuple : tuples) r->Insert(tuple);
      }
    }
  }
  // Durability after seeding: the first enablement checkpoints the seed;
  // a restart recovers it from disk instead (hence no re-seed above).
  if (!options_.storage.directory.empty() && !decl.mediator) {
    StorageOptions per_node = options_.storage;
    per_node.directory += "/" + decl.name;
    CODB_RETURN_IF_ERROR(node->EnableDurability(per_node));
  }

  Node* raw = node.get();
  by_name_[decl.name] = raw;
  nodes_.push_back(std::move(node));
  return raw;
}

Node* Testbed::node(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

SuperPeer* Testbed::super_of(const std::string& name) {
  if (super_peers_.empty()) return nullptr;
  auto it = region_of_.find(name);
  if (it == region_of_.end()) {
    return region_of_.empty() ? super_peers_.front().get() : nullptr;
  }
  return super_peers_[it->second].get();
}

Status Testbed::KillNode(const std::string& name) {
  Node* victim = node(name);
  if (victim == nullptr) {
    return Status::NotFound("no node named '" + name + "'");
  }
  CODB_RETURN_IF_ERROR(network_->Leave(victim->id()));
  by_name_.erase(name);
  for (auto it = nodes_.begin(); it != nodes_.end(); ++it) {
    if (it->get() == victim) {
      graveyard_.push_back(std::move(*it));
      nodes_.erase(it);
      break;
    }
  }
  return Status::Ok();
}

Status Testbed::SilentKillNode(const std::string& name) {
  Node* victim = node(name);
  if (victim == nullptr) {
    return Status::NotFound("no node named '" + name + "'");
  }
  // A dead process sends nothing: stop the victim's own beacon loop.
  if (victim->membership() != nullptr) victim->membership()->Stop();
  // Partition every pipe, both directions, WITHOUT closing any of them:
  // peers get no pipe-closed courtesy and must detect the death.
  for (PeerId neighbor : network_->Neighbors(victim->id())) {
    CODB_RETURN_IF_ERROR(network_->SetFaultProfile(
        victim->id(), neighbor, FaultProfile::Partition()));
  }
  silently_dead_[name] = victim->id();
  by_name_.erase(name);
  for (auto it = nodes_.begin(); it != nodes_.end(); ++it) {
    if (it->get() == victim) {
      graveyard_.push_back(std::move(*it));
      nodes_.erase(it);
      break;
    }
  }
  return Status::Ok();
}

Result<Node*> Testbed::RestartNode(const std::string& name) {
  if (node(name) != nullptr) {
    return Status::FailedPrecondition("node '" + name +
                                      "' is already running");
  }
  const NodeDecl* decl = generated_.config.FindNode(name);
  if (decl == nullptr) {
    return Status::NotFound("no declaration for node '" + name + "'");
  }
  // A silently-killed zombie still holds the name's network slot; evict
  // it before the revived node joins under the same name.
  auto zombie = silently_dead_.find(name);
  if (zombie != silently_dead_.end()) {
    CODB_RETURN_IF_ERROR(network_->Leave(zombie->second));
    silently_dead_.erase(zombie);
  }
  CODB_ASSIGN_OR_RETURN(Node * revived, SpawnNode(*decl, /*seed=*/false));
  if (options_.membership) {
    CODB_RETURN_IF_ERROR(
        revived->EnableMembership(options_.membership_options));
  }
  // The node came back under a fresh peer id; re-broadcasting bumps the
  // config version, so every peer rebuilds its pipes and managers against
  // the revived node. Every super-peer broadcasts: rule partners of the
  // revived node may live in any region.
  for (auto& super : super_peers_) {
    CODB_RETURN_IF_ERROR(super->BroadcastConfig());
  }
  network_->Run(kSettleEventCap);
  if (!revived->has_config()) {
    return Status::Internal("restarted node '" + name +
                            "' did not receive the configuration");
  }
  return revived;
}

Result<FlowId> Testbed::RunGlobalUpdate(const std::string& initiator) {
  Node* start = node(initiator);
  if (start == nullptr) {
    return Status::NotFound("no node named '" + initiator + "'");
  }
  CODB_ASSIGN_OR_RETURN(FlowId update, start->StartGlobalUpdate());
  network_->Run();
  return update;
}

Result<FlowId> Testbed::RunGlobalRefresh(const std::string& initiator) {
  Node* start = node(initiator);
  if (start == nullptr) {
    return Status::NotFound("no node named '" + initiator + "'");
  }
  CODB_ASSIGN_OR_RETURN(FlowId update, start->StartGlobalRefresh());
  network_->Run();
  return update;
}

Result<FlowId> Testbed::RunIncrementalUpdate(const std::string& initiator) {
  Node* start = node(initiator);
  if (start == nullptr) {
    return Status::NotFound("no node named '" + initiator + "'");
  }
  CODB_ASSIGN_OR_RETURN(FlowId update, start->StartIncrementalUpdate());
  network_->Run();
  return update;
}

bool Testbed::AllComplete(const FlowId& update) const {
  for (const auto& node : nodes_) {
    const UpdateManager* manager = node->update_manager();
    if (manager == nullptr) return false;
    if (manager->IsJoined(update) && !manager->IsComplete(update)) {
      return false;
    }
  }
  return true;
}

NetworkInstance Testbed::Snapshot() const {
  NetworkInstance out;
  for (const auto& node : nodes_) {
    out.emplace(node->name(), node->database().Snapshot());
  }
  return out;
}

Status Testbed::SetFault(const std::string& a, const std::string& b,
                         const FaultProfile& fault) {
  Node* node_a = node(a);
  Node* node_b = node(b);
  if (node_a == nullptr || node_b == nullptr) {
    return Status::NotFound("no node named '" +
                            (node_a == nullptr ? a : b) + "'");
  }
  return network_->SetFaultProfile(node_a->id(), node_b->id(), fault);
}

Status Testbed::CollectStats() {
  for (auto& super : super_peers_) {
    CODB_RETURN_IF_ERROR(super->RequestStats());
  }
  network_->Run();
  for (auto& super : super_peers_) {
    if (!super->CollectionComplete()) {
      return Status::Unavailable("some nodes did not report statistics to " +
                                 super->name());
    }
  }
  if (super_peers_.size() > 1) {
    for (auto& super : super_peers_) {
      CODB_RETURN_IF_ERROR(super->ShareWithFederation());
    }
    network_->Run();
    for (auto& super : super_peers_) {
      if (!super->FederationComplete()) {
        return Status::Unavailable("federation reports missing at " +
                                   super->name());
      }
    }
  }
  return Status::Ok();
}

}  // namespace codb
