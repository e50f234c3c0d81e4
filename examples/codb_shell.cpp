// codb_shell: a scriptable driver for a simulated coDB network.
//
// Reads commands from stdin (one per line; '#' starts a comment):
//
//   config            begin a coordination-rules file; lines until 'end'
//   seed NODE REL v1 v2 ..     insert one tuple (types from the schema)
//   update NODE               run a global update rooted at NODE
//   refresh NODE               refresh update (re-derive; deletions
//                              at sources propagate)
//   delete NODE REL v1 v2 ..   delete one tuple from a local relation
//   query NODE QUERY...        distributed query, streams results
//   local NODE QUERY...        local-only query
//   explain NODE QUERY...      print the local execution plan
//   show NODE REL              print a relation
//   report NODE                the node's update report
//   discover NODE              the node's discovery view
//   stats                      collect + print the final report
//   quit
//
// Example session:
//
//   build/examples/codb_shell <<'EOF'
//   config
//   node left
//     relation d(k:int, v:string)
//   node right
//     relation d(k:int, v:string)
//   rule pull left <- right : d(K, V) :- d(K, V).
//   end
//   seed right d 1 'hello'
//   seed right d 2 'world'
//   update left
//   show left d
//   stats
//   quit
//   EOF

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/node.h"
#include "core/super_peer.h"
#include "net/network.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "relation/printer.h"
#include "util/string_util.h"

namespace codb {
namespace {

class Shell {
 public:
  int RunFrom(std::istream& in) {
    super_peer_ = SuperPeer::Create(&network_);
    std::string line;
    while (std::getline(in, line)) {
      std::string_view trimmed = Trim(line);
      if (trimmed.empty() || trimmed[0] == '#') continue;
      if (trimmed == "quit") break;
      if (!Dispatch(std::string(trimmed), in)) return 1;
    }
    return 0;
  }

 private:
  bool Fail(const std::string& message) {
    std::cerr << "error: " << message << "\n";
    return false;
  }

  Node* FindNode(const std::string& name) {
    for (auto& node : nodes_) {
      if (node->name() == name) return node.get();
    }
    return nullptr;
  }

  bool Dispatch(const std::string& line, std::istream& in) {
    std::istringstream words(line);
    std::string command;
    words >> command;

    if (command == "config") return DoConfig(in);
    if (command == "seed") return DoSeed(words);
    if (command == "delete") return DoDelete(words);
    if (command == "update") return DoUpdate(words, /*refresh=*/false);
    if (command == "refresh") return DoUpdate(words, /*refresh=*/true);
    if (command == "query") return DoQuery(words, /*local=*/false);
    if (command == "local") return DoQuery(words, /*local=*/true);
    if (command == "explain") return DoExplain(words);
    if (command == "show") return DoShow(words);
    if (command == "report") return DoReport(words);
    if (command == "discover") return DoDiscover(words);
    if (command == "stats") return DoStats();
    return Fail("unknown command '" + command + "'");
  }

  bool DoConfig(std::istream& in) {
    std::string text;
    std::string line;
    while (std::getline(in, line)) {
      if (Trim(line) == "end") break;
      text += line;
      text += "\n";
    }
    Result<NetworkConfig> config = NetworkConfig::Parse(text);
    if (!config.ok()) return Fail(config.status().ToString());

    // Create any nodes we have not seen yet.
    for (const NodeDecl& decl : config.value().nodes()) {
      if (FindNode(decl.name) != nullptr) continue;
      DatabaseSchema schema;
      for (const RelationSchema& rel : decl.relations) {
        Status added = schema.AddRelation(rel);
        if (!added.ok()) return Fail(added.ToString());
      }
      Result<std::unique_ptr<Node>> node =
          Node::Create(&network_, decl.name, std::move(schema), decl.mediator);
      if (!node.ok()) return Fail(node.status().ToString());
      nodes_.push_back(std::move(node).value());
    }
    Status loaded = super_peer_->LoadConfig(config.value());
    if (!loaded.ok()) return Fail(loaded.ToString());
    Status broadcast = super_peer_->BroadcastConfig();
    if (!broadcast.ok()) return Fail(broadcast.ToString());
    network_.Run();
    std::cout << "configured " << config.value().nodes().size()
              << " node(s), " << config.value().rules().size()
              << " rule(s)\n";
    return true;
  }

  bool DoSeed(std::istringstream& words) {
    std::string node_name;
    std::string relation;
    words >> node_name >> relation;
    Node* node = FindNode(node_name);
    if (node == nullptr) return Fail("no node '" + node_name + "'");
    Relation* rel = node->database().Find(relation);
    if (rel == nullptr) return Fail("no relation '" + relation + "'");

    std::vector<Value> values;
    std::string token;
    for (int i = 0; i < rel->arity() && (words >> token); ++i) {
      const Attribute& attr =
          rel->schema().attributes()[static_cast<size_t>(i)];
      switch (attr.type) {
        case ValueType::kInt:
          values.push_back(Value::Int(std::stoll(token)));
          break;
        case ValueType::kDouble:
          values.push_back(Value::Double(std::stod(token)));
          break;
        case ValueType::kString: {
          std::string s = token;
          if (s.size() >= 2 && s.front() == '\'' && s.back() == '\'') {
            s = s.substr(1, s.size() - 2);
          }
          values.push_back(Value::String(std::move(s)));
          break;
        }
        case ValueType::kNull:
          return Fail("cannot seed marked nulls");
      }
    }
    if (static_cast<int>(values.size()) != rel->arity()) {
      return Fail("expected " + std::to_string(rel->arity()) + " values");
    }
    rel->Insert(Tuple(std::move(values)));
    return true;
  }

  bool DoDelete(std::istringstream& words) {
    std::string node_name;
    std::string relation;
    words >> node_name >> relation;
    Node* node = FindNode(node_name);
    if (node == nullptr) return Fail("no node '" + node_name + "'");
    Relation* rel = node->database().Find(relation);
    if (rel == nullptr) return Fail("no relation '" + relation + "'");
    std::vector<Value> values;
    std::string token;
    for (int i = 0; i < rel->arity() && (words >> token); ++i) {
      const Attribute& attr =
          rel->schema().attributes()[static_cast<size_t>(i)];
      switch (attr.type) {
        case ValueType::kInt:
          values.push_back(Value::Int(std::stoll(token)));
          break;
        case ValueType::kDouble:
          values.push_back(Value::Double(std::stod(token)));
          break;
        case ValueType::kString: {
          std::string s = token;
          if (s.size() >= 2 && s.front() == '\'' && s.back() == '\'') {
            s = s.substr(1, s.size() - 2);
          }
          values.push_back(Value::String(std::move(s)));
          break;
        }
        case ValueType::kNull:
          return Fail("cannot name marked nulls");
      }
    }
    Tuple victim(std::move(values));
    std::vector<Tuple> kept;
    for (const Tuple& t : rel->rows()) {
      if (!(t == victim)) kept.push_back(t);
    }
    if (kept.size() == rel->size()) return Fail("tuple not found");
    // Relations only grow: a deletion swaps in a rebuilt relation.
    Status replaced = node->database().Replace(relation, kept);
    if (!replaced.ok()) return Fail(replaced.ToString());
    return true;
  }

  bool DoUpdate(std::istringstream& words, bool refresh) {
    std::string node_name;
    words >> node_name;
    Node* node = FindNode(node_name);
    if (node == nullptr) return Fail("no node '" + node_name + "'");
    Result<FlowId> update =
        refresh ? node->StartGlobalRefresh() : node->StartGlobalUpdate();
    if (!update.ok()) return Fail(update.status().ToString());
    network_.Run();
    std::cout << update.value().ToString() << " "
              << (node->update_manager()->IsComplete(update.value())
                      ? "complete"
                      : "INCOMPLETE")
              << "\n";
    return true;
  }

  bool DoQuery(std::istringstream& words, bool local) {
    std::string node_name;
    words >> node_name;
    Node* node = FindNode(node_name);
    if (node == nullptr) return Fail("no node '" + node_name + "'");
    std::string text;
    std::getline(words, text);
    Result<ConjunctiveQuery> query = ParseQuery(text);
    if (!query.ok()) return Fail(query.status().ToString());

    Result<std::vector<Tuple>> answers = Status::Internal("unset");
    if (local) {
      answers = node->LocalQuery(query.value());
    } else {
      Result<FlowId> id = node->StartQuery(query.value());
      if (!id.ok()) return Fail(id.status().ToString());
      network_.Run();
      answers = node->QueryAnswers(id.value());
    }
    if (!answers.ok()) return Fail(answers.status().ToString());

    std::vector<std::string> header;
    for (const Term& term : query.value().head[0].terms) {
      header.push_back(term.is_var() ? term.var() : term.ToString());
    }
    std::cout << FormatTable(header, answers.value());
    return true;
  }

  bool DoExplain(std::istringstream& words) {
    std::string node_name;
    words >> node_name;
    Node* node = FindNode(node_name);
    if (node == nullptr) return Fail("no node '" + node_name + "'");
    std::string text;
    std::getline(words, text);
    Result<ConjunctiveQuery> query = ParseQuery(text);
    if (!query.ok()) return Fail(query.status().ToString());
    std::vector<std::string> output;
    for (const Term& term : query.value().head[0].terms) {
      if (term.is_var()) output.push_back(term.var());
    }
    Result<CompiledQuery> compiled = CompiledQuery::Compile(
        query.value(), node->database().Schema(), output);
    if (!compiled.ok()) return Fail(compiled.status().ToString());
    std::cout << compiled.value().ExplainPlan(node->database());
    return true;
  }

  bool DoShow(std::istringstream& words) {
    std::string node_name;
    std::string relation;
    words >> node_name >> relation;
    Node* node = FindNode(node_name);
    if (node == nullptr) return Fail("no node '" + node_name + "'");
    const Relation* rel = node->database().Find(relation);
    if (rel == nullptr) return Fail("no relation '" + relation + "'");
    std::cout << FormatRelation(*rel);
    return true;
  }

  bool DoReport(std::istringstream& words) {
    std::string node_name;
    words >> node_name;
    Node* node = FindNode(node_name);
    if (node == nullptr) return Fail("no node '" + node_name + "'");
    std::cout << node->Report();
    return true;
  }

  bool DoDiscover(std::istringstream& words) {
    std::string node_name;
    words >> node_name;
    Node* node = FindNode(node_name);
    if (node == nullptr) return Fail("no node '" + node_name + "'");
    std::cout << node->DiscoveryView();
    return true;
  }

  bool DoStats() {
    Status requested = super_peer_->RequestStats();
    if (!requested.ok()) return Fail(requested.ToString());
    network_.Run();
    std::cout << super_peer_->FinalReport();
    return true;
  }

  Network network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<SuperPeer> super_peer_;
};

}  // namespace
}  // namespace codb

int main(int argc, char** argv) {
  if (argc > 1) {
    std::cerr << "unknown flag '" << argv[1]
              << "' (codb_shell takes no flags; commands come on stdin)\n";
    return 1;
  }
  codb::Shell shell;
  return shell.RunFrom(std::cin);
}
