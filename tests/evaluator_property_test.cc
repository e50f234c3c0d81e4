// Differential testing of the join evaluator: random conjunctive queries
// over random instances, checked against a brute-force reference that
// enumerates the cartesian product of the body atoms. Any disagreement is
// an evaluator bug (plan ordering, index probing, comparison placement,
// dedup) by construction.
//
// A second suite draws the schema itself at random (relation count,
// arities, instance sizes) so the fixed r/s/t shape cannot mask
// shape-dependent bugs.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "query/evaluator.h"
#include "relation/database.h"
#include "util/random.h"

namespace codb {
namespace {

struct RandomCase {
  Database db;
  DatabaseSchema schema;
  ConjunctiveQuery query;
  std::vector<std::string> output_vars;
};

// Builds a small random instance over r(a,b), s(a,b), t(a).
void BuildInstance(Rng& rng, Database& db) {
  db.CreateRelation(RelationSchema(
      "r", {{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  db.CreateRelation(RelationSchema(
      "s", {{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  db.CreateRelation(RelationSchema("t", {{"a", ValueType::kInt}}));
  // Small domain so joins actually hit.
  for (int i = 0; i < 12; ++i) {
    db.Find("r")->Insert(Tuple{Value::Int(rng.UniformInt(0, 5)),
                               Value::Int(rng.UniformInt(0, 5))});
    db.Find("s")->Insert(Tuple{Value::Int(rng.UniformInt(0, 5)),
                               Value::Int(rng.UniformInt(0, 5))});
  }
  for (int i = 0; i < 4; ++i) {
    db.Find("t")->Insert(Tuple{Value::Int(rng.UniformInt(0, 5))});
  }
}

RandomCase BuildCase(uint64_t seed) {
  Rng rng(seed);
  RandomCase c;
  BuildInstance(rng, c.db);
  c.schema = c.db.Schema();

  const char* predicates[] = {"r", "s", "t"};
  int atom_count = static_cast<int>(rng.UniformInt(1, 3));
  std::vector<std::string> var_pool = {"X", "Y", "Z", "W"};
  std::set<std::string> used_vars;

  for (int i = 0; i < atom_count; ++i) {
    const char* predicate = predicates[rng.Uniform(3)];
    int arity = c.schema.FindRelation(predicate)->arity();
    Atom atom;
    atom.predicate = predicate;
    for (int slot = 0; slot < arity; ++slot) {
      if (rng.Chance(0.15)) {
        atom.terms.push_back(
            Term::Const(Value::Int(rng.UniformInt(0, 5))));
      } else {
        const std::string& var =
            var_pool[rng.Uniform(var_pool.size())];
        atom.terms.push_back(Term::Var(var));
        used_vars.insert(var);
      }
    }
    c.query.body.push_back(std::move(atom));
  }

  // Head: non-empty subset of used variables.
  std::vector<std::string> usable(used_vars.begin(), used_vars.end());
  if (usable.empty()) {
    // All-constant body; give the head a var by rewriting one slot.
    c.query.body[0].terms[0] = Term::Var("X");
    usable.push_back("X");
  }
  rng.Shuffle(usable);
  size_t head_size = 1 + rng.Uniform(usable.size());
  c.output_vars.assign(usable.begin(),
                       usable.begin() + static_cast<long>(head_size));
  Atom head;
  head.predicate = "q";
  for (const std::string& v : c.output_vars) {
    head.terms.push_back(Term::Var(v));
  }
  c.query.head.push_back(std::move(head));

  // Maybe one comparison over a used variable.
  if (rng.Chance(0.6)) {
    const ComparisonOp ops[] = {ComparisonOp::kEq,  ComparisonOp::kNeq,
                                ComparisonOp::kLt,  ComparisonOp::kLeq,
                                ComparisonOp::kGt,  ComparisonOp::kGeq};
    Comparison comparison;
    comparison.lhs = Term::Var(usable[rng.Uniform(usable.size())]);
    comparison.op = ops[rng.Uniform(6)];
    comparison.rhs = rng.Chance(0.5)
                         ? Term::Const(Value::Int(rng.UniformInt(0, 5)))
                         : Term::Var(usable[rng.Uniform(usable.size())]);
    c.query.comparisons.push_back(std::move(comparison));
  }
  return c;
}

// Brute force: cartesian product over body atoms, unify, filter, project.
std::set<Tuple> BruteForce(const RandomCase& c) {
  std::set<Tuple> out;
  std::vector<const Relation*> relations;
  for (const Atom& atom : c.query.body) {
    relations.push_back(c.db.Find(atom.predicate));
  }
  std::vector<size_t> choice(c.query.body.size(), 0);

  for (;;) {
    // Try to unify the current choice of one tuple per atom.
    std::map<std::string, Value> binding;
    bool consistent = true;
    for (size_t i = 0; i < c.query.body.size() && consistent; ++i) {
      const Atom& atom = c.query.body[i];
      const Tuple& tuple = relations[i]->rows()[choice[i]];
      for (int slot = 0; slot < atom.arity(); ++slot) {
        const Term& term = atom.terms[static_cast<size_t>(slot)];
        const Value& v = tuple.at(slot);
        if (!term.is_var()) {
          if (!(term.value() == v)) {
            consistent = false;
            break;
          }
          continue;
        }
        auto [it, inserted] = binding.emplace(term.var(), v);
        if (!inserted && !(it->second == v)) {
          consistent = false;
          break;
        }
      }
    }
    if (consistent) {
      for (const Comparison& comparison : c.query.comparisons) {
        Value lhs = comparison.lhs.is_var() ? binding.at(comparison.lhs.var())
                                            : comparison.lhs.value();
        Value rhs = comparison.rhs.is_var() ? binding.at(comparison.rhs.var())
                                            : comparison.rhs.value();
        if (!EvalComparison(lhs, comparison.op, rhs)) {
          consistent = false;
          break;
        }
      }
    }
    if (consistent) {
      std::vector<Value> projected;
      for (const std::string& v : c.output_vars) {
        projected.push_back(binding.at(v));
      }
      out.insert(Tuple(std::move(projected)));
    }

    // Advance the odometer.
    size_t i = 0;
    for (; i < choice.size(); ++i) {
      if (++choice[i] < relations[i]->rows().size()) break;
      choice[i] = 0;
    }
    if (i == choice.size()) break;
  }
  return out;
}

// Evaluates the compiled query, checks the dedup promise, and returns
// the rows for the brute-force comparison.
std::vector<Tuple> EvaluateDeduped(const CompiledQuery& compiled,
                                   const Database& db) {
  std::vector<Tuple> rows = compiled.Evaluate(db);
  std::set<Tuple> deduped(rows.begin(), rows.end());
  // Evaluate() promises dedup: no row may appear twice.
  EXPECT_EQ(deduped.size(), rows.size());
  return rows;
}

class EvaluatorDifferentialSweep
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvaluatorDifferentialSweep, MatchesBruteForce) {
  RandomCase c = BuildCase(GetParam());
  SCOPED_TRACE("query: " + c.query.ToString());

  Result<CompiledQuery> compiled =
      CompiledQuery::Compile(c.query, c.schema, c.output_vars);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  std::vector<Tuple> actual_rows = EvaluateDeduped(compiled.value(), c.db);
  std::set<Tuple> actual(actual_rows.begin(), actual_rows.end());
  EXPECT_EQ(actual, BruteForce(c));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorDifferentialSweep,
                         ::testing::Range<uint64_t>(1, 61));

// -- random-schema suite -----------------------------------------------------

// Draws the schema too: 1–4 relations of arity 1–3 with 1–14 rows each,
// then a random query over whatever came out. Column type stays kInt so
// the brute-force reference needs no type dispatch.
RandomCase BuildSchemaCase(uint64_t seed) {
  Rng rng(seed);
  RandomCase c;

  int relation_count = static_cast<int>(rng.UniformInt(1, 4));
  std::vector<std::string> names;
  std::vector<int> arities;
  for (int r = 0; r < relation_count; ++r) {
    std::string name = "rel" + std::to_string(r);
    int arity = static_cast<int>(rng.UniformInt(1, 3));
    std::vector<Attribute> columns;
    for (int col = 0; col < arity; ++col) {
      columns.push_back({"c" + std::to_string(col), ValueType::kInt});
    }
    c.db.CreateRelation(RelationSchema(name, std::move(columns)));
    int rows = static_cast<int>(rng.UniformInt(1, 14));
    for (int i = 0; i < rows; ++i) {
      std::vector<Value> row;
      for (int col = 0; col < arity; ++col) {
        row.push_back(Value::Int(rng.UniformInt(0, 5)));
      }
      c.db.Find(name)->Insert(Tuple(std::move(row)));
    }
    names.push_back(std::move(name));
    arities.push_back(arity);
  }
  c.schema = c.db.Schema();

  int atom_count = static_cast<int>(rng.UniformInt(1, 3));
  std::vector<std::string> var_pool = {"X", "Y", "Z", "W", "U"};
  std::set<std::string> used_vars;
  for (int i = 0; i < atom_count; ++i) {
    size_t pick = rng.Uniform(names.size());
    Atom atom;
    atom.predicate = names[pick];
    for (int slot = 0; slot < arities[pick]; ++slot) {
      if (rng.Chance(0.15)) {
        atom.terms.push_back(
            Term::Const(Value::Int(rng.UniformInt(0, 5))));
      } else {
        const std::string& var = var_pool[rng.Uniform(var_pool.size())];
        atom.terms.push_back(Term::Var(var));
        used_vars.insert(var);
      }
    }
    c.query.body.push_back(std::move(atom));
  }

  std::vector<std::string> usable(used_vars.begin(), used_vars.end());
  if (usable.empty()) {
    c.query.body[0].terms[0] = Term::Var("X");
    usable.push_back("X");
  }
  rng.Shuffle(usable);
  size_t head_size = 1 + rng.Uniform(usable.size());
  c.output_vars.assign(usable.begin(),
                       usable.begin() + static_cast<long>(head_size));
  Atom head;
  head.predicate = "q";
  for (const std::string& v : c.output_vars) {
    head.terms.push_back(Term::Var(v));
  }
  c.query.head.push_back(std::move(head));

  if (rng.Chance(0.5)) {
    const ComparisonOp ops[] = {ComparisonOp::kEq,  ComparisonOp::kNeq,
                                ComparisonOp::kLt,  ComparisonOp::kLeq,
                                ComparisonOp::kGt,  ComparisonOp::kGeq};
    Comparison comparison;
    comparison.lhs = Term::Var(usable[rng.Uniform(usable.size())]);
    comparison.op = ops[rng.Uniform(6)];
    comparison.rhs = rng.Chance(0.5)
                         ? Term::Const(Value::Int(rng.UniformInt(0, 5)))
                         : Term::Var(usable[rng.Uniform(usable.size())]);
    c.query.comparisons.push_back(std::move(comparison));
  }
  return c;
}

class RandomSchemaSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomSchemaSweep, MatchesBruteForce) {
  RandomCase c = BuildSchemaCase(GetParam());
  SCOPED_TRACE("query: " + c.query.ToString());

  Result<CompiledQuery> compiled =
      CompiledQuery::Compile(c.query, c.schema, c.output_vars);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  std::vector<Tuple> actual_rows = EvaluateDeduped(compiled.value(), c.db);
  std::set<Tuple> actual(actual_rows.begin(), actual_rows.end());
  EXPECT_EQ(actual, BruteForce(c));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSchemaSweep,
                         ::testing::Range<uint64_t>(100, 160));

}  // namespace
}  // namespace codb
