// Helpers shared across the test suite.

#ifndef CODB_TESTS_TEST_UTIL_H_
#define CODB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "relation/database.h"

namespace codb {
namespace test {

// Removes one tuple from relation `relation` of `db`. Relations only grow,
// so this swaps in a rebuilt relation (Database::Replace): Relation
// pointers taken before the call are stale after it.
inline void DeleteTuple(Database& db, const std::string& relation,
                        const Tuple& victim) {
  std::vector<Tuple> kept;
  for (const Tuple& t : db.Find(relation)->rows()) {
    if (!(t == victim)) kept.push_back(t);
  }
  ASSERT_TRUE(db.Replace(relation, kept).ok());
}

}  // namespace test
}  // namespace codb

#endif  // CODB_TESTS_TEST_UTIL_H_
