// The 22 TPC-H queries as hand-built plans over the column-store engine.
//
// Every query follows the execution style of a dictionary-encoded column
// store: predicates on string columns become value-ID ranges (locate),
// LIKE predicates scan the dictionary once (extract per entry), joins map
// dictionaries onto each other and then work on integer IDs, and output
// strings are materialized late. The dictionary usage this generates is the
// workload trace the compression manager consumes (paper §6).
#ifndef ADICT_TPCH_QUERIES_H_
#define ADICT_TPCH_QUERIES_H_

#include "engine/result.h"
#include "tpch/dbgen.h"

namespace adict {

inline constexpr int kNumTpchQueries = 22;

/// Runs TPC-H query `query` (1-based, standard substitution parameters) on
/// a snapshot of `db`: the one given, or one taken for this call.
QueryResult RunTpchQuery(const TpchSnapshot& db, int query);
inline QueryResult RunTpchQuery(const TpchDatabase& db, int query) {
  return RunTpchQuery(db.Snapshot(), query);
}

}  // namespace adict

#endif  // ADICT_TPCH_QUERIES_H_
