// Internal helpers shared by the TPC-H query implementations.
#ifndef ADICT_TPCH_QUERY_HELPERS_H_
#define ADICT_TPCH_QUERY_HELPERS_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "engine/join.h"
#include "engine/predicates.h"
#include "engine/result.h"
#include "store/table.h"
#include "util/date.h"

namespace adict {
namespace tpch_internal {

/// Foreign-key join accessor: maps a FK column's value IDs to rows of the
/// primary-key table in two precomputed steps. `fk` is a pin of the query.
struct FkJoin {
  const StringColumn& fk;
  std::vector<uint32_t> id_map;  // fk value id -> pk value id (or kNoMatch)
  IdIndex pk_index;

  FkJoin(const StringColumn& fk_column, const StringColumn& pk)
      : fk(fk_column), id_map(MapDictionary(fk_column, pk)), pk_index(pk) {}

  /// Row in the PK table for FK row `fk_row`, or kNoMatch.
  uint32_t Row(uint64_t fk_row) const {
    const uint32_t pk_id = id_map[fk.GetValueId(fk_row)];
    return pk_id == kNoMatch ? kNoMatch : pk_index.UniqueRow(pk_id);
  }
};

/// A map-phase hit of a row loop (CollectRows): a row of the loop's table
/// or of a joined one, and the value the fold adds for it.
struct RowValue {
  uint32_t row;
  double value;
};

inline int YearOf(int32_t days) { return CivilFromDays(days).year; }

/// Packs up to three 21-bit IDs into one group-by key.
inline uint64_t GroupKey(uint32_t a, uint32_t b = 0, uint32_t c = 0) {
  return (static_cast<uint64_t>(a) << 42) | (static_cast<uint64_t>(b) << 21) |
         static_cast<uint64_t>(c);
}

}  // namespace tpch_internal
}  // namespace adict

#endif  // ADICT_TPCH_QUERY_HELPERS_H_
