// Dictionary-aware predicate evaluation.
//
// Because dictionaries are order-preserving, comparison predicates on string
// columns translate into value-ID ranges with one or two locate calls; the
// scan itself then works on the bit-packed IDs without touching the
// dictionary (the "process on the codes" property of domain encoding).
// Substring predicates (LIKE '%x%') cannot use the order and instead
// extract every dictionary entry once, marking qualifying IDs.
#ifndef ADICT_ENGINE_PREDICATES_H_
#define ADICT_ENGINE_PREDICATES_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "store/string_column.h"
#include "util/thread_pool.h"

namespace adict {

/// Half-open range of qualifying value IDs [begin, end).
struct IdRange {
  uint32_t begin = 0;
  uint32_t end = 0;

  bool Contains(uint32_t id) const { return id >= begin && id < end; }
  bool empty() const { return begin >= end; }
};

/// column = value. Empty range if the value is absent.
IdRange EqIds(const StringColumn& column, std::string_view value);

/// column >= value (set `inclusive` false for >).
IdRange GreaterIds(const StringColumn& column, std::string_view value,
                   bool inclusive = true);

/// column <= value (set `inclusive` false for <).
IdRange LessIds(const StringColumn& column, std::string_view value,
                bool inclusive = true);

/// lo <= column <= hi (both inclusive).
IdRange BetweenIds(const StringColumn& column, std::string_view lo,
                   std::string_view hi);

/// column LIKE 'prefix%'.
IdRange PrefixIds(const StringColumn& column, std::string_view prefix);

/// Per-value-ID flags for column LIKE '%needle%' (one extract per entry).
std::vector<bool> ContainsIds(const StringColumn& column,
                              std::string_view needle);

/// Per-value-ID flags for LIKE '%a%b%' (needles in order, non-overlapping).
/// Scans the dictionary in kMorselDictEntries morsels on `pool` (default:
/// the process-wide Pool(); engine/parallel.h), so block formats decode each
/// block once and the scan counts are the same at every width.
std::vector<bool> ContainsAllIds(const StringColumn& column,
                                 std::span<const std::string_view> needles,
                                 ThreadPool* pool = nullptr);

/// Per-value-ID flags for column IN (values...).
std::vector<bool> InIds(const StringColumn& column,
                        std::span<const std::string_view> values);

}  // namespace adict

#endif  // ADICT_ENGINE_PREDICATES_H_
