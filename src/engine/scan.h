// Selection-vector scans over domain-encoded columns.
//
// Once a predicate is reduced to qualifying value IDs (engine/predicates.h),
// the scan itself never touches the dictionary: it compares bit-packed codes
// — the "process on the codes directly" property that makes domain encoding
// fast (paper §1). Each scan runs in kMorselRows morsels on `pool` (default:
// the process-wide Pool(); engine/parallel.h) and records one row scan on
// the column, whatever the pool's width.
#ifndef ADICT_ENGINE_SCAN_H_
#define ADICT_ENGINE_SCAN_H_

#include <cstdint>
#include <vector>

#include "engine/predicates.h"
#include "store/string_column.h"
#include "util/thread_pool.h"

namespace adict {

/// Rows whose value ID lies in `range`, ascending.
std::vector<uint32_t> SelectRows(const StringColumn& column,
                                 const IdRange& range,
                                 ThreadPool* pool = nullptr);

/// Rows whose value ID is flagged in `id_flags` (size = num_distinct).
std::vector<uint32_t> SelectRows(const StringColumn& column,
                                 const std::vector<bool>& id_flags,
                                 ThreadPool* pool = nullptr);

/// Number of rows whose value ID lies in `range` (no materialization).
uint64_t CountRows(const StringColumn& column, const IdRange& range,
                   ThreadPool* pool = nullptr);

}  // namespace adict

#endif  // ADICT_ENGINE_SCAN_H_
