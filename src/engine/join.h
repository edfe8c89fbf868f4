// Join primitives for domain-encoded columns.
//
// Equi-joins on string columns never compare strings row by row: the probe
// side's dictionary is mapped onto the build side's dictionary once (one
// merge of two sorted dictionaries), after which the join works purely on
// integer IDs. An IdIndex (store/column_memo.h) provides the id -> rows
// lookup on the build side (counting-sort layout, dense in the dictionary's
// ID space). Plans read both through JoinMap and RowIndex, which build each
// once per published version (pair) and keep it in the version's memo.
#ifndef ADICT_ENGINE_JOIN_H_
#define ADICT_ENGINE_JOIN_H_

#include <cstdint>
#include <vector>

#include "store/string_column.h"
#include "util/thread_pool.h"

namespace adict {

/// For every value ID of `from`'s dictionary, the ID of the same string in
/// `to`'s dictionary, or kNoMatch. Both dictionaries are sorted, so the map
/// is one merge of two dictionary cursors per kMorselDictEntries-entry
/// morsel of `from`: the morsel locates its first value in `to`, then
/// advances both cursors. O(n + m) entries decoded plus one locate on `to`
/// per morsel. The morsels are the same at every pool width (inline on one
/// lane) and run on `pool` (default: the process-wide Pool();
/// engine/parallel.h), so each cursor's decoded entries (scans on its
/// column) and the seeks (locates on `to`) count the same at every width.
std::vector<uint32_t> MapDictionary(const StringColumn& from,
                                    const StringColumn& to,
                                    ThreadPool* pool = nullptr);

/// MapDictionary(from, to), built once per pair of published versions and
/// kept in `from`'s memo; later calls return the same map. `from` and `to`
/// must be published versions (a table's or a VersionedStringColumn's
/// snapshot). The reference is valid while the caller pins both.
const std::vector<uint32_t>& JoinMap(const StringColumn& from,
                                     const StringColumn& to);

/// IdIndex(column), built once per published version and kept in its memo.
/// The reference is valid while the caller pins `column`.
const IdIndex& RowIndex(const StringColumn& column);

}  // namespace adict

#endif  // ADICT_ENGINE_JOIN_H_
