// Join primitives for domain-encoded columns.
//
// Equi-joins on string columns never compare strings row by row: the probe
// side's dictionary is mapped onto the build side's dictionary once (one
// merge of two sorted dictionaries), after which the join works purely on
// integer IDs. An IdIndex provides the id -> rows lookup on the build side
// (counting-sort layout, dense in the dictionary's ID space).
#ifndef ADICT_ENGINE_JOIN_H_
#define ADICT_ENGINE_JOIN_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "store/string_column.h"
#include "util/thread_pool.h"

namespace adict {

/// Marker for "probe value not present in build dictionary".
inline constexpr uint32_t kNoMatch = std::numeric_limits<uint32_t>::max();

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

/// id -> rows index over a domain-encoded column (build side of a join).
class IdIndex {
 public:
  explicit IdIndex(const StringColumn& column);

  /// Rows whose value has the given ID.
  std::span<const uint32_t> Rows(uint32_t id) const {
    if (id >= num_ids_) return {};
    return std::span<const uint32_t>(rows_.data() + offsets_[id],
                                     offsets_[id + 1] - offsets_[id]);
  }

  /// The single row for a unique (key) column; kNoMatch if absent.
  uint32_t UniqueRow(uint32_t id) const {
    const std::span<const uint32_t> rows = Rows(id);
    return rows.empty() ? kNoMatch : rows[0];
  }

 private:
  uint32_t num_ids_;
  std::vector<uint32_t> offsets_;  // num_ids_ + 1
  std::vector<uint32_t> rows_;
};

}  // namespace adict

#endif  // ADICT_ENGINE_JOIN_H_
