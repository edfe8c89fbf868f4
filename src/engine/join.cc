#include "engine/join.h"

#include <memory>
#include <string_view>

#include "engine/parallel.h"
#include "obs/trace.h"

namespace adict {

namespace {

/// MapDictionary over `from`'s IDs [begin, end): both dictionaries are
/// sorted, so one forward merge of two cursors maps every entry. The morsel
/// locates its first value in `to` to seek `to`'s cursor, then advances
/// both. Records the entries each cursor decoded as scans on its column;
/// the seek is one locate on `to`.
void MergeMorsel(const StringColumn& from, const StringColumn& to,
                 uint32_t begin, uint32_t end, uint32_t* mapping) {
  const uint32_t to_size = to.num_distinct();
  const std::unique_ptr<Dictionary::Cursor> from_cursor =
      from.dictionary().NewCursor();
  const std::unique_ptr<Dictionary::Cursor> to_cursor =
      to.dictionary().NewCursor();
  from_cursor->Seek(begin);
  uint32_t id = begin;  // ID of `value`
  std::string_view value = from_cursor->Next();
  uint64_t from_decoded = 1, to_decoded = 0;
  uint32_t to_id = to.Locate(value).id;  // ID of `to_value`; to_size at end
  std::string_view to_value;
  if (to_id < to_size) {
    to_cursor->Seek(to_id);
    to_value = to_cursor->Next();
    ++to_decoded;
  }
  // Once `to` is exhausted, every later `from` value sorts after it.
  while (to_id < to_size) {
    if (to_value < value) {
      if (++to_id == to_size) break;
      to_value = to_cursor->Next();
      ++to_decoded;
    } else {
      if (to_value == value) mapping[id] = to_id;
      if (++id == end) break;
      value = from_cursor->Next();
      ++from_decoded;
    }
  }
  from.RecordCursorScan(from_decoded);
  to.RecordCursorScan(to_decoded);
}

}  // namespace

std::vector<uint32_t> MapDictionary(const StringColumn& from,
                                    const StringColumn& to, ThreadPool* pool) {
  ADICT_TRACE_SPAN("engine.parallel.map_dict");
  // Morsels write disjoint uint32_t slots of the shared mapping: no two
  // morsels touch the same element, so no synchronization is needed.
  std::vector<uint32_t> mapping(from.num_distinct(), kNoMatch);
  ForEachMorsel(
      from.num_distinct(), kMorselDictEntries,
      [&](uint64_t begin, uint64_t end) {
        MergeMorsel(from, to, static_cast<uint32_t>(begin),
                    static_cast<uint32_t>(end), mapping.data());
      },
      pool);
  return mapping;
}

IdIndex::IdIndex(const StringColumn& column)
    : num_ids_(column.num_distinct()) {
  const uint64_t n = column.num_rows();
  // Both passes are serial: the scatter must land rows in ascending order
  // within each ID bucket, and a serial count beats an atomic histogram at
  // every key-column size the TPC-H plans index.
  offsets_.assign(num_ids_ + 1, 0);
  for (uint64_t row = 0; row < n; ++row) {
    ++offsets_[column.GetValueId(row) + 1];
  }
  for (uint32_t id = 0; id < num_ids_; ++id) {
    offsets_[id + 1] += offsets_[id];
  }
  rows_.resize(n);
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (uint64_t row = 0; row < n; ++row) {
    rows_[cursor[column.GetValueId(row)]++] = static_cast<uint32_t>(row);
  }
}

}  // namespace adict
