#include "engine/join.h"

namespace adict {

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
