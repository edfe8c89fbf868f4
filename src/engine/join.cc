#include "engine/join.h"

#include "engine/parallel.h"

namespace adict {

IdIndex::IdIndex(const StringColumn& column)
    : num_ids_(column.num_distinct()) {
  const uint64_t n = column.num_rows();
  offsets_.assign(num_ids_ + 1, 0);
  if (ShouldParallelize(n, kMorselRows)) {
    // Parallel counting pass; the per-ID counts are exact regardless of
    // morsel interleaving (relaxed increments commute).
    const std::vector<uint32_t> counts = ParallelCountIds(column);
    for (uint32_t id = 0; id < num_ids_; ++id) {
      offsets_[id + 1] = counts[id];
    }
  } else {
    for (uint64_t row = 0; row < n; ++row) {
      ++offsets_[column.GetValueId(row) + 1];
    }
  }
  for (uint32_t id = 0; id < num_ids_; ++id) {
    offsets_[id + 1] += offsets_[id];
  }
  rows_.resize(n);
  // The scatter stays serial: rows must land in ascending row order within
  // each ID bucket, which the shared cursor vector only guarantees when
  // rows are visited in order by one thread.
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (uint64_t row = 0; row < n; ++row) {
    rows_[cursor[column.GetValueId(row)]++] = static_cast<uint32_t>(row);
  }
}

}  // namespace adict
