#include "engine/scan.h"

#include <numeric>

#include "engine/parallel.h"
#include "obs/trace.h"

namespace adict {

namespace {

/// Rows whose value ID satisfies `match`, ascending: one row scan of the
/// column, its morsels' rows concatenated in row order (CollectRows).
template <typename Match>
std::vector<uint32_t> SelectMatching(const StringColumn& column,
                                     const Match& match, ThreadPool* pool) {
  ADICT_TRACE_SPAN("engine.parallel.select");
  const obs::ScopedColumnOp row_scan = column.RecordRowScan(column.num_rows());
  return CollectRows<uint32_t>(
      column.num_rows(),
      [&column, &match](uint64_t row, std::vector<uint32_t>* out) {
        if (match(column.GetValueId(row))) {
          out->push_back(static_cast<uint32_t>(row));
        }
      },
      pool);
}

}  // namespace

std::vector<uint32_t> SelectRows(const StringColumn& column,
                                 const IdRange& range, ThreadPool* pool) {
  if (range.empty()) return {};
  return SelectMatching(
      column, [&range](uint32_t id) { return range.Contains(id); }, pool);
}

std::vector<uint32_t> SelectRows(const StringColumn& column,
                                 const std::vector<bool>& id_flags,
                                 ThreadPool* pool) {
  return SelectMatching(
      column, [&id_flags](uint32_t id) { return id_flags[id]; }, pool);
}

uint64_t CountRows(const StringColumn& column, const IdRange& range,
                   ThreadPool* pool) {
  if (range.empty()) return 0;
  ADICT_TRACE_SPAN("engine.parallel.count");
  const obs::ScopedColumnOp row_scan = column.RecordRowScan(column.num_rows());
  const std::vector<uint64_t> counts = ForEachMorsel(
      column.num_rows(), kMorselRows,
      [&column, &range](uint64_t begin, uint64_t end) {
        uint64_t count = 0;
        for (uint64_t row = begin; row < end; ++row) {
          count += range.Contains(column.GetValueId(row));
        }
        return count;
      },
      pool);
  return std::accumulate(counts.begin(), counts.end(), uint64_t{0});
}

}  // namespace adict
