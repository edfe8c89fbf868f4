// Morsel-parallel drivers for the scan/selection/join primitives.
//
// The execution model is morsel-driven parallelism (Hyrise/HyPer style): a
// column is split into fixed-size morsels, worker lanes of the process-wide
// pool (util/thread_pool.h) drain a shared morsel cursor, and per-morsel
// results are combined **in morsel order** — which makes every driver's
// output bit-identical to the serial implementation at any thread count,
// including 1. Morsel boundaries depend only on the row count and the
// grain, never on the number of threads.
//
// Usage accounting is per scan, not per morsel: predicates are reduced to
// value-ID ranges once by the caller (one or two Locate calls), and the
// morsels then compare bit-packed IDs without touching the dictionary, so
// a parallel scan traces exactly the dictionary accesses the serial scan
// does. Dictionary-scan drivers (ParallelContainsAllIds) split the entry
// range, so their per-morsel scan counts sum to the serial count.
// MapDictionary (join.h, defined here) splits `from` into the same morsels
// at every pool width, so its counts are the same at every width.
// CollectRows is the map phase of a caller's row loop: it returns the
// morsels' hits in row order, and the caller folds them serially.
// docs/parallelism.md states the full contract.
//
// The serial entry points in scan.h / predicates.h / join.h dispatch here
// automatically when the process-wide pool is parallel (ADICT_THREADS > 1)
// and the input is large enough to cover more than one morsel; MapDictionary
// is itself a morsel driver, because its morsels decide its seeks. Callers
// that need an explicit pool (tests, benchmarks) pass one.
#ifndef ADICT_ENGINE_PARALLEL_H_
#define ADICT_ENGINE_PARALLEL_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/predicates.h"
#include "store/string_column.h"
#include "util/thread_pool.h"

namespace adict {

/// Rows per morsel for column-vector scans. Large enough that the per-morsel
/// dispatch overhead (one relaxed fetch_add on the cursor) is noise against
/// ~64K bit-unpack + compare operations, small enough that a TPC-H lineitem
/// column at SF 0.1 (~600K rows) splits into ~10 morsels — work for every
/// lane of an 8-way pool with head-room for stealing.
inline constexpr uint64_t kMorselRows = 64 * 1024;

/// Entries per morsel for dictionary scans and dictionary mapping. Decoding
/// an entry costs tens to hundreds of nanoseconds — one to two orders of
/// magnitude more than a vector scan touch — so morsels are smaller to keep
/// lanes balanced on skewed dictionaries.
inline constexpr uint64_t kMorselDictEntries = 8 * 1024;

/// The pool the drivers use: `pool` if given, else the process-wide Pool().
ThreadPool& EffectivePool(ThreadPool* pool);

/// True when `items` split at `grain` into more than one morsel AND the
/// pool has more than one lane — the dispatch test of the serial entry
/// points. With ADICT_THREADS=1 this is always false.
bool ShouldParallelize(uint64_t items, uint64_t grain,
                       ThreadPool* pool = nullptr);

/// Parallel SelectRows (ID range). Identical output to the serial version.
std::vector<uint32_t> ParallelSelectRows(const StringColumn& column,
                                         const IdRange& range,
                                         ThreadPool* pool = nullptr);

/// Parallel SelectRows (per-ID flags). Identical output.
std::vector<uint32_t> ParallelSelectRows(const StringColumn& column,
                                         const std::vector<bool>& id_flags,
                                         ThreadPool* pool = nullptr);

/// Parallel RefineRows. Identical output.
std::vector<uint32_t> ParallelRefineRows(const StringColumn& column,
                                         std::span<const uint32_t> rows,
                                         const IdRange& range,
                                         ThreadPool* pool = nullptr);

/// Parallel CountRows. Per-morsel counts are summed in morsel order.
uint64_t ParallelCountRows(const StringColumn& column, const IdRange& range,
                           ThreadPool* pool = nullptr);

/// Parallel ContainsAllIds: the dictionary entry range is split into
/// morsels, each decoded independently (block formats decode each block in
/// exactly one morsel), flags spliced back in morsel order.
std::vector<bool> ParallelContainsAllIds(
    const StringColumn& column, std::span<const std::string_view> needles,
    ThreadPool* pool = nullptr);

/// Records one driver invocation of `num_morsels` morsels on `pool`: the
/// engine.parallel.* counters and the pool.* gauges. Opens no span.
void RecordParallelScan(ThreadPool& pool, uint64_t num_morsels);

/// Concatenates per-morsel vectors in morsel order: the step that makes a
/// driver's output identical to the serial loop's.
template <typename T>
std::vector<T> ConcatInOrder(std::vector<std::vector<T>> parts) {
  if (parts.size() == 1) return std::move(parts[0]);
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<T> out;
  out.reserve(total);
  for (const auto& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

/// The map phase of a row loop: runs `fn(row, &out)` for every row of
/// [0, rows) in kMorselRows morsels on `pool` (default: the process-wide
/// Pool(); inline at parallelism 1, the same morsels at every width) and
/// returns what the calls appended, in row order. Each morsel appends to
/// its own vector, and the parts are concatenated in morsel order. `fn` is
/// leaf work: it only reads, and it calls no driver. The caller folds the
/// hits serially, so a floating-point fold adds in row order at every
/// width. Counts its morsels in engine.parallel.morsels but opens no span:
/// the map phase is part of the caller's span.
template <typename T, typename Fn>
std::vector<T> CollectRows(uint64_t rows, const Fn& fn,
                           ThreadPool* pool = nullptr) {
  ThreadPool& p = EffectivePool(pool);
  std::vector<std::vector<T>> parts(ThreadPool::NumChunks(rows, kMorselRows));
  RecordParallelScan(p, parts.size());
  p.ParallelFor(0, rows, kMorselRows, [&](uint64_t begin, uint64_t end) {
    std::vector<T>& out = parts[begin / kMorselRows];
    for (uint64_t row = begin; row < end; ++row) fn(row, &out);
  });
  return ConcatInOrder(std::move(parts));
}

}  // namespace adict

#endif  // ADICT_ENGINE_PARALLEL_H_
