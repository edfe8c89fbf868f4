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

/// Parallel per-ID row counting (the first pass of IdIndex construction):
/// morsels accumulate into shared atomic slots. The counts are exact; only
/// the accumulation order differs from the serial pass.
std::vector<uint32_t> ParallelCountIds(const StringColumn& column,
                                       ThreadPool* pool = nullptr);

}  // namespace adict

#endif  // ADICT_ENGINE_PARALLEL_H_
