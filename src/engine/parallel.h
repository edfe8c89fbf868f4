// The morsel driver: the one way the engine and the TPC-H plans run a loop
// in parallel.
//
// The execution model is morsel-driven parallelism (Hyrise/HyPer style): a
// loop over [0, items) is split into fixed-size morsels, worker lanes of the
// pool (util/thread_pool.h) drain a shared morsel cursor, and per-morsel
// results are combined **in morsel order**. Morsel boundaries depend only on
// the item count and the grain, never on the number of threads, and a pool
// of width 1 runs the same morsels inline. There is no serial branch, so
// every caller's output is bit-identical at any thread count, and so is
// what it records.
//
// Every parallel loop runs through ForEachMorsel:
// - SelectRows and CountRows (scan.h) and CollectRows (below), the map
//   phase of a caller's row loop, split rows into kMorselRows morsels;
// - ContainsAllIds (predicates.h) and MapDictionary (join.h) split
//   dictionary entries into kMorselDictEntries morsels;
// - Q1, Q6 and Q21 aggregate lineitem per morsel.
//
// Usage accounting is per scan, not per morsel: predicates are reduced to
// value-ID ranges once by the caller (one or two Locate calls), and row
// morsels then compare bit-packed IDs without touching the dictionary; the
// row scan is recorded once per call. Dictionary morsels scan disjoint
// entry ranges whose counts sum to the whole dictionary's. docs/parallelism.md
// states the full contract.
#ifndef ADICT_ENGINE_PARALLEL_H_
#define ADICT_ENGINE_PARALLEL_H_

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

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

/// Records one driver invocation of `num_morsels` morsels on `pool`: the
/// engine.parallel.* counters and the pool.* gauges. Opens no span.
void RecordParallelScan(ThreadPool& pool, uint64_t num_morsels);

/// Runs `fn(begin, end)` over [0, items) in morsels of `grain` items on
/// `pool` (default: the process-wide Pool(); inline at width 1, the same
/// morsels at every width) and returns the morsels' results in morsel
/// order, or nothing when `fn` returns void. Each morsel's result has its
/// own slot, so morsels never write the same memory. `fn` is leaf work: it
/// calls no driver (ThreadPool::ParallelFor). Records the invocation once
/// (RecordParallelScan) but opens no span: the loop belongs to the
/// caller's span.
template <typename Fn>
auto ForEachMorsel(uint64_t items, uint64_t grain, const Fn& fn,
                   ThreadPool* pool = nullptr) {
  using Result = std::invoke_result_t<const Fn&, uint64_t, uint64_t>;
  // std::vector<bool> packs 64 slots per word: adjacent morsels would race.
  static_assert(!std::is_same_v<Result, bool>, "return a wider type");
  ThreadPool& lanes = pool != nullptr ? *pool : Pool();
  const uint64_t num_morsels = ThreadPool::NumChunks(items, grain);
  RecordParallelScan(lanes, num_morsels);
  if constexpr (std::is_void_v<Result>) {
    lanes.ParallelFor(0, items, grain, fn);
  } else {
    std::vector<Result> results(num_morsels);
    lanes.ParallelFor(0, items, grain, [&](uint64_t begin, uint64_t end) {
      results[begin / grain] = fn(begin, end);
    });
    return results;
  }
}

/// Concatenates per-morsel vectors in morsel order: the step that makes a
/// driver's output independent of which lane ran which morsel.
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
/// [0, rows) in kMorselRows morsels (ForEachMorsel) and returns what the
/// calls appended, in row order. Each morsel appends to its own vector, and
/// the parts are concatenated in morsel order. `fn` is leaf work: it only
/// reads, and it calls no driver. The caller folds the hits serially, so a
/// floating-point fold adds in row order at every width.
template <typename T, typename Fn>
std::vector<T> CollectRows(uint64_t rows, const Fn& fn,
                           ThreadPool* pool = nullptr) {
  return ConcatInOrder(ForEachMorsel(
      rows, kMorselRows,
      [&fn](uint64_t begin, uint64_t end) {
        std::vector<T> out;
        for (uint64_t row = begin; row < end; ++row) fn(row, &out);
        return out;
      },
      pool));
}

}  // namespace adict

#endif  // ADICT_ENGINE_PARALLEL_H_
