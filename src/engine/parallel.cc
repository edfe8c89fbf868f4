#include "engine/parallel.h"

#include <atomic>
#include <memory>

#include "engine/join.h"
#include "engine/scan.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/workload_profiler.h"

namespace adict {

namespace {

// Driver span names, passed to ScopedSpan through a variable (one shared
// driver opens the span), so the lint cannot see them at a construction
// site and they are registered here instead.
// adict-lint: span-names-begin
//   "engine.parallel.select", "engine.parallel.refine",
//   "engine.parallel.count", "engine.parallel.contains",
//   "engine.parallel.map_dict", "engine.parallel.count_ids"
// adict-lint: span-names-end

/// Per-scan pool/driver telemetry: one `engine.parallel.scans` tick per
/// driver invocation (the accounting unit — never per morsel), the morsel
/// count, and a mirror of the pool's counters into gauges. The pool itself
/// lives in util/, below obs/, so its stats are exported here, the lowest
/// layer that links obs (see docs/parallelism.md).
void RecordParallelScan(ThreadPool& pool, uint64_t num_morsels) {
  if (!obs::Enabled()) return;
  static obs::Counter* scans = obs::Metrics().GetCounter(
      "engine.parallel.scans", "scans",
      "parallel driver invocations (the per-scan accounting unit)");
  static obs::Counter* morsels = obs::Metrics().GetCounter(
      "engine.parallel.morsels", "morsels",
      "morsels dispatched by the parallel drivers");
  static obs::Gauge* threads = obs::Metrics().GetGauge(
      "pool.threads", "threads",
      "parallelism of the pool serving the most recent parallel scan");
  static obs::Gauge* steals = obs::Metrics().GetGauge(
      "pool.steals", "tasks",
      "cumulative tasks stolen from another worker's deque");
  static obs::Gauge* queue_depth = obs::Metrics().GetGauge(
      "pool.queue_depth", "tasks",
      "queued-but-unstarted pool tasks, sampled at scan admission");
  scans->Increment();
  morsels->Increment(num_morsels);
  threads->Set(static_cast<double>(pool.parallelism()));
  steals->Set(static_cast<double>(pool.steals()));
  queue_depth->Set(static_cast<double>(pool.queued()));
}

/// Shared driver: records the per-scan telemetry, opens the driver span,
/// and runs `fn` over morsels of [0, items).
template <typename Fn>
void RunMorsels(const char* span_name, ThreadPool& pool, uint64_t items,
                uint64_t grain, const Fn& fn) {
  obs::ScopedSpan span(span_name);
  RecordParallelScan(pool, ThreadPool::NumChunks(items, grain));
  pool.ParallelFor(0, items, grain, fn);
}

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

/// Concatenates per-morsel row vectors in morsel order: the step that makes
/// parallel output identical to the serial scan.
std::vector<uint32_t> ConcatInOrder(std::vector<std::vector<uint32_t>> parts) {
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<uint32_t> out;
  out.reserve(total);
  for (const auto& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

}  // namespace

ThreadPool& EffectivePool(ThreadPool* pool) {
  return pool != nullptr ? *pool : Pool();
}

bool ShouldParallelize(uint64_t items, uint64_t grain, ThreadPool* pool) {
  if (items <= grain) return false;  // one morsel: serial is strictly better
  return EffectivePool(pool).parallelism() > 1;
}

std::vector<uint32_t> ParallelSelectRows(const StringColumn& column,
                                         const IdRange& range,
                                         ThreadPool* pool) {
  if (range.empty()) return {};
  ThreadPool& p = EffectivePool(pool);
  const uint64_t n = column.num_rows();
  std::vector<std::vector<uint32_t>> parts(
      ThreadPool::NumChunks(n, kMorselRows));
  const obs::ScopedColumnOp row_scan = column.RecordRowScan(n);
  RunMorsels("engine.parallel.select", p, n, kMorselRows,
             [&](uint64_t begin, uint64_t end) {
               SelectRowsInto(column, range, begin, end,
                              &parts[begin / kMorselRows]);
             });
  return ConcatInOrder(std::move(parts));
}

std::vector<uint32_t> ParallelSelectRows(const StringColumn& column,
                                         const std::vector<bool>& id_flags,
                                         ThreadPool* pool) {
  ThreadPool& p = EffectivePool(pool);
  const uint64_t n = column.num_rows();
  std::vector<std::vector<uint32_t>> parts(
      ThreadPool::NumChunks(n, kMorselRows));
  const obs::ScopedColumnOp row_scan = column.RecordRowScan(n);
  RunMorsels("engine.parallel.select", p, n, kMorselRows,
             [&](uint64_t begin, uint64_t end) {
               SelectRowsInto(column, id_flags, begin, end,
                              &parts[begin / kMorselRows]);
             });
  return ConcatInOrder(std::move(parts));
}

std::vector<uint32_t> ParallelRefineRows(const StringColumn& column,
                                         std::span<const uint32_t> rows,
                                         const IdRange& range,
                                         ThreadPool* pool) {
  if (range.empty()) return {};
  ThreadPool& p = EffectivePool(pool);
  const uint64_t n = rows.size();
  std::vector<std::vector<uint32_t>> parts(
      ThreadPool::NumChunks(n, kMorselRows));
  const obs::ScopedColumnOp row_scan = column.RecordRowScan(n);
  RunMorsels("engine.parallel.refine", p, n, kMorselRows,
             [&](uint64_t begin, uint64_t end) {
               RefineRowsInto(column, rows.subspan(begin, end - begin), range,
                              &parts[begin / kMorselRows]);
             });
  return ConcatInOrder(std::move(parts));
}

uint64_t ParallelCountRows(const StringColumn& column, const IdRange& range,
                           ThreadPool* pool) {
  if (range.empty()) return 0;
  ThreadPool& p = EffectivePool(pool);
  const uint64_t n = column.num_rows();
  std::vector<uint64_t> partial(ThreadPool::NumChunks(n, kMorselRows), 0);
  const obs::ScopedColumnOp row_scan = column.RecordRowScan(n);
  RunMorsels("engine.parallel.count", p, n, kMorselRows,
             [&](uint64_t begin, uint64_t end) {
               partial[begin / kMorselRows] =
                   CountRowsIn(column, range, begin, end);
             });
  uint64_t count = 0;
  for (uint64_t c : partial) count += c;  // morsel order (integers: any order)
  return count;
}

std::vector<bool> ParallelContainsAllIds(
    const StringColumn& column, std::span<const std::string_view> needles,
    ThreadPool* pool) {
  ThreadPool& p = EffectivePool(pool);
  const uint64_t n = column.num_distinct();
  // Each morsel matches into its own local flag vector; morsels are spliced
  // serially afterwards because std::vector<bool> packs 64 flags per word —
  // concurrent writes to adjacent ids at a morsel boundary would race.
  std::vector<std::vector<bool>> parts(
      ThreadPool::NumChunks(n, kMorselDictEntries));
  RunMorsels(
      "engine.parallel.contains", p, n, kMorselDictEntries,
      [&](uint64_t begin, uint64_t end) {
        std::vector<bool>& local = parts[begin / kMorselDictEntries];
        local.assign(end - begin, false);
        column.ScanDictionary(
            static_cast<uint32_t>(begin), static_cast<uint32_t>(end - begin),
            [&local, needles, begin](uint32_t id, std::string_view value) {
              size_t pos = 0;
              for (std::string_view needle : needles) {
                pos = value.find(needle, pos);
                if (pos == std::string_view::npos) return;
                pos += needle.size();
              }
              local[id - begin] = true;
            });
      });
  std::vector<bool> flags;
  flags.reserve(n);
  for (const auto& part : parts) {
    flags.insert(flags.end(), part.begin(), part.end());
  }
  return flags;
}

std::vector<uint32_t> MapDictionary(const StringColumn& from,
                                    const StringColumn& to, ThreadPool* pool) {
  ThreadPool& p = EffectivePool(pool);
  const uint64_t n = from.num_distinct();
  // Morsels write disjoint uint32_t slots of the shared mapping: no two
  // morsels touch the same element, so no synchronization is needed.
  std::vector<uint32_t> mapping(n, kNoMatch);
  RunMorsels("engine.parallel.map_dict", p, n, kMorselDictEntries,
             [&](uint64_t begin, uint64_t end) {
               MergeMorsel(from, to, static_cast<uint32_t>(begin),
                           static_cast<uint32_t>(end), mapping.data());
             });
  return mapping;
}

std::vector<uint32_t> ParallelCountIds(const StringColumn& column,
                                       ThreadPool* pool) {
  ThreadPool& p = EffectivePool(pool);
  const uint64_t n = column.num_rows();
  const uint32_t num_ids = column.num_distinct();
  // Shared atomic histogram: relaxed increments commute, so the final
  // counts are exact regardless of morsel interleaving.
  auto counts = std::make_unique<std::atomic<uint32_t>[]>(num_ids);
  for (uint32_t id = 0; id < num_ids; ++id) {
    counts[id].store(0, std::memory_order_relaxed);
  }
  const obs::ScopedColumnOp row_scan = column.RecordRowScan(n);
  RunMorsels("engine.parallel.count_ids", p, n, kMorselRows,
             [&](uint64_t begin, uint64_t end) {
               for (uint64_t row = begin; row < end; ++row) {
                 counts[column.GetValueId(row)].fetch_add(
                     1, std::memory_order_relaxed);
               }
             });
  std::vector<uint32_t> result(num_ids);
  for (uint32_t id = 0; id < num_ids; ++id) {
    result[id] = counts[id].load(std::memory_order_relaxed);
  }
  return result;
}

}  // namespace adict
