// Epoch-invalidated, byte-bounded LRU result cache.
//
// The serving layer keys cached serialized results on a 64-bit FNV-1a
// digest of the query (protocol.h, RequestDigest) — the proxysql
// `umap_query_digest` idea. Correctness across delta merges comes from the
// snapshot protocol's epochs: each entry records the (column, epoch) pairs
// the producing execution pinned, and a lookup revalidates every dependency
// against the column's current epoch (one brief column lock each).
// Any PublishStrings — a delta merge, a format change under pressure —
// bumps the epoch and thereby evicts all dependent entries at their next
// lookup, so a stale result is never served across an epoch boundary
// (tests/server_test.cc proves it; docs/serving.md#result-cache).
//
// Capacity is bounded in bytes with least-recently-used eviction, and the
// whole cache can be flushed by the recompression scheduler's pressure hook
// — cached results are the cheapest memory in the store to give back.
#ifndef ADICT_SERVER_RESULT_CACHE_H_
#define ADICT_SERVER_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "store/table.h"
#include "util/thread_annotations.h"

namespace adict {

/// One pinned column version a cached result was computed against. The column
/// pointer is only ever compared and dereferenced for its current epoch;
/// registered tables must outlive the cache (the server guarantees this).
struct CacheDependency {
  const VersionedStringColumn* column = nullptr;
  uint64_t epoch = 0;
};

/// Appends the dependencies of a result computed from `snapshot`: its pins.
inline void AddPinDependencies(const TableSnapshot& snapshot,
                               std::vector<CacheDependency>* deps) {
  for (size_t i = 0; i < snapshot.pins().size(); ++i) {
    deps->push_back({&snapshot.table().string_column(i), snapshot.pins()[i]->epoch()});
  }
}

class ResultCache {
 public:
  struct Options {
    /// Total payload budget; 0 disables the cache entirely (every Lookup
    /// misses, every Insert is dropped).
    size_t max_bytes = 8u << 20;
  };

  /// Monotonic counters plus current occupancy, all under one snapshot.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t lru_evictions = 0;
    uint64_t stale_evictions = 0;  ///< dropped on epoch mismatch at lookup
    uint64_t flushes = 0;          ///< entries dropped by Flush()
    size_t bytes = 0;
    size_t entries = 0;
  };

  explicit ResultCache(Options options);

  /// The cached payload for `digest`, revalidating its epoch dependencies.
  /// A stale entry is erased (counted as a stale eviction) and reported as
  /// a miss. A hit refreshes recency.
  std::optional<std::vector<uint8_t>> Lookup(uint64_t digest)
      ADICT_EXCLUDES(mutex_);

  /// Inserts (or replaces) the payload for `digest`. Entries larger than
  /// the whole budget are dropped; otherwise LRU entries are evicted until
  /// the new entry fits.
  void Insert(uint64_t digest, std::vector<uint8_t> payload,
              std::vector<CacheDependency> deps) ADICT_EXCLUDES(mutex_);

  /// Drops every entry (the memory-pressure hook).
  void Flush() ADICT_EXCLUDES(mutex_);

  Stats stats() const ADICT_EXCLUDES(mutex_);
  size_t max_bytes() const { return options_.max_bytes; }
  bool enabled() const { return options_.max_bytes > 0; }

 private:
  struct Entry {
    uint64_t digest = 0;
    std::vector<uint8_t> payload;
    std::vector<CacheDependency> deps;
    size_t cost = 0;
  };

  static size_t EntryCost(const Entry& entry);
  /// True when every dependency's column is still at the recorded epoch.
  static bool Fresh(const Entry& entry);
  void EraseLocked(std::list<Entry>::iterator it) ADICT_REQUIRES(mutex_);
  void PublishOccupancyMetrics() ADICT_REQUIRES(mutex_);

  const Options options_;
  mutable Mutex mutex_{LockRank::kResultCache, "ResultCache.mutex_"};
  /// Front = most recently used.
  std::list<Entry> lru_ ADICT_GUARDED_BY(mutex_);
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_
      ADICT_GUARDED_BY(mutex_);
  size_t bytes_ ADICT_GUARDED_BY(mutex_) = 0;
  Stats stats_ ADICT_GUARDED_BY(mutex_);
};

}  // namespace adict

#endif  // ADICT_SERVER_RESULT_CACHE_H_
