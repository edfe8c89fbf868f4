// Continuous workload-heat profiler: per-column, per-operation usage with
// time decay, the live signal behind the adaptive loop.
//
// The paper's offline prototype traces lifetime extract/locate counts and
// feeds them into the next format decision. Lifetime counts cannot tell a
// column that was hot an hour ago from one that is hot now, which is
// exactly the distinction the recompression scheduler needs under memory
// pressure: evict the *currently* cold dictionary first. The profiler keeps
// one slot per column — the column's only usage record — with
//
//   - relaxed-atomic counts and bytes per operation (extract / locate /
//     scan / merge / row_scan). Counts are recorded whether or not
//     observability is on, so format decisions and eviction ranking never
//     depend on obs::SetEnabled; bytes and timing are recorded only when
//     it is on;
//   - a latency histogram per operation (Histogram::Quantile gives
//     p50/p95/p99). Batch operations (dictionary scans, merges, row
//     scans) time themselves exactly; singleton extracts/locates sample
//     every kLatencySamplePeriod-th call so the common case never reads
//     the clock;
//   - a usage window: the extract/locate/scan counts since the column's
//     last publish or ResetUsage, which StringColumn::TracedUsage reads;
//   - an exponentially time-decayed operation rate ("heat"), folded lazily:
//     readers pay the decay math, writers never do.
//
// Slots are created once (VersionedStringColumn binds every version of a
// Table column to the slot named "table.column") and never destroyed, so
// instrumentation sites cache the raw pointer; a null slot disables every
// helper at the cost of one branch. ScopedQueryProfile snapshots all slots
// around a query and pushes the diff into a bounded ring — the per-query
// attribution served by /profile.json (http_exporter.h).
#ifndef ADICT_OBS_WORKLOAD_PROFILER_H_
#define ADICT_OBS_WORKLOAD_PROFILER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/thread_annotations.h"

namespace adict {
namespace obs {

/// The operations the profiler distinguishes. kScan counts dictionary
/// entries read sequentially (ScanDictionary, and the cursors of
/// MapDictionary's merge); kRowScan counts rows a vector driver
/// compared as packed value IDs, without touching the dictionary.
enum class ColumnOp : int { kExtract, kLocate, kScan, kMerge, kRowScan };
inline constexpr int kNumColumnOps = 5;

std::string_view ColumnOpName(ColumnOp op);

/// One column's heat slot. Created by WorkloadProfiler::GetColumn, stable
/// for the life of the process (never moved or destroyed).
class ColumnHeat {
 public:
  /// Singleton extracts/locates time themselves once per this many calls;
  /// the sampled latency is scaled back up for the per-op time totals.
  static constexpr uint64_t kLatencySamplePeriod = 64;

  /// Cumulative totals of one operation on one column.
  struct OpTotals {
    uint64_t count = 0;
    uint64_t bytes = 0;
    double total_us = 0;  // sampled ops contribute latency * sample period
  };

  explicit ColumnHeat(std::string name);
  ColumnHeat(const ColumnHeat&) = delete;
  ColumnHeat& operator=(const ColumnHeat&) = delete;

  const std::string& name() const { return name_; }

  /// Hot path: two relaxed adds. Returns the pre-add cumulative count of
  /// `op` (the latency-sampling clock for singleton operations).
  uint64_t RecordOp(ColumnOp op, uint64_t count, uint64_t bytes) {
    const auto i = static_cast<size_t>(op);
    if (bytes != 0) bytes_[i].fetch_add(bytes, std::memory_order_relaxed);
    return counts_[i].fetch_add(count, std::memory_order_relaxed);
  }
  void AddBytes(ColumnOp op, uint64_t bytes) {
    bytes_[static_cast<size_t>(op)].fetch_add(bytes,
                                              std::memory_order_relaxed);
  }

  /// Records one latency observation. `represented_ops` scales the
  /// contribution to total_us (kLatencySamplePeriod for a sampled
  /// singleton, 1 for an exactly-timed batch); the histogram always
  /// receives the raw observation.
  void RecordLatency(ColumnOp op, double us, uint64_t represented_ops);

  OpTotals Totals(ColumnOp op) const;
  uint64_t TotalOps() const;
  const Histogram& latency(ColumnOp op) const {
    return latency_[static_cast<size_t>(op)];
  }

  /// Count of `op` since the usage window last restarted (never negative:
  /// a concurrent reset reads as 0).
  uint64_t WindowCount(ColumnOp op) const;
  /// Restarts the usage window at the current counts.
  void RestartWindow();

  /// Exponentially decayed operation count: folds the ops recorded since
  /// the last fold into `heat * 2^(-dt / half_life)` and returns the
  /// result. Readers pay the fold; the record path never does.
  double DecayedHeat() const ADICT_EXCLUDES(decay_mutex_);

  /// Deterministic decay for tests: folds pending ops, then ages the heat
  /// by `seconds` without waiting. Later folds do not re-apply the wall
  /// time skipped here.
  void DecayForTest(double seconds) ADICT_EXCLUDES(decay_mutex_);

  /// Zeroes counters, the usage window, histograms, and heat; keeps the
  /// slot and its gauge.
  void ResetValues() ADICT_EXCLUDES(decay_mutex_);

 private:
  friend class WorkloadProfiler;

  double FoldLocked(double now_seconds, double extra_age_seconds) const
      ADICT_REQUIRES(decay_mutex_);

  const std::string name_;
  Gauge* heat_gauge_;  // "profiler.heat.<column>", refreshed on fold

  std::array<std::atomic<uint64_t>, kNumColumnOps> counts_{};
  std::array<std::atomic<uint64_t>, kNumColumnOps> bytes_{};
  std::array<std::atomic<uint64_t>, kNumColumnOps> window_base_{};
  std::array<std::atomic<double>, kNumColumnOps> total_us_{};
  std::array<Histogram, kNumColumnOps> latency_;

  mutable Mutex decay_mutex_{LockRank::kColumnHeatDecay,
                             "ColumnHeat.decay_mutex_"};
  mutable double heat_ ADICT_GUARDED_BY(decay_mutex_) = 0;
  mutable uint64_t folded_ops_ ADICT_GUARDED_BY(decay_mutex_) = 0;
  mutable double last_fold_seconds_ ADICT_GUARDED_BY(decay_mutex_) = 0;
};

/// Whether a ScopedColumnOp decides for itself when to read the clock.
enum class OpTiming {
  kAuto,    // batches (count > 1) always, singletons sampled
  kAlways,  // rare-but-important operations (merges)
};

/// Records one column operation into a heat slot: the count at once,
/// whether or not observability is on; bytes and (sampled) latency on scope
/// exit, only when it is on. A null slot or a zero count makes it a no-op,
/// and with observability off it never reads the clock.
class ScopedColumnOp {
 public:
  /// `count` > 1 marks a batch operation, which is always timed exactly;
  /// `count` == 1 is a singleton, timed every kLatencySamplePeriod-th call
  /// (unless `timing` forces the clock). `bytes` seeds AddBytes.
  ScopedColumnOp(ColumnHeat* heat, ColumnOp op, uint64_t count = 1,
                 OpTiming timing = OpTiming::kAuto, uint64_t bytes = 0)
      : op_(op), bytes_(bytes) {
    if (heat == nullptr || count == 0) return;
    const uint64_t before = heat->RecordOp(op, count, 0);
    if (!Enabled()) return;
    heat_ = heat;
    if (timing == OpTiming::kAlways || count > 1) {
      represented_ = 1;
    } else if (before % ColumnHeat::kLatencySamplePeriod == 0) {
      represented_ = ColumnHeat::kLatencySamplePeriod;
    }
    if (represented_ != 0) start_ = Clock::now();
  }
  ~ScopedColumnOp() {
    if (heat_ == nullptr) return;
    if (bytes_ != 0) heat_->AddBytes(op_, bytes_);
    if (represented_ != 0) {
      heat_->RecordLatency(
          op_,
          std::chrono::duration<double, std::micro>(Clock::now() - start_)
              .count(),
          represented_);
    }
  }
  ScopedColumnOp(const ScopedColumnOp&) = delete;
  ScopedColumnOp& operator=(const ScopedColumnOp&) = delete;

  void AddBytes(uint64_t n) { bytes_ += n; }

 private:
  using Clock = std::chrono::steady_clock;
  ColumnHeat* heat_ = nullptr;  // set only when bytes and timing record
  ColumnOp op_;
  uint64_t bytes_ = 0;
  uint64_t represented_ = 0;  // ops this timing stands for; 0 = not timed
  Clock::time_point start_;
};

/// Per-query attribution: which columns one query touched, and how much.
struct QueryColumnUsage {
  std::string column;
  std::array<ColumnHeat::OpTotals, kNumColumnOps> ops;
};

struct QueryAttribution {
  std::string query;
  double wall_us = 0;
  std::vector<QueryColumnUsage> columns;  // only columns with activity
};

/// One row of the recompression scheduler's latest pressure ranking, for
/// /profile.json (the "why was this column evicted" answer).
struct SchedulerRankEntry {
  std::string column;
  double score = 0;         // dict_bytes * staleness / (1 + heat)
  double decayed_heat = 0;  // traffic signal the score divided by
  uint64_t dict_bytes = 0;
  double staleness = 0;  // ticks since the column's last rebuild
};

/// Process-wide registry of heat slots plus the query-attribution ring and
/// the scheduler's latest ranking. Access through Profiler().
class WorkloadProfiler {
 public:
  static constexpr size_t kQueryRingCapacity = 64;

  WorkloadProfiler() = default;
  WorkloadProfiler(const WorkloadProfiler&) = delete;
  WorkloadProfiler& operator=(const WorkloadProfiler&) = delete;

  /// The slot for `name` ("table.column"), created on first use. The
  /// returned pointer is stable forever — cache it.
  ColumnHeat* GetColumn(std::string_view name) ADICT_EXCLUDES(mutex_);

  /// Stable pointers to all slots, sorted by name.
  std::vector<const ColumnHeat*> Columns() const ADICT_EXCLUDES(mutex_);
  std::vector<ColumnHeat*> MutableColumns() ADICT_EXCLUDES(mutex_);

  /// Brings the scrape-time metrics up to date (called by the HTTP
  /// exporter before a /metrics scrape): folds every slot's decayed heat
  /// into its "profiler.heat.<column>" gauge, and sets the dict.* totals
  /// to the sums of the slots' extract, locate and scan counts.
  void RefreshScrapeMetrics() ADICT_EXCLUDES(mutex_);

  /// Half-life of the decayed heat, seconds. Applies on the next fold.
  double half_life_seconds() const {
    return half_life_seconds_.load(std::memory_order_relaxed);
  }
  void set_half_life_seconds(double seconds) {
    half_life_seconds_.store(seconds, std::memory_order_relaxed);
  }

  void RecordQuery(QueryAttribution record) ADICT_EXCLUDES(mutex_);
  std::vector<QueryAttribution> RecentQueries() const ADICT_EXCLUDES(mutex_);
  uint64_t total_queries() const ADICT_EXCLUDES(mutex_);

  void RecordSchedulerRanking(std::vector<SchedulerRankEntry> ranking)
      ADICT_EXCLUDES(mutex_);
  std::vector<SchedulerRankEntry> LatestSchedulerRanking() const
      ADICT_EXCLUDES(mutex_);

  /// Zeroes every slot and clears the rings; slots (and cached pointers)
  /// survive, mirroring MetricsRegistry::ResetValues.
  void ResetValues() ADICT_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_{LockRank::kProfilerState,
                       "WorkloadProfiler.mutex_"};
  // Node-based map: ColumnHeat addresses are stable across insertions.
  std::map<std::string, ColumnHeat, std::less<>> columns_
      ADICT_GUARDED_BY(mutex_);
  std::deque<QueryAttribution> queries_ ADICT_GUARDED_BY(mutex_);
  uint64_t total_queries_ ADICT_GUARDED_BY(mutex_) = 0;
  std::vector<SchedulerRankEntry> ranking_ ADICT_GUARDED_BY(mutex_);
  std::atomic<double> half_life_seconds_{30.0};
};

/// The process-wide profiler. Never destroyed.
WorkloadProfiler& Profiler();

/// RAII per-query attribution: snapshots every slot's totals at
/// construction, diffs at destruction, and pushes the result into the
/// profiler's query ring. Exact for serial queries; concurrent queries on
/// the same columns blend into each other's diffs (documented in
/// docs/observability.md). Inactive when observability is off.
class ScopedQueryProfile {
 public:
  explicit ScopedQueryProfile(std::string_view query);
  ~ScopedQueryProfile();
  ScopedQueryProfile(const ScopedQueryProfile&) = delete;
  ScopedQueryProfile& operator=(const ScopedQueryProfile&) = delete;

 private:
  struct SlotSnapshot {
    ColumnHeat* slot;
    std::array<ColumnHeat::OpTotals, kNumColumnOps> ops;
  };

  std::string query_;
  bool active_ = false;
  std::chrono::steady_clock::time_point start_;
  std::vector<SlotSnapshot> before_;
};

/// {"half_life_seconds":...,"columns":[...],"queries":[...],
///  "scheduler_ranking":[...]} — the /profile.json body.
std::string ProfileToJson(const WorkloadProfiler& profiler);

}  // namespace obs
}  // namespace adict

#endif  // ADICT_OBS_WORKLOAD_PROFILER_H_
