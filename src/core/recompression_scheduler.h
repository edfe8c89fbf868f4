// Background recompression under real memory pressure.
//
// The paper's controller closes the loop on *new* dictionaries: memory
// pressure lowers c, and the next delta merge picks a cheaper format. A
// store whose columns merge rarely reacts far too slowly when the machine
// is genuinely running out of memory. The RecompressionScheduler closes the
// loop on *existing* dictionaries (ROADMAP item 2, self-driving style):
// fed with MemorySamples — from a util/memory_pressure.h MemorySampler or
// directly by tests — it
//
//   1. forwards every good sample to TradeoffController::Observe (the
//      paper's feedback loop now runs on real measurements),
//   2. smooths the used-memory fraction into a pressure level
//      (none → advisory → urgent → critical) with hysteresis so a reading
//      hovering at a boundary cannot oscillate,
//   3. under pressure, ranks columns by (dictionary bytes × staleness ÷
//      recent traced usage) and rebuilds the top-ranked ones to cheaper
//      formats on the shared ThreadPool, through the guarded build chain
//      (core/build_guard.h), publishing via the snapshot protocol so scans
//      never block and never see a torn column.
//
// Degradation ladder, in order of increasing pressure:
//   advisory  — rebuild at most one column every `advisory_period_ticks`,
//               only when the manager's decision differs from the current
//               format (cheap housekeeping);
//   urgent    — rebuild up to `max_rebuilds_per_tick` columns per sample;
//   critical  — force the *smallest predicted* candidate instead of the
//               c-driven pick, up to `critical_max_rebuilds_per_tick`; a
//               failed build still degrades chosen → fc block → array
//               rather than aborting (never worse than an uncompressed,
//               readable column).
//
// Graceful behavior under the failure modes chaos tests inject
// (docs/memory_pressure.md):
//   - sampler errors (`mem.sample.fail`) are counted and skipped — the
//     scheduler holds its last level and the EMA is not polluted;
//   - a rebuild failure (`sched.rebuild.fail`, or a real guarded-build
//     exhaustion) leaves the old column version untouched and readable,
//     and is recorded in the decision log;
//   - a rebuild that races a delta merge loses: the publish is epoch-
//     guarded (VersionedStringColumn::Publish) and a lost race is
//     counted, never committed;
//   - rebuilds that stop reclaiming bytes trigger a backoff for
//     `backoff_ticks` samples instead of burning CPU re-compressing
//     already-minimal columns;
//   - a column is never rebuilt twice within `cooldown_ticks` samples;
//   - Stop() is a stop token: no new rebuilds start, in-flight ones are
//     drained, and the destructor stops implicitly.
//
// Thread safety: OnSample is called from the sampler thread, rebuilds run
// on pool threads, stats/level readers on any thread; all mutable state is
// guarded by one annotated mutex (never held across a rebuild — only
// across bookkeeping). Both scheduler locks are ranked in the core stratum
// of docs/lock_hierarchy.md, which is *below* obs: no observability call
// (heat reads, metrics registration, profiler rankings) may happen while
// either is held — PlanTick stages its work around that rule.
#ifndef ADICT_CORE_RECOMPRESSION_SCHEDULER_H_
#define ADICT_CORE_RECOMPRESSION_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/compression_manager.h"
#include "store/table.h"
#include "util/memory_pressure.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace adict {

/// Tiered pressure classification of the smoothed used-memory fraction.
enum class PressureLevel : int {
  kNone = 0,
  kAdvisory = 1,
  kUrgent = 2,
  kCritical = 3,
};

std::string_view PressureLevelName(PressureLevel level);

class RecompressionScheduler {
 public:
  struct Options {
    /// Smoothed used-fraction thresholds of the three tiers. A level is
    /// entered at its threshold and only left again below
    /// `threshold - hysteresis` (no oscillation when a reading hovers at a
    /// boundary).
    double advisory_threshold = 0.70;
    double urgent_threshold = 0.85;
    double critical_threshold = 0.95;
    double hysteresis = 0.03;
    /// EMA weight of the newest used-fraction measurement in (0, 1].
    double smoothing = 0.3;
    /// Samples that must pass between two rebuilds of the same column.
    uint64_t cooldown_ticks = 4;
    /// Advisory pressure rebuilds at most one column every this many
    /// samples (>= 1).
    uint64_t advisory_period_ticks = 4;
    /// Rebuild budget per sample at urgent / critical pressure.
    int max_rebuilds_per_tick = 1;
    int critical_max_rebuilds_per_tick = 2;
    /// A rebuild must reclaim at least this fraction of the old dictionary
    /// to count as progress; `backoff_after_stalls` consecutive
    /// non-reclaiming rebuilds pause rebuilding for `backoff_ticks`
    /// samples.
    double min_reclaim_fraction = 0.01;
    int backoff_after_stalls = 2;
    uint64_t backoff_ticks = 8;
    /// Usage-trace lifetime handed to the compression manager (the traced
    /// counts of the column version being replaced cover roughly the time
    /// since it was published).
    double lifetime_seconds = 60.0;
    /// Run rebuilds inline inside OnSample instead of on the shared pool.
    /// Deterministic; for tests and the memory-pressure bench.
    bool synchronous = false;
    /// Forward good samples to TradeoffController::Observe.
    bool feed_controller = true;
  };

  /// Cumulative counters, readable any time (mirrored as
  /// `sched.recompress.*` metrics; see docs/observability.md).
  struct Stats {
    uint64_t ticks = 0;            // samples consumed (good or errored)
    uint64_t sample_errors = 0;    // errored samples skipped
    uint64_t rebuilds = 0;         // rebuilds committed (published)
    uint64_t noop_decisions = 0;   // decisions that kept the current format
    uint64_t failed_rebuilds = 0;  // injected or exhausted rebuild failures
    uint64_t lost_races = 0;       // publishes skipped (epoch moved on)
    uint64_t skipped_cooldown = 0; // candidate columns inside cooldown
    uint64_t backoffs = 0;         // backoff periods entered
    uint64_t reclaimed_bytes = 0;  // dictionary bytes freed by rebuilds
    PressureLevel level = PressureLevel::kNone;
    double smoothed_used_fraction = 0;  // 0 until the first good sample
  };

  /// The scheduler walks `table`'s string columns and decides formats with
  /// `manager`. Both must outlive the scheduler; the table's column set
  /// must not change while the scheduler runs (columns are indexed at
  /// construction).
  RecompressionScheduler(Table* table, CompressionManager* manager,
                         Options options);
  // Overload instead of a defaulted Options argument: GCC rejects an
  // in-class `= Options()` default before the nested struct's NSDMIs are
  // complete.
  RecompressionScheduler(Table* table, CompressionManager* manager)
      : RecompressionScheduler(table, manager, Options()) {}
  ~RecompressionScheduler();
  RecompressionScheduler(const RecompressionScheduler&) = delete;
  RecompressionScheduler& operator=(const RecompressionScheduler&) = delete;

  /// Consumes one memory measurement: the MemorySampler callback target,
  /// also callable directly (tests, benches, an external control plane).
  void OnSample(const StatusOr<MemorySample>& sample);

  /// Owns and starts a MemorySampler wired to OnSample. `period_millis` 0
  /// means ADICT_MEM_POLL_MS (util/memory_pressure.h). Stop() stops it.
  void AttachSampler(std::unique_ptr<MemoryProvider> provider,
                     uint64_t period_millis = 0);

  /// Stop token: no rebuild starts after this returns, in-flight rebuilds
  /// are drained, an attached sampler is stopped. Idempotent.
  void Stop();
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  /// Pauses / resumes rebuild scheduling. Samples keep flowing to the
  /// controller and the pressure level keeps tracking while paused.
  void Pause() { paused_.store(true, std::memory_order_release); }
  void Resume() { paused_.store(false, std::memory_order_release); }

  /// Registers a hook invoked (outside the scheduler's mutex, on the
  /// sampling thread) whenever a sample *changes* the pressure level. The
  /// serving layer uses it to flush its result cache once pressure reaches
  /// urgent — cached results are the cheapest bytes to give back. The hook
  /// must be fast and must not call back into the scheduler.
  void SetPressureHook(std::function<void(PressureLevel)> hook)
      ADICT_EXCLUDES(mutex_);

  PressureLevel level() const ADICT_EXCLUDES(mutex_);
  Stats stats() const ADICT_EXCLUDES(mutex_);
  const Options& options() const { return options_; }

  /// Blocks until no rebuild is in flight (for deterministic teardown and
  /// tests; Stop() calls it internally).
  void DrainForTest() ADICT_EXCLUDES(mutex_);

 private:
  struct ColumnState {
    std::string name;
    // Tick of the last rebuild attempt that reached a decision (including
    // no-ops), for cooldown and staleness; int64 so "never" can predate
    // tick 0 by a full cooldown.
    int64_t last_rebuild_tick;
    bool in_flight = false;
  };

  /// What OnSample decided to do while holding the mutex; executed after
  /// release.
  struct TickPlan {
    std::vector<size_t> rebuild_columns;
    PressureLevel level = PressureLevel::kNone;
    bool level_changed = false;  // this sample moved the tier
  };

  /// How one rebuild attempt ended, for stats and backoff accounting.
  enum class RebuildOutcome {
    kPublished,  // new version committed
    kNoop,       // decision kept the current format
    kFailed,     // injected failure or guarded build exhausted its chain
    kLostRace,   // another writer published first; nothing committed
    kAborted,    // stop token observed before the decision
  };

  PressureLevel Classify(double smoothed, PressureLevel previous) const;
  TickPlan PlanTick(const MemorySample& sample) ADICT_EXCLUDES(mutex_);
  void RebuildColumn(size_t index, PressureLevel level)
      ADICT_EXCLUDES(mutex_);
  void FinishRebuild(size_t index, RebuildOutcome outcome,
                     uint64_t reclaimed_bytes, bool progress)
      ADICT_EXCLUDES(mutex_);

  Table* table_;
  CompressionManager* manager_;
  const Options options_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};

  mutable Mutex mutex_{LockRank::kSchedulerState,
                       "RecompressionScheduler.mutex_"};
  std::vector<ColumnState> columns_ ADICT_GUARDED_BY(mutex_);
  Stats stats_ ADICT_GUARDED_BY(mutex_);
  int64_t tick_ ADICT_GUARDED_BY(mutex_) = 0;
  double smoothed_used_fraction_ ADICT_GUARDED_BY(mutex_) = -1.0;  // unset
  PressureLevel level_ ADICT_GUARDED_BY(mutex_) = PressureLevel::kNone;
  int consecutive_stalls_ ADICT_GUARDED_BY(mutex_) = 0;
  int64_t backoff_until_tick_ ADICT_GUARDED_BY(mutex_) = -1;
  std::function<void(PressureLevel)> pressure_hook_ ADICT_GUARDED_BY(mutex_);

  // Drain signalling. Ranked below mutex_ (PlanTick registers pending
  // rebuilds while still holding the state lock) and above nothing else.
  mutable MutexCv drain_mutex_{LockRank::kSchedulerDrain,
                               "RecompressionScheduler.drain_mutex_"};
  int pending_rebuilds_ ADICT_GUARDED_BY(drain_mutex_) = 0;

  std::unique_ptr<MemorySampler> sampler_;  // set by AttachSampler
};

}  // namespace adict

#endif  // ADICT_CORE_RECOMPRESSION_SCHEDULER_H_
