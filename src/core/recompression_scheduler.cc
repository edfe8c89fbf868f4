#include "core/recompression_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/build_guard.h"
#include "obs/decision_log.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/workload_profiler.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace adict {

std::string_view PressureLevelName(PressureLevel level) {
  switch (level) {
    case PressureLevel::kNone:
      return "none";
    case PressureLevel::kAdvisory:
      return "advisory";
    case PressureLevel::kUrgent:
      return "urgent";
    case PressureLevel::kCritical:
      return "critical";
  }
  return "unknown";
}

namespace {

/// Level implied by `fraction` against the raw (entry) thresholds.
PressureLevel RawLevel(double fraction, double advisory, double urgent,
                       double critical) {
  if (fraction >= critical) return PressureLevel::kCritical;
  if (fraction >= urgent) return PressureLevel::kUrgent;
  if (fraction >= advisory) return PressureLevel::kAdvisory;
  return PressureLevel::kNone;
}

}  // namespace

RecompressionScheduler::RecompressionScheduler(Table* table,
                                               CompressionManager* manager,
                                               Options options)
    : table_(table), manager_(manager), options_(std::move(options)) {
  MutexLock lock(&mutex_);
  columns_.reserve(table_->num_string_columns());
  for (size_t i = 0; i < table_->num_string_columns(); ++i) {
    ColumnState state;
    state.name = table_->string_column_name(i);
    // Eligible from the first tick: "never rebuilt" predates tick 0 by a
    // full cooldown.
    state.last_rebuild_tick = -static_cast<int64_t>(options_.cooldown_ticks);
    columns_.push_back(std::move(state));
  }
}

RecompressionScheduler::~RecompressionScheduler() { Stop(); }

void RecompressionScheduler::Stop() {
  stop_.store(true, std::memory_order_release);
  if (sampler_) sampler_->Stop();
  DrainForTest();
}

void RecompressionScheduler::DrainForTest() {
  MutexLock lock(&drain_mutex_);
  drain_mutex_.Await([this]() ADICT_CV_PREDICATE {
    // pending_rebuilds_ is guarded by drain_mutex_, held via Await.
    return pending_rebuilds_ == 0;
  });
}

void RecompressionScheduler::AttachSampler(
    std::unique_ptr<MemoryProvider> provider, uint64_t period_millis) {
  MemorySampler::Options sampler_options;
  sampler_options.period_millis = period_millis;
  sampler_ = std::make_unique<MemorySampler>(
      std::move(provider),
      [this](const StatusOr<MemorySample>& sample) { OnSample(sample); },
      sampler_options);
  sampler_->Start();
}

void RecompressionScheduler::SetPressureHook(
    std::function<void(PressureLevel)> hook) {
  MutexLock lock(&mutex_);
  pressure_hook_ = std::move(hook);
}

PressureLevel RecompressionScheduler::level() const {
  MutexLock lock(&mutex_);
  return level_;
}

RecompressionScheduler::Stats RecompressionScheduler::stats() const {
  MutexLock lock(&mutex_);
  return stats_;
}

PressureLevel RecompressionScheduler::Classify(double smoothed,
                                               PressureLevel previous) const {
  const PressureLevel up =
      RawLevel(smoothed, options_.advisory_threshold,
               options_.urgent_threshold, options_.critical_threshold);
  // Going up is immediate; going down requires clearing the old level's
  // threshold by the hysteresis margin, so a reading hovering at a boundary
  // settles on the higher level instead of oscillating.
  if (up >= previous) return up;
  const double h = options_.hysteresis;
  const PressureLevel down =
      RawLevel(smoothed, options_.advisory_threshold - h,
               options_.urgent_threshold - h, options_.critical_threshold - h);
  return std::min(previous, down);
}

void RecompressionScheduler::OnSample(const StatusOr<MemorySample>& sample) {
  if (stopped()) return;

  if (obs::Enabled()) {
    static obs::Counter* samples = obs::Metrics().GetCounter(
        "mem.samples", "samples", "memory samples consumed by the scheduler");
    samples->Increment();
  }

  if (!sample.ok()) {
    // A failed read (sandboxed /proc, torn-down cgroup, injected
    // mem.sample.fail) is counted and otherwise ignored: the EMA and the
    // pressure level hold their last good state.
    {
      MutexLock lock(&mutex_);
      ++tick_;
      ++stats_.ticks;
      ++stats_.sample_errors;
    }
    if (obs::Enabled()) {
      static obs::Counter* errors = obs::Metrics().GetCounter(
          "mem.sample.errors", "samples",
          "memory samples discarded because the provider read failed");
      errors->Increment();
    }
    return;
  }

  if (options_.feed_controller) {
    // The paper's feedback loop, now fed by real measurements: Observe
    // adjusts the global trade-off parameter c toward the free-memory
    // target, which shifts every later format decision (including the
    // rebuilds this scheduler triggers).
    manager_->controller().Observe(
        static_cast<double>(sample->free_bytes()),
        static_cast<double>(sample->total_bytes));
  }

  const TickPlan plan = PlanTick(*sample);

  if (plan.level_changed) {
    // Copy the hook out under the lock, invoke it outside: a hook that
    // flushes a large result cache must not serialize against stats readers.
    std::function<void(PressureLevel)> hook;
    {
      MutexLock lock(&mutex_);
      hook = pressure_hook_;
    }
    if (hook) hook(plan.level);
  }

  if (obs::Enabled()) {
    static obs::Gauge* used = obs::Metrics().GetGauge(
        "mem.used_bytes", "bytes", "last sampled memory usage");
    static obs::Gauge* total = obs::Metrics().GetGauge(
        "mem.total_bytes", "bytes", "last sampled memory budget");
    static obs::Gauge* fraction = obs::Metrics().GetGauge(
        "mem.used_fraction", "fraction", "last sampled used / total");
    static obs::Gauge* smoothed = obs::Metrics().GetGauge(
        "mem.smoothed_used_fraction", "fraction",
        "EMA-smoothed used fraction the pressure tiers classify");
    static obs::Gauge* level_gauge = obs::Metrics().GetGauge(
        "mem.pressure_level", "level",
        "current pressure tier (0 none, 1 advisory, 2 urgent, 3 critical)");
    used->Set(static_cast<double>(sample->used_bytes));
    total->Set(static_cast<double>(sample->total_bytes));
    fraction->Set(sample->used_fraction());
    double smoothed_value;
    {
      MutexLock lock(&mutex_);
      smoothed_value = smoothed_used_fraction_;
    }
    smoothed->Set(smoothed_value);
    level_gauge->Set(static_cast<double>(plan.level));
  }

  for (size_t index : plan.rebuild_columns) {
    if (options_.synchronous) {
      RebuildColumn(index, plan.level);
    } else {
      Pool().Submit([this, index, level = plan.level] {
        RebuildColumn(index, level);
      });
    }
  }
}

RecompressionScheduler::TickPlan RecompressionScheduler::PlanTick(
    const MemorySample& sample) {
  // Three phases around the lock hierarchy: the scheduler's state lock sits
  // in the core stratum, *below* obs, so the heat reads, metric
  // registrations, and profiler ranking in the middle must run unlocked.
  // Phase 1 (locked): advance the tick, classify pressure, collect eligible
  // candidates. Phase 2 (unlocked): snapshot the candidates' columns, read
  // their decayed heat, score, sort, publish the ranking. Phase 3 (locked):
  // commit the top-ranked candidates that are still eligible.
  TickPlan plan;
  struct Candidate {
    size_t index;
    std::string name;
    double staleness;
  };
  std::vector<Candidate> candidates;
  size_t budget = 0;
  uint64_t newly_skipped = 0;
  {
    MutexLock lock(&mutex_);
    ++tick_;
    ++stats_.ticks;

    const double fraction = std::clamp(sample.used_fraction(), 0.0, 1.0);
    smoothed_used_fraction_ =
        smoothed_used_fraction_ < 0
            ? fraction
            : options_.smoothing * fraction +
                  (1.0 - options_.smoothing) * smoothed_used_fraction_;
    const PressureLevel previous_level = level_;
    level_ = Classify(smoothed_used_fraction_, level_);
    plan.level_changed = level_ != previous_level;
    stats_.level = level_;
    stats_.smoothed_used_fraction = smoothed_used_fraction_;
    plan.level = level_;

    if (paused_.load(std::memory_order_acquire) ||
        stop_.load(std::memory_order_acquire)) {
      return plan;
    }
    if (backoff_until_tick_ >= tick_) return plan;

    switch (level_) {
      case PressureLevel::kNone:
        break;
      case PressureLevel::kAdvisory: {
        const uint64_t period =
            std::max<uint64_t>(options_.advisory_period_ticks, 1);
        if (static_cast<uint64_t>(tick_) % period == 0) budget = 1;
        break;
      }
      case PressureLevel::kUrgent:
        budget =
            static_cast<size_t>(std::max(options_.max_rebuilds_per_tick, 0));
        break;
      case PressureLevel::kCritical:
        budget = static_cast<size_t>(
            std::max(options_.critical_max_rebuilds_per_tick, 0));
        break;
    }
    if (budget == 0) return plan;

    candidates.reserve(columns_.size());
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (columns_[i].in_flight) continue;
      const int64_t since = tick_ - columns_[i].last_rebuild_tick;
      if (since < static_cast<int64_t>(options_.cooldown_ticks)) {
        ++stats_.skipped_cooldown;
        ++newly_skipped;
        continue;
      }
      candidates.push_back(
          {i, columns_[i].name, static_cast<double>(since)});
    }
  }

  if (newly_skipped > 0 && obs::Enabled()) {
    static obs::Counter* skipped = obs::Metrics().GetCounter(
        "sched.recompress.skipped_cooldown", "columns",
        "rebuild candidates skipped because the column was rebuilt "
        "within the cooldown window");
    skipped->Increment(newly_skipped);
  }
  if (candidates.empty()) return plan;

  // Rank eligible columns by expected payoff: big dictionaries that have
  // not been rebuilt for a while and see little traffic reclaim the most
  // bytes for the least interference. Traffic is the column usage record's
  // (every table column has one) *decayed* heat — a column that was hot an
  // hour ago but idle now ranks as cold and is evicted first; lifetime
  // counters cannot tell the two apart.
  struct Ranked {
    size_t index;
    std::string name;
    double score;
    double heat;
    uint64_t dict_bytes;
    double staleness;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(candidates.size());
  for (Candidate& candidate : candidates) {
    const std::shared_ptr<const StringColumn> snapshot =
        table_->string_column(candidate.index).Snapshot();
    const double traffic_signal = snapshot->heat()->DecayedHeat();
    const double score = static_cast<double>(snapshot->DictionaryBytes()) *
                         candidate.staleness / (1.0 + traffic_signal);
    ranked.push_back({candidate.index, std::move(candidate.name), score,
                      traffic_signal, snapshot->DictionaryBytes(),
                      candidate.staleness});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    return a.score > b.score || (a.score == b.score && a.index < b.index);
  });
  if (obs::Enabled() && !ranked.empty()) {
    std::vector<obs::SchedulerRankEntry> entries;
    entries.reserve(ranked.size());
    for (const Ranked& r : ranked) {
      entries.push_back({r.name, r.score, r.heat, r.dict_bytes, r.staleness});
    }
    obs::Profiler().RecordSchedulerRanking(std::move(entries));
  }

  {
    MutexLock lock(&mutex_);
    for (const Ranked& r : ranked) {
      if (plan.rebuild_columns.size() >= budget) break;
      // Re-check under the lock: a synchronous FinishRebuild or a racing
      // tick could have marked the column in flight between the phases.
      if (columns_[r.index].in_flight) continue;
      columns_[r.index].in_flight = true;
      plan.rebuild_columns.push_back(r.index);
    }
    if (!plan.rebuild_columns.empty()) {
      MutexLock drain_lock(&drain_mutex_);
      pending_rebuilds_ += static_cast<int>(plan.rebuild_columns.size());
    }
  }
  return plan;
}

void RecompressionScheduler::RebuildColumn(size_t index, PressureLevel level) {
  ADICT_TRACE_SPAN("sched.rebuild");
  const auto start = std::chrono::steady_clock::now();

  if (stopped()) {
    FinishRebuild(index, RebuildOutcome::kAborted, 0, true);
    return;
  }

  std::string name;
  {
    MutexLock lock(&mutex_);
    name = columns_[index].name;
  }
  VersionedStringColumn& column = table_->string_column(index);
  const std::shared_ptr<const StringColumn> snapshot = column.Snapshot();
  const uint64_t bytes_before = snapshot->DictionaryBytes();
  const DictFormat current_format = snapshot->format();
  const ColumnUsage usage = snapshot->TracedUsage(options_.lifetime_seconds);
  const std::vector<std::string> values = snapshot->MaterializeDictionary();

  // Critical pressure overrides the c-driven pick: take the smallest
  // predicted candidate outright, logged like any other decision so the
  // override is visible in the decision log.
  const FormatDecision decision = manager_->ChooseFormatLogged(
      values, usage, name,
      level == PressureLevel::kCritical ? CompressionManager::Pick::kSmallest
                                        : CompressionManager::Pick::kTradeoff);

  if (decision.format == current_format) {
    if (obs::Enabled()) {
      static obs::Counter* noops = obs::Metrics().GetCounter(
          "sched.recompress.noop", "decisions",
          "pressure-triggered decisions that kept the current format");
      noops->Increment();
    }
    // A no-op decision reclaims nothing: it feeds the stall/backoff
    // accounting so the scheduler stops hammering already-minimal columns.
    FinishRebuild(index, RebuildOutcome::kNoop, 0, false);
    return;
  }

  if (ADICT_FAIL_POINT("sched.rebuild.fail")) {
    // Injected after the decision is logged so the abort is attributable:
    // the decision record carries a fallback entry naming the failure.
    if (decision.log_sequence != 0) {
      obs::FallbackEvent event;
      event.from_format_id = static_cast<int>(decision.format);
      event.from_format_name = std::string(DictFormatName(decision.format));
      event.to_format_id = -1;
      event.to_format_name = "(aborted)";
      event.reason = "injected sched.rebuild.fail failure";
      obs::Decisions().RecordFallback(decision.log_sequence,
                                      std::move(event));
    }
    if (obs::Enabled()) {
      static obs::Counter* failed = obs::Metrics().GetCounter(
          "sched.recompress.failed", "rebuilds",
          "pressure-triggered rebuilds that failed (injected or exhausted)");
      failed->Increment();
    }
    FinishRebuild(index, RebuildOutcome::kFailed, 0, false);
    return;
  }

  StatusOr<GuardedBuildResult> built = BuildDictionaryGuarded(decision, values);
  if (!built.ok()) {
    // Even the array fallback failed. The old version stays published and
    // readable; the decision log carries the full degradation chain.
    if (obs::Enabled()) {
      static obs::Counter* failed = obs::Metrics().GetCounter(
          "sched.recompress.failed", "rebuilds",
          "pressure-triggered rebuilds that failed (injected or exhausted)");
      failed->Increment();
    }
    FinishRebuild(index, RebuildOutcome::kFailed, 0, false);
    return;
  }
  // Dictionary-only rebuild: all formats are order-preserving, so the
  // packed column vector is reused bit-identically.
  const uint64_t bytes_after = built->dict->MemoryBytes();
  StringColumn next = StringColumn::FromParts(std::move(built->dict),
                                              ColumnVector(snapshot->vector()));
  // Guarded by the pin's own epoch: if a merge published after the pin, this
  // commit fails instead of overwriting it with a superseded column.
  if (!column.Publish(std::move(next), snapshot->epoch())) {
    if (obs::Enabled()) {
      static obs::Counter* lost = obs::Metrics().GetCounter(
          "sched.recompress.lost_race", "rebuilds",
          "pressure rebuilds discarded because another writer published "
          "a newer version first");
      lost->Increment();
    }
    FinishRebuild(index, RebuildOutcome::kLostRace, 0, false);
    return;
  }

  const uint64_t reclaimed =
      bytes_after < bytes_before ? bytes_before - bytes_after : 0;
  const bool progress =
      static_cast<double>(reclaimed) >=
      options_.min_reclaim_fraction * static_cast<double>(bytes_before);
  if (obs::Enabled()) {
    static obs::Counter* rebuilds = obs::Metrics().GetCounter(
        "sched.recompress.rebuilds", "rebuilds",
        "pressure-triggered rebuilds committed via conditional publish");
    static obs::Counter* reclaimed_counter = obs::Metrics().GetCounter(
        "sched.recompress.reclaimed_bytes", "bytes",
        "dictionary bytes freed by pressure-triggered rebuilds");
    static obs::Histogram* latency = obs::Metrics().GetHistogram(
        "sched.recompress.us", {}, "us",
        "wall time of one pressure-triggered rebuild");
    rebuilds->Increment();
    reclaimed_counter->Increment(reclaimed);
    latency->Observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  FinishRebuild(index, RebuildOutcome::kPublished, reclaimed, progress);
}

void RecompressionScheduler::FinishRebuild(size_t index,
                                           RebuildOutcome outcome,
                                           uint64_t reclaimed_bytes,
                                           bool progress) {
  bool entered_backoff = false;
  {
    MutexLock lock(&mutex_);
    columns_[index].in_flight = false;
    switch (outcome) {
      case RebuildOutcome::kPublished:
        ++stats_.rebuilds;
        stats_.reclaimed_bytes += reclaimed_bytes;
        break;
      case RebuildOutcome::kNoop:
        ++stats_.noop_decisions;
        break;
      case RebuildOutcome::kFailed:
        ++stats_.failed_rebuilds;
        break;
      case RebuildOutcome::kLostRace:
        ++stats_.lost_races;
        break;
      case RebuildOutcome::kAborted:
        break;
    }
    if (outcome != RebuildOutcome::kAborted) {
      // The attempt reached a decision: start the cooldown clock even for
      // failures, so a persistently failing column cannot be retried every
      // tick.
      columns_[index].last_rebuild_tick = tick_;
      if (progress) {
        consecutive_stalls_ = 0;
      } else if (++consecutive_stalls_ >= options_.backoff_after_stalls) {
        backoff_until_tick_ =
            tick_ + static_cast<int64_t>(options_.backoff_ticks);
        consecutive_stalls_ = 0;
        ++stats_.backoffs;
        entered_backoff = true;
      }
    }
  }
  // Metric emission after release: the state lock (core stratum) is below
  // the metrics registry (obs) in the lock hierarchy.
  if (entered_backoff && obs::Enabled()) {
    static obs::Counter* backoffs = obs::Metrics().GetCounter(
        "sched.recompress.backoff", "periods",
        "backoff periods entered after rebuilds stopped reclaiming");
    backoffs->Increment();
  }
  // Notify under the lock: a drainer that sees zero may destroy the
  // scheduler, and this condition variable with it, once it can lock.
  MutexLock drain_lock(&drain_mutex_);
  if (--pending_rebuilds_ == 0) drain_mutex_.NotifyAll();
}

}  // namespace adict
