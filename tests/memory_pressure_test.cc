// Memory-pressure feedback tests: providers and parsers, the background
// sampler, the hardened controller input path, and the recompression
// scheduler — including the chaos cases (`mem.sample.fail`,
// `sched.rebuild.fail`) and the rebuild-vs-scan race this file pins down
// for TSan (the tsan CI job builds with -fsanitize=thread and runs this
// binary).
//
// Determinism: almost every scheduler test runs the scheduler in
// synchronous mode and drives it by calling OnSample directly with
// hand-built samples — no sampler thread, no pool, no timing. The race
// tests are the deliberate exceptions.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/compression_manager.h"
#include "core/controller.h"
#include "core/recompression_scheduler.h"
#include "obs/obs.h"
#include "obs/workload_profiler.h"
#include "store/delta.h"
#include "store/string_column.h"
#include "store/table.h"
#include "util/failpoint.h"
#include "util/memory_pressure.h"

namespace adict {
namespace {

using failpoint::Spec;

class MemoryPressureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisableAll();
    obs::SetEnabled(true);
    obs::ResetForTest();
  }
  void TearDown() override { failpoint::DisableAll(); }
};

// ---------------------------------------------------------------------------
// Parsers (pure, no filesystem).

TEST_F(MemoryPressureTest, ParseCgroupBytesParsesPlainNumber) {
  StatusOr<uint64_t> bytes = ParseCgroupBytes("123456789\n");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, 123456789u);
}

TEST_F(MemoryPressureTest, ParseCgroupBytesRejectsMaxAndGarbage) {
  EXPECT_FALSE(ParseCgroupBytes("max\n").ok());
  EXPECT_FALSE(ParseCgroupBytes("").ok());
  EXPECT_FALSE(ParseCgroupBytes("12a3").ok());
  EXPECT_FALSE(ParseCgroupBytes("99999999999999999999999999").ok());
}

TEST_F(MemoryPressureTest, ParseCgroupSelfPathFindsV2Line) {
  StatusOr<std::string> path = ParseCgroupSelfPath(
      "12:cpuset:/legacy\n0::/user.slice/session.scope\n");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "/user.slice/session.scope");
  EXPECT_FALSE(ParseCgroupSelfPath("12:cpuset:/legacy\n").ok());
}

TEST_F(MemoryPressureTest, ParseStatmRssBytesReadsSecondField) {
  StatusOr<uint64_t> rss = ParseStatmRssBytes("12345 678 90 1 0 2 0\n", 4096);
  ASSERT_TRUE(rss.ok());
  EXPECT_EQ(*rss, 678u * 4096u);
  EXPECT_FALSE(ParseStatmRssBytes("12345", 4096).ok());
}

TEST_F(MemoryPressureTest, ParseMemInfoTotalBytesFindsMemTotal) {
  StatusOr<uint64_t> total = ParseMemInfoTotalBytes(
      "MemTotal:       16319840 kB\nMemFree:         1234 kB\n");
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, uint64_t{16319840} * 1024);
  EXPECT_FALSE(ParseMemInfoTotalBytes("MemFree: 1 kB\n").ok());
}

// ---------------------------------------------------------------------------
// Providers and sampler.

TEST_F(MemoryPressureTest, SimulatedProviderReportsWhatWasSet) {
  SimulatedProvider provider(40, 100);
  StatusOr<MemorySample> sample = provider.Sample();
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->used_bytes, 40u);
  EXPECT_EQ(sample->total_bytes, 100u);
  EXPECT_DOUBLE_EQ(sample->used_fraction(), 0.4);
  EXPECT_EQ(sample->free_bytes(), 60u);

  provider.set_used_bytes(150);  // over budget: free saturates at 0
  sample = provider.Sample();
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->free_bytes(), 0u);

  provider.set_total_bytes(0);
  EXPECT_FALSE(provider.Sample().ok());
}

TEST_F(MemoryPressureTest, DetectMemoryProviderNeverReturnsNull) {
  std::unique_ptr<MemoryProvider> provider = DetectMemoryProvider();
  ASSERT_NE(provider, nullptr);
  // On any Linux at least the /proc provider produces a usable sample.
  StatusOr<MemorySample> sample = provider->Sample();
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  EXPECT_GT(sample->total_bytes, 0u);
}

TEST_F(MemoryPressureTest, SampleNowDrivesDeterministicTicks) {
  std::vector<MemorySample> seen;
  MemorySampler sampler(
      std::make_unique<SimulatedProvider>(10, 100),
      [&](const StatusOr<MemorySample>& sample) {
        ASSERT_TRUE(sample.ok());
        seen.push_back(*sample);
      });
  sampler.SampleNow();
  sampler.SampleNow();
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(sampler.num_samples(), 2u);
  EXPECT_EQ(sampler.num_errors(), 0u);
  EXPECT_EQ(sampler.provider_name(), "simulated");
}

TEST_F(MemoryPressureTest, SamplerThreadDeliversSamplesAndStops) {
  std::atomic<uint64_t> delivered{0};
  MemorySampler::Options options;
  options.period_millis = 10;
  MemorySampler sampler(
      std::make_unique<SimulatedProvider>(10, 100),
      [&](const StatusOr<MemorySample>&) {
        delivered.fetch_add(1, std::memory_order_relaxed);
      },
      options);
  sampler.Start();
  EXPECT_TRUE(sampler.running());
  // Start() samples once synchronously, so at least one delivery already
  // happened regardless of scheduling.
  EXPECT_GE(delivered.load(), 1u);
  sampler.Stop();
  sampler.Stop();  // idempotent
  EXPECT_FALSE(sampler.running());
  const uint64_t after_stop = delivered.load();
  EXPECT_EQ(delivered.load(), after_stop);  // no late ticks
}

TEST_F(MemoryPressureTest, SamplerRidesThroughInjectedFailures) {
  failpoint::Enable("mem.sample.fail", Spec::First(2));
  uint64_t errors = 0, good = 0;
  MemorySampler sampler(std::make_unique<SimulatedProvider>(10, 100),
                        [&](const StatusOr<MemorySample>& sample) {
                          (sample.ok() ? good : errors)++;
                        });
  sampler.SampleNow();
  sampler.SampleNow();
  sampler.SampleNow();
  EXPECT_EQ(errors, 2u);
  EXPECT_EQ(good, 1u);
  EXPECT_EQ(sampler.num_errors(), 2u);
  EXPECT_EQ(sampler.num_samples(), 3u);
}

// ---------------------------------------------------------------------------
// Controller input hardening.

TEST_F(MemoryPressureTest, ObserveRejectsMalformedMeasurements) {
  TradeoffController controller;
  const double c_before = controller.c();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(controller.Observe(nan, 100.0), c_before);
  EXPECT_DOUBLE_EQ(controller.Observe(10.0, nan), c_before);
  EXPECT_DOUBLE_EQ(controller.Observe(10.0, 0.0), c_before);
  EXPECT_DOUBLE_EQ(controller.Observe(10.0, -5.0), c_before);
  EXPECT_DOUBLE_EQ(controller.Observe(-1.0, 100.0), c_before);
  EXPECT_DOUBLE_EQ(controller.Observe(200.0, 100.0), c_before);
  EXPECT_DOUBLE_EQ(controller.Observe(inf, inf), c_before);
  // The EMA was never primed: the first *good* observation primes it now.
  EXPECT_LT(controller.smoothed_free_fraction(), 0);
  controller.Observe(50.0, 100.0);
  EXPECT_DOUBLE_EQ(controller.smoothed_free_fraction(), 0.5);

  const double rejected =
      obs::Metrics().GetCounter("controller.observe.rejected")->value();
  EXPECT_EQ(rejected, 7);
}

// ---------------------------------------------------------------------------
// Scheduler fixtures.

std::vector<std::string> MakeStrings(int distinct, int rows,
                                     const std::string& prefix) {
  std::vector<std::string> values;
  values.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    values.push_back(prefix + "_common_stem_" + std::to_string(i % distinct));
  }
  return values;
}

/// A table with two string columns in a deliberately fat format (kArray,
/// raw strings) so a pressure rebuild has bytes to reclaim.
Table MakeFatTable() {
  Table table("pressure");
  table.AddStringColumn(
      "alpha", StringColumn::FromValues(MakeStrings(512, 4096, "alpha"),
                                        DictFormat::kArray));
  table.AddStringColumn(
      "beta", StringColumn::FromValues(MakeStrings(256, 4096, "beta"),
                                       DictFormat::kArray));
  return table;
}

MemorySample Sample(uint64_t used, uint64_t total = 100) {
  MemorySample sample;
  sample.used_bytes = used;
  sample.total_bytes = total;
  return sample;
}

RecompressionScheduler::Options FastOptions() {
  RecompressionScheduler::Options options;
  options.synchronous = true;
  options.smoothing = 1.0;  // level == raw sample, no EMA lag in tests
  options.cooldown_ticks = 2;
  options.advisory_period_ticks = 1;
  options.backoff_after_stalls = 2;
  options.backoff_ticks = 3;
  return options;
}

// ---------------------------------------------------------------------------
// Pressure classification.

TEST_F(MemoryPressureTest, LevelsEscalateWithPressure) {
  Table table = MakeFatTable();
  CompressionManager manager;
  RecompressionScheduler scheduler(&table, &manager, FastOptions());

  scheduler.OnSample(Sample(10));
  EXPECT_EQ(scheduler.level(), PressureLevel::kNone);
  scheduler.OnSample(Sample(75));
  EXPECT_EQ(scheduler.level(), PressureLevel::kAdvisory);
  scheduler.OnSample(Sample(90));
  EXPECT_EQ(scheduler.level(), PressureLevel::kUrgent);
  scheduler.OnSample(Sample(97));
  EXPECT_EQ(scheduler.level(), PressureLevel::kCritical);
  scheduler.Stop();
}

TEST_F(MemoryPressureTest, HysteresisPreventsOscillation) {
  Table table = MakeFatTable();
  CompressionManager manager;
  RecompressionScheduler scheduler(&table, &manager, FastOptions());

  scheduler.OnSample(Sample(86));  // above urgent (0.85)
  EXPECT_EQ(scheduler.level(), PressureLevel::kUrgent);
  // Dips into the hysteresis band (0.82..0.85) hold the level.
  scheduler.OnSample(Sample(84));
  EXPECT_EQ(scheduler.level(), PressureLevel::kUrgent);
  scheduler.OnSample(Sample(83));
  EXPECT_EQ(scheduler.level(), PressureLevel::kUrgent);
  // Clearing the band by the margin drops it.
  scheduler.OnSample(Sample(81));
  EXPECT_EQ(scheduler.level(), PressureLevel::kAdvisory);
  scheduler.OnSample(Sample(10));
  EXPECT_EQ(scheduler.level(), PressureLevel::kNone);
  scheduler.Stop();
}

// ---------------------------------------------------------------------------
// Rebuild behavior.

TEST_F(MemoryPressureTest, CriticalPressureShrinksDictionaries) {
  Table table = MakeFatTable();
  const size_t bytes_before = table.string_column(0).Snapshot()->DictionaryBytes() +
                              table.string_column(1).Snapshot()->DictionaryBytes();
  CompressionManager manager;
  RecompressionScheduler scheduler(&table, &manager, FastOptions());

  // Critical pressure, enough ticks to cycle through both columns.
  for (int i = 0; i < 6; ++i) scheduler.OnSample(Sample(98));

  const RecompressionScheduler::Stats stats = scheduler.stats();
  EXPECT_GE(stats.rebuilds, 2u);
  EXPECT_GT(stats.reclaimed_bytes, 0u);
  const size_t bytes_after = table.string_column(0).Snapshot()->DictionaryBytes() +
                             table.string_column(1).Snapshot()->DictionaryBytes();
  EXPECT_LT(bytes_after, bytes_before);
  // Critical rebuilds force a format change away from the fat array.
  EXPECT_NE(table.string_column(0).Snapshot()->format(), DictFormat::kArray);
  // Every pressure rebuild is decision-logged.
  EXPECT_GE(obs::Decisions().total_pushed(), stats.rebuilds);
  scheduler.Stop();
}

TEST_F(MemoryPressureTest, RebuildPreservesColumnContents) {
  Table table = MakeFatTable();
  const std::vector<std::string> before = [&] {
    std::vector<std::string> rows;
    const std::shared_ptr<const StringColumn> snapshot =
        table.SnapshotStrings("alpha");
    for (uint64_t row = 0; row < snapshot->num_rows(); ++row) {
      rows.push_back(snapshot->GetValue(row));
    }
    return rows;
  }();

  CompressionManager manager;
  RecompressionScheduler scheduler(&table, &manager, FastOptions());
  for (int i = 0; i < 4; ++i) scheduler.OnSample(Sample(98));
  ASSERT_GE(scheduler.stats().rebuilds, 1u);

  const std::shared_ptr<const StringColumn> snapshot =
      table.SnapshotStrings("alpha");
  ASSERT_EQ(snapshot->num_rows(), before.size());
  for (uint64_t row = 0; row < before.size(); ++row) {
    ASSERT_EQ(snapshot->GetValue(row), before[row]) << "row " << row;
  }
  scheduler.Stop();
}

// The one decision record logged under `column_id`.
obs::DecisionRecord OnlyRecordFor(const std::string& column_id) {
  std::vector<obs::DecisionRecord> found;
  for (obs::DecisionRecord& record : obs::Decisions().Snapshot()) {
    if (record.column_id == column_id) found.push_back(std::move(record));
  }
  EXPECT_EQ(found.size(), 1u) << column_id;
  return found.empty() ? obs::DecisionRecord{} : std::move(found.front());
}

// A committed rebuild's record: the chosen format is the published one, the
// prediction is the chosen candidate's size without the column vector, and
// the outcome is the published dictionary's size.
void ExpectCompleteRecord(const obs::DecisionRecord& record,
                          const StringColumn& published) {
  EXPECT_EQ(record.chosen_format_id, static_cast<int>(published.format()));
  EXPECT_TRUE(record.fallbacks.empty());
  const obs::DecisionCandidate* chosen = nullptr;
  for (const obs::DecisionCandidate& candidate : record.candidates) {
    if (candidate.format_id == record.chosen_format_id) chosen = &candidate;
  }
  ASSERT_NE(chosen, nullptr);
  EXPECT_DOUBLE_EQ(record.predicted_dict_bytes,
                   chosen->predicted_size_bytes -
                       static_cast<double>(record.column_vector_bytes));
  ASSERT_TRUE(record.has_actual());
  EXPECT_DOUBLE_EQ(record.actual_dict_bytes,
                   static_cast<double>(published.DictionaryBytes()));
}

TEST_F(MemoryPressureTest, EveryRebuildLeavesOneCompleteDecisionRecord) {
  CompressionManager manager;
  const StringColumn main = StringColumn::FromValues(
      MakeStrings(300, 2000, "merged"), DictFormat::kArray);
  DeltaColumn delta;
  for (int i = 0; i < 100; ++i) delta.Append("delta_" + std::to_string(i));
  const StringColumn merged =
      MergeDeltaAdaptive(main, delta, manager, 60.0, "merged");
  ExpectCompleteRecord(OnlyRecordFor("merged"), merged);

  // Urgent pressure rebuilds at the c-driven pick, critical pressure at the
  // smallest predicted candidate; each on a fresh fat table.
  for (const PressureLevel level :
       {PressureLevel::kUrgent, PressureLevel::kCritical}) {
    obs::Decisions().Clear();
    Table table = MakeFatTable();
    RecompressionScheduler scheduler(&table, &manager, FastOptions());
    scheduler.OnSample(Sample(level == PressureLevel::kCritical ? 98 : 90));
    ASSERT_EQ(scheduler.level(), level);
    ASSERT_GE(scheduler.stats().rebuilds, 1u);
    uint64_t committed = 0;
    for (size_t i = 0; i < table.num_string_columns(); ++i) {
      const std::shared_ptr<const StringColumn> published =
          table.string_column(i).Snapshot();
      if (published->epoch() == 0) continue;  // not rebuilt
      ++committed;
      const obs::DecisionRecord record =
          OnlyRecordFor(table.string_column_name(i));
      ExpectCompleteRecord(record, *published);
      if (level != PressureLevel::kCritical) continue;
      std::vector<Candidate> candidates;
      for (const obs::DecisionCandidate& candidate : record.candidates) {
        candidates.push_back({static_cast<DictFormat>(candidate.format_id),
                              candidate.predicted_size_bytes,
                              candidate.rel_time});
      }
      EXPECT_EQ(record.chosen_format_id,
                static_cast<int>(SelectFormatDetailed(candidates, record.c,
                                                      manager.options().strategy)
                                     .smallest));
    }
    EXPECT_EQ(committed, scheduler.stats().rebuilds);
    scheduler.Stop();
  }
}

TEST_F(MemoryPressureTest, CooldownStopsBackToBackRebuilds) {
  Table table("single");
  table.AddStringColumn(
      "only", StringColumn::FromValues(MakeStrings(512, 2048, "only"),
                                       DictFormat::kArray));
  CompressionManager manager;
  RecompressionScheduler::Options options = FastOptions();
  options.cooldown_ticks = 100;  // effectively one rebuild ever
  RecompressionScheduler scheduler(&table, &manager, options);

  for (int i = 0; i < 5; ++i) scheduler.OnSample(Sample(90));
  const RecompressionScheduler::Stats stats = scheduler.stats();
  EXPECT_LE(stats.rebuilds + stats.noop_decisions, 1u);
  EXPECT_GE(stats.skipped_cooldown, 1u);
  scheduler.Stop();
}

TEST_F(MemoryPressureTest, EvictsColdestColumnByDecayedHeat) {
  // Two same-shaped columns (equal-length prefixes -> near-identical
  // dictionary bytes), so the ranking is decided by traffic alone.
  Table table("evict");
  table.AddStringColumn(
      "was_hot", StringColumn::FromValues(MakeStrings(512, 4096, "aaaa"),
                                          DictFormat::kArray));
  table.AddStringColumn(
      "is_hot", StringColumn::FromValues(MakeStrings(512, 4096, "bbbb"),
                                         DictFormat::kArray));

  // was_hot saw an order of magnitude more lifetime traffic than is_hot —
  // but long ago. Under the paper's raw lifetime counters it would rank as
  // the hotter column and survive; the decayed heat says otherwise.
  const TableSnapshot snapshot = table.Snapshot();
  for (int i = 0; i < 5000; ++i) {
    (void)snapshot.strings("was_hot").GetValue(i % 512);
  }
  for (int i = 0; i < 400; ++i) {
    (void)snapshot.strings("is_hot").GetValue(i % 512);
  }
  obs::ColumnHeat* was_hot = snapshot.strings("was_hot").heat();
  ASSERT_NE(was_hot, nullptr);
  was_hot->DecayForTest(600.0);  // 20 half-lives: heat 5000 -> ~0.005
  EXPECT_LT(was_hot->DecayedHeat(), 1.0);
  EXPECT_GT(snapshot.strings("is_hot").heat()->DecayedHeat(), 100.0);

  CompressionManager manager;
  RecompressionScheduler::Options options = FastOptions();
  options.cooldown_ticks = 100;  // one eviction decision, no second pick
  RecompressionScheduler scheduler(&table, &manager, options);

  // One advisory tick: budget for exactly one rebuild.
  scheduler.OnSample(Sample(75));
  scheduler.Stop();

  // The stale column was rebuilt out of the fat array; the currently hot
  // one was left alone.
  EXPECT_NE(table.string_column(0).Snapshot()->format(), DictFormat::kArray);
  EXPECT_EQ(table.string_column(1).Snapshot()->format(), DictFormat::kArray);

  // The decision is visible: the profiler holds the ranking that drove it,
  // coldest first, with the decayed heat it divided by.
  const std::vector<obs::SchedulerRankEntry> ranking =
      obs::Profiler().LatestSchedulerRanking();
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].column, "was_hot");
  EXPECT_EQ(ranking[1].column, "is_hot");
  EXPECT_LT(ranking[0].decayed_heat, 1.0);
  EXPECT_GT(ranking[1].decayed_heat, 100.0);
  EXPECT_GT(ranking[0].score, ranking[1].score);

  // Reads with observability off still heat the column. The hot column
  // sits at index 0, which wins a tie, so a ranking blind to this traffic
  // would rebuild it instead of the cold one.
  Table quiet("evict_quiet");
  quiet.AddStringColumn(
      "hot", StringColumn::FromValues(MakeStrings(512, 4096, "cccc"),
                                      DictFormat::kArray));
  quiet.AddStringColumn(
      "cold", StringColumn::FromValues(MakeStrings(512, 4096, "dddd"),
                                       DictFormat::kArray));
  obs::SetEnabled(false);
  for (int i = 0; i < 5000; ++i) {
    (void)quiet.SnapshotStrings("hot")->GetValue(i % 512);
  }
  RecompressionScheduler quiet_scheduler(&quiet, &manager, options);
  quiet_scheduler.OnSample(Sample(75));
  quiet_scheduler.Stop();
  obs::SetEnabled(true);
  EXPECT_EQ(quiet.string_column(0).Snapshot()->format(), DictFormat::kArray);
  EXPECT_NE(quiet.string_column(1).Snapshot()->format(), DictFormat::kArray);
}

TEST_F(MemoryPressureTest, RebuiltColumnKeepsItsHeatSlot) {
  Table table("keepheat");
  table.AddStringColumn(
      "col", StringColumn::FromValues(MakeStrings(512, 2048, "keep"),
                                      DictFormat::kArray));
  obs::ColumnHeat* slot = table.SnapshotStrings("col")->heat();
  ASSERT_NE(slot, nullptr);

  CompressionManager manager;
  RecompressionScheduler scheduler(&table, &manager, FastOptions());
  scheduler.OnSample(Sample(98));
  scheduler.Stop();
  ASSERT_GE(scheduler.stats().rebuilds, 1u);

  // The published rebuild inherited the same slot, so heat keeps
  // accumulating across format changes.
  EXPECT_EQ(table.string_column(0).Snapshot()->heat(), slot);
  const uint64_t before = slot->Totals(obs::ColumnOp::kExtract).count;
  (void)table.SnapshotStrings("col")->GetValue(0);
  EXPECT_EQ(slot->Totals(obs::ColumnOp::kExtract).count, before + 1);
}

TEST_F(MemoryPressureTest, StallingRebuildsTriggerBackoff) {
  Table table("minimal");
  // Already-minimal column: tiny dictionary, heavy usage — decisions keep
  // the format (noop) or reclaim nothing, which must back the scheduler
  // off instead of re-deciding every tick.
  table.AddStringColumn("tiny",
                        StringColumn::FromValues(MakeStrings(4, 64, "t")));
  CompressionManager manager;
  RecompressionScheduler::Options options = FastOptions();
  options.cooldown_ticks = 0;
  RecompressionScheduler scheduler(&table, &manager, options);

  for (int i = 0; i < 12; ++i) scheduler.OnSample(Sample(90));
  const RecompressionScheduler::Stats stats = scheduler.stats();
  EXPECT_GE(stats.backoffs, 1u);
  // Backoff means far fewer attempts than ticks.
  EXPECT_LT(stats.rebuilds + stats.noop_decisions + stats.failed_rebuilds,
            stats.ticks);
  scheduler.Stop();
}

TEST_F(MemoryPressureTest, SampleErrorsHoldLastLevelAndSkipEma) {
  Table table = MakeFatTable();
  CompressionManager manager;
  RecompressionScheduler scheduler(&table, &manager, FastOptions());

  scheduler.OnSample(Sample(90));
  EXPECT_EQ(scheduler.level(), PressureLevel::kUrgent);
  const double smoothed_before = scheduler.stats().smoothed_used_fraction;
  scheduler.OnSample(Status::IoError("injected"));
  scheduler.OnSample(Status::IoError("injected"));
  const RecompressionScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.sample_errors, 2u);
  EXPECT_EQ(stats.level, PressureLevel::kUrgent);
  EXPECT_DOUBLE_EQ(stats.smoothed_used_fraction, smoothed_before);
  scheduler.Stop();
}

TEST_F(MemoryPressureTest, InjectedSamplerFailuresLeaveColumnsReadable) {
  Table table = MakeFatTable();
  CompressionManager manager;
  RecompressionScheduler scheduler(&table, &manager, FastOptions());
  failpoint::Enable("mem.sample.fail", Spec::Always());

  MemorySampler sampler(
      std::make_unique<SimulatedProvider>(98, 100),
      [&](const StatusOr<MemorySample>& sample) { scheduler.OnSample(sample); });
  for (int i = 0; i < 3; ++i) sampler.SampleNow();

  EXPECT_EQ(scheduler.stats().sample_errors, 3u);
  EXPECT_EQ(scheduler.stats().rebuilds, 0u);
  // Columns never went anywhere.
  EXPECT_EQ(table.SnapshotStrings("alpha")->num_rows(), 4096u);
  scheduler.Stop();
}

TEST_F(MemoryPressureTest, InjectedRebuildFailuresAreLoggedAndSurvivable) {
  Table table = MakeFatTable();
  CompressionManager manager;
  RecompressionScheduler scheduler(&table, &manager, FastOptions());
  failpoint::Enable("sched.rebuild.fail", Spec::Always());

  for (int i = 0; i < 4; ++i) scheduler.OnSample(Sample(98));

  const RecompressionScheduler::Stats stats = scheduler.stats();
  EXPECT_GE(stats.failed_rebuilds, 1u);
  EXPECT_EQ(stats.rebuilds, 0u);
  EXPECT_GE(failpoint::HitCount("sched.rebuild.fail"), 1u);
  // The failure is attributable in the decision log: the aborted record
  // carries a fallback entry naming the injected failure.
  bool found = false;
  for (const obs::DecisionRecord& record : obs::Decisions().Snapshot()) {
    for (const obs::FallbackEvent& event : record.fallbacks) {
      if (event.reason.find("sched.rebuild.fail") != std::string::npos) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
  // Every column still serves reads, in its original format.
  EXPECT_EQ(table.SnapshotStrings("alpha")->format(), DictFormat::kArray);
  EXPECT_FALSE(table.SnapshotStrings("alpha")->GetValue(0).empty());
  scheduler.Stop();
}

TEST_F(MemoryPressureTest, GuardedBuildFailureDegradesInsteadOfAborting) {
  Table table = MakeFatTable();
  CompressionManager manager;
  RecompressionScheduler scheduler(&table, &manager, FastOptions());
  // Critical pressure forces the smallest (compressed) candidate; failing
  // every compressed build makes the guard walk its chain down to a raw
  // format instead of erroring out.
  failpoint::Enable("repair.build", Spec::Always());
  failpoint::Enable("fc.build", Spec::Always());

  for (int i = 0; i < 4; ++i) scheduler.OnSample(Sample(98));

  const RecompressionScheduler::Stats stats = scheduler.stats();
  EXPECT_GE(stats.rebuilds, 1u);  // degraded, but committed
  EXPECT_FALSE(table.SnapshotStrings("alpha")->GetValue(0).empty());
  scheduler.Stop();
}

TEST_F(MemoryPressureTest, StopTokenHaltsRebuildsAndSampler) {
  Table table = MakeFatTable();
  CompressionManager manager;
  auto provider = std::make_unique<SimulatedProvider>(98, 100);
  RecompressionScheduler scheduler(&table, &manager, FastOptions());
  scheduler.AttachSampler(std::move(provider), 10);

  scheduler.Stop();
  EXPECT_TRUE(scheduler.stopped());
  const RecompressionScheduler::Stats stats = scheduler.stats();
  scheduler.OnSample(Sample(98));  // ignored after stop
  EXPECT_EQ(scheduler.stats().ticks, stats.ticks);
  scheduler.Stop();  // idempotent
}

TEST_F(MemoryPressureTest, PauseSkipsRebuildsButTracksLevel) {
  Table table = MakeFatTable();
  CompressionManager manager;
  RecompressionScheduler scheduler(&table, &manager, FastOptions());
  scheduler.Pause();
  for (int i = 0; i < 4; ++i) scheduler.OnSample(Sample(98));
  EXPECT_EQ(scheduler.level(), PressureLevel::kCritical);
  EXPECT_EQ(scheduler.stats().rebuilds, 0u);
  scheduler.Resume();
  for (int i = 0; i < 4; ++i) scheduler.OnSample(Sample(98));
  EXPECT_GE(scheduler.stats().rebuilds, 1u);
  scheduler.Stop();
}

// ---------------------------------------------------------------------------
// The optimistic-publish primitive.

TEST_F(MemoryPressureTest, PublishIfEpochRefusesStaleWriters) {
  VersionedStringColumn column(
      StringColumn::FromValues(MakeStrings(16, 128, "v")),
      *obs::Profiler().GetColumn("pressure_test.stale_writers"));
  const uint64_t epoch = column.epoch();
  // A competing writer (delta merge) publishes first.
  column.Publish(StringColumn::FromValues(MakeStrings(16, 128, "w")),
                 VersionedStringColumn::kAnyEpoch);
  // The stale writer must lose: its input predates the merge.
  EXPECT_FALSE(column.Publish(
      StringColumn::FromValues(MakeStrings(16, 128, "v")), epoch));
  EXPECT_EQ(column.Snapshot()->GetValue(0).rfind("w", 0), 0u);
  // With the current epoch it wins.
  EXPECT_TRUE(column.Publish(
      StringColumn::FromValues(MakeStrings(16, 128, "x")), column.epoch()));
  EXPECT_EQ(column.Snapshot()->GetValue(0).rfind("x", 0), 0u);
}

// ---------------------------------------------------------------------------
// Races, for TSan: rebuilds vs concurrent snapshot scans, and a threaded
// sampler feeding a pool-backed scheduler.

TEST_F(MemoryPressureTest, RebuildsRaceSnapshotScans) {
  Table table = MakeFatTable();
  CompressionManager manager;
  RecompressionScheduler scheduler(&table, &manager, FastOptions());

  // Reference row values, computed before any rebuild.
  std::vector<std::string> expected;
  {
    const std::shared_ptr<const StringColumn> snapshot =
        table.SnapshotStrings("alpha");
    for (uint64_t row = 0; row < snapshot->num_rows(); ++row) {
      expected.push_back(snapshot->GetValue(row));
    }
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> scanners;
  for (int t = 0; t < 4; ++t) {
    scanners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<const StringColumn> snapshot =
            table.SnapshotStrings("alpha");
        for (uint64_t row = 0; row < snapshot->num_rows(); row += 97) {
          ASSERT_EQ(snapshot->GetValue(row), expected[row]);
        }
      }
    });
  }

  // Pressure swings drive repeated rebuilds while the scanners run.
  for (int i = 0; i < 20; ++i) {
    scheduler.OnSample(Sample(i % 2 ? 98 : 90));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : scanners) thread.join();

  EXPECT_GE(scheduler.stats().rebuilds, 1u);
  scheduler.Stop();
}

TEST_F(MemoryPressureTest, ThreadedSamplerAsyncRebuildsAreSafe) {
  Table table = MakeFatTable();
  CompressionManager manager;
  RecompressionScheduler::Options options;  // async: rebuilds on the pool
  options.smoothing = 1.0;
  options.cooldown_ticks = 0;
  RecompressionScheduler scheduler(&table, &manager, options);
  auto provider = std::make_unique<SimulatedProvider>(98, 100);
  SimulatedProvider* raw_provider = provider.get();
  scheduler.AttachSampler(std::move(provider), 5);

  std::atomic<bool> stop{false};
  std::thread scanner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::shared_ptr<const StringColumn> snapshot =
          table.SnapshotStrings("beta");
      ASSERT_FALSE(snapshot->GetValue(0).empty());
    }
  });

  // Let the sampler thread drive a few periods, wobbling the budget.
  for (int i = 0; i < 10; ++i) {
    raw_provider->set_used_bytes(i % 2 ? 98 : 60);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  scheduler.Stop();
  stop.store(true, std::memory_order_relaxed);
  scanner.join();
  EXPECT_GE(scheduler.stats().ticks, 1u);
}

}  // namespace
}  // namespace adict
