// Unit tests for the observability layer: metrics registry semantics,
// decision-log ring behaviour, exporters, and end-to-end prediction-error
// accounting through the compression manager.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/compression_manager.h"
#include "core/size_model.h"
#include "datasets/generators.h"
#include "obs/decision_log.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "store/delta.h"
#include "store/string_column.h"

namespace adict {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistry, CounterSemantics) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("test.counter", "calls");
  EXPECT_EQ(counter->value(), 0u);
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->value(), 42u);

  // Same name resolves to the same instance.
  EXPECT_EQ(registry.GetCounter("test.counter"), counter);
  EXPECT_EQ(counter->value(), 42u);
}

TEST(MetricsRegistry, GaugeLastWriteWins) {
  obs::MetricsRegistry registry;
  obs::Gauge* gauge = registry.GetGauge("test.gauge");
  gauge->Set(1.5);
  gauge->Set(-2.25);
  EXPECT_DOUBLE_EQ(gauge->value(), -2.25);
}

TEST(MetricsRegistry, HistogramBucketsSumCount) {
  obs::MetricsRegistry registry;
  const std::vector<double> bounds = {10, 100, 1000};
  obs::Histogram* histogram = registry.GetHistogram("test.hist", bounds);
  histogram->Observe(5);     // <= 10
  histogram->Observe(10);    // <= 10 (bounds are inclusive)
  histogram->Observe(50);    // <= 100
  histogram->Observe(5000);  // overflow

  EXPECT_EQ(histogram->count(), 4u);
  EXPECT_DOUBLE_EQ(histogram->sum(), 5065);
  const std::vector<uint64_t> counts = histogram->bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(MetricsRegistry, ConcurrentIncrementsDontLoseUpdates) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("test.concurrent");
  obs::Histogram* histogram = registry.GetHistogram(
      "test.concurrent_hist", std::vector<double>{0.5});

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        histogram->Observe(1.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(counter->value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(histogram->count(), uint64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(histogram->sum(), kThreads * kPerThread);
  EXPECT_EQ(histogram->bucket_counts()[1], uint64_t{kThreads} * kPerThread);
}

TEST(MetricsRegistry, ResetValuesKeepsRegistrations) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("test.reset");
  counter->Increment(7);
  registry.ResetValues();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(registry.GetCounter("test.reset"), counter);
}

TEST(MetricsRegistry, EntriesSortedByName) {
  obs::MetricsRegistry registry;
  registry.GetCounter("b.metric");
  registry.GetGauge("a.metric");
  registry.GetHistogram("c.metric");
  const std::vector<const obs::MetricsRegistry::Entry*> entries =
      registry.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0]->name, "a.metric");
  EXPECT_EQ(entries[1]->name, "b.metric");
  EXPECT_EQ(entries[2]->name, "c.metric");
}

TEST(ScopedTimer, RecordsIntoHistogram) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram = registry.GetHistogram("test.timer");
  { obs::ScopedTimer timer(histogram); }
  { obs::ScopedTimer timer(nullptr); }  // disabled: must be a no-op
  EXPECT_EQ(histogram->count(), 1u);
  EXPECT_GE(histogram->sum(), 0.0);
}

// ---------------------------------------------------------------------------
// DecisionLog

obs::DecisionRecord MakeRecord(const std::string& column,
                               double predicted_bytes) {
  obs::DecisionRecord record;
  record.column_id = column;
  record.chosen_format_name = "array";
  record.predicted_dict_bytes = predicted_bytes;
  return record;
}

TEST(DecisionLog, SequencesAndSnapshotOrder) {
  obs::DecisionLog log(8);
  EXPECT_EQ(log.Push(MakeRecord("a", 100)), 1u);
  EXPECT_EQ(log.Push(MakeRecord("b", 200)), 2u);
  const std::vector<obs::DecisionRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].column_id, "a");
  EXPECT_EQ(records[1].column_id, "b");
  EXPECT_EQ(log.total_pushed(), 2u);
}

TEST(DecisionLog, RingWraparoundEvictsOldest) {
  obs::DecisionLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Push(MakeRecord("col" + std::to_string(i), 100));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_pushed(), 10u);
  EXPECT_EQ(log.evicted(), 6u);

  const std::vector<obs::DecisionRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().column_id, "col6");
  EXPECT_EQ(records.front().sequence, 7u);
  EXPECT_EQ(records.back().column_id, "col9");
  EXPECT_EQ(records.back().sequence, 10u);

  // Evicted sequences can no longer be patched; live ones can.
  EXPECT_FALSE(log.RecordActual(3, 100));
  EXPECT_TRUE(log.RecordActual(8, 100));
}

TEST(DecisionLog, RecordActualComputesError) {
  obs::DecisionLog log(8);
  const uint64_t seq = log.Push(MakeRecord("a", 90));
  EXPECT_TRUE(log.RecordActual(seq, 100));
  EXPECT_FALSE(log.RecordActual(seq, 100));  // only patchable once

  const obs::DecisionRecord record = log.Snapshot().front();
  EXPECT_TRUE(record.has_actual());
  EXPECT_DOUBLE_EQ(record.prediction_error(), 0.1);

  const obs::PredictionAccuracy accuracy = log.accuracy();
  EXPECT_EQ(accuracy.num_predictions, 1u);
  EXPECT_DOUBLE_EQ(accuracy.mean_abs_rel_error(), 0.1);
  EXPECT_DOUBLE_EQ(accuracy.max_abs_rel_error, 0.1);
  EXPECT_EQ(accuracy.within_8pct, 0u);
}

TEST(DecisionLog, AccuracySurvivesEviction) {
  obs::DecisionLog log(2);
  const uint64_t seq = log.Push(MakeRecord("a", 95));
  EXPECT_TRUE(log.RecordActual(seq, 100));  // 5% error, within 8%
  log.Push(MakeRecord("b", 100));
  log.Push(MakeRecord("c", 100));  // evicts "a"

  const obs::PredictionAccuracy accuracy = log.accuracy();
  EXPECT_EQ(accuracy.num_predictions, 1u);
  EXPECT_DOUBLE_EQ(accuracy.mean_abs_rel_error(), 0.05);
  EXPECT_EQ(accuracy.within_8pct, 1u);
}

// ---------------------------------------------------------------------------
// Exporters

TEST(Exporters, MetricsTextContainsRegisteredMetrics) {
  obs::MetricsRegistry registry;
  registry.GetCounter("export.counter", "calls")->Increment(3);
  registry.GetGauge("export.gauge")->Set(1.25);
  registry.GetHistogram("export.hist")->Observe(42);

  const std::string text = obs::MetricsToText(registry);
  EXPECT_NE(text.find("export.counter"), std::string::npos);
  EXPECT_NE(text.find("export.gauge"), std::string::npos);
  EXPECT_NE(text.find("export.hist"), std::string::npos);
}

// Prometheus exposition format 0.0.4 conformance: names restricted to
// [a-zA-Z0-9_:], # HELP / # TYPE headers, cumulative le buckets ending in
// +Inf, and matching _sum / _count series.
TEST(Exporters, PrometheusTextConformance) {
  obs::MetricsRegistry registry;
  registry.GetCounter("merge.total", "calls", "Total merges")->Increment(7);
  registry.GetGauge("controller.c")->Set(0.5);
  const std::vector<double> bounds = {10, 100};
  obs::Histogram* hist =
      registry.GetHistogram("build.latency-us", bounds, "us",
                            "Build latency\nwith a line break \\ slash");
  hist->Observe(5);
  hist->Observe(50);
  hist->Observe(5000);

  const std::string text = obs::ExportPrometheusText(registry);

  // Dots and dashes sanitize to underscores; TYPE precedes the sample.
  EXPECT_NE(text.find("# HELP merge_total Total merges\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE merge_total counter\nmerge_total 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE controller_c gauge\ncontroller_c 0.5\n"),
            std::string::npos);

  // HELP text escapes newline and backslash per the exposition format.
  EXPECT_NE(text.find("Build latency\\nwith a line break \\\\ slash"),
            std::string::npos);

  // Histogram: cumulative buckets, +Inf equals _count, and a _sum series.
  EXPECT_NE(text.find("# TYPE build_latency_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("build_latency_us_bucket{le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("build_latency_us_bucket{le=\"100\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("build_latency_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("build_latency_us_sum 5055\n"), std::string::npos);
  EXPECT_NE(text.find("build_latency_us_count 3\n"), std::string::npos);

  // Structural sweep: every line is a comment or "name[{labels}] value"
  // with a name matching [a-zA-Z_:][a-zA-Z0-9_:]*.
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "missing trailing newline";
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      continue;
    }
    ASSERT_FALSE(line.empty());
    const size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    const size_t brace = name.find('{');
    if (brace != std::string::npos) name = name.substr(0, brace);
    ASSERT_FALSE(name.empty()) << line;
    EXPECT_FALSE(name[0] >= '0' && name[0] <= '9') << line;
    for (char ch : name) {
      const bool valid = (ch >= 'a' && ch <= 'z') ||
                         (ch >= 'A' && ch <= 'Z') ||
                         (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
      EXPECT_TRUE(valid) << "invalid char '" << ch << "' in: " << line;
    }
  }
}

TEST(Exporters, PrometheusNameSanitizationPrefixesDigits) {
  obs::MetricsRegistry registry;
  registry.GetCounter("9lives.count")->Increment();
  const std::string text = obs::ExportPrometheusText(registry);
  EXPECT_NE(text.find("_9lives_count 1\n"), std::string::npos);
  EXPECT_EQ(text.find("9lives"), text.find("_9lives") + 1);
}

TEST(Exporters, DecisionLogTextAndJson) {
  obs::DecisionLog log(8);
  obs::DecisionRecord record = MakeRecord("l_shipmode", 1000);
  record.candidates.push_back({0, "array", 1500, 0.25});
  const uint64_t seq = log.Push(std::move(record));
  EXPECT_TRUE(log.RecordActual(seq, 1100));

  const std::string text = obs::DecisionLogToText(log);
  EXPECT_NE(text.find("l_shipmode"), std::string::npos);
  EXPECT_NE(text.find("prediction accuracy"), std::string::npos);

  const std::string json = obs::DecisionLogToJson(log);
  EXPECT_NE(json.find("\"column\":\"l_shipmode\""), std::string::npos);
  EXPECT_NE(json.find("\"candidates\":[{\"format\":\"array\""),
            std::string::npos);
  EXPECT_NE(json.find("\"accuracy\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end prediction accounting through the compression manager

class ObsEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::ResetForTest(); }
  void TearDown() override { obs::ResetForTest(); }
};

TEST_F(ObsEndToEndTest, BuildAdaptiveDictionaryRecordsPredictionVsActual) {
  const std::vector<std::string> values = GenerateSurveyDataset("url", 8000);
  CompressionManager manager;
  ColumnUsage usage;
  usage.num_extracts = 100000;
  usage.lifetime_seconds = 600;

  const auto dict =
      manager.BuildAdaptiveDictionary(values, usage, "test_column");
  ASSERT_NE(dict, nullptr);

  const std::vector<obs::DecisionRecord> records =
      obs::Decisions().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const obs::DecisionRecord& record = records.front();
  EXPECT_EQ(record.column_id, "test_column");
  EXPECT_EQ(record.chosen_format_id, static_cast<int>(dict->format()));
  EXPECT_EQ(record.chosen_format_name, DictFormatName(dict->format()));
  EXPECT_EQ(record.candidates.size(), size_t{kNumDictFormats});
  EXPECT_EQ(record.num_strings, values.size());

  // The logged prediction is exactly the size model's output for the chosen
  // format on the same sampled properties (sampling is deterministic).
  const DictionaryProperties props =
      SampleProperties(values, manager.options().sampling);
  EXPECT_DOUBLE_EQ(record.predicted_dict_bytes,
                   PredictDictionarySize(dict->format(), props));

  // The actual size is the built dictionary's footprint, and the recorded
  // error is the paper's |real - predicted| / real.
  ASSERT_TRUE(record.has_actual());
  EXPECT_DOUBLE_EQ(record.actual_dict_bytes,
                   static_cast<double>(dict->MemoryBytes()));
  EXPECT_DOUBLE_EQ(
      record.prediction_error(),
      PredictionError(static_cast<double>(dict->MemoryBytes()),
                      record.predicted_dict_bytes));

  EXPECT_EQ(obs::Decisions().accuracy().num_predictions, 1u);
  EXPECT_GE(obs::Metrics().GetCounter("manager.decisions")->value(), 1u);
}

TEST_F(ObsEndToEndTest, MergeDeltaAdaptiveLogsUnderColumnId) {
  StringColumn main = StringColumn::FromValues(
      GenerateSurveyDataset("mat", 3000), DictFormat::kFcInline);
  DeltaColumn delta;
  for (int i = 0; i < 100; ++i) delta.Append("new-" + std::to_string(i));

  CompressionManager manager;
  const StringColumn merged =
      MergeDeltaAdaptive(main, delta, manager, 60.0, "orders.status");

  const std::vector<obs::DecisionRecord> records =
      obs::Decisions().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.front().column_id, "orders.status");
  ASSERT_TRUE(records.front().has_actual());
  EXPECT_DOUBLE_EQ(records.front().actual_dict_bytes,
                   static_cast<double>(merged.DictionaryBytes()));
  EXPECT_EQ(obs::Metrics().GetCounter("store.merge.count")->value(), 1u);
}

TEST_F(ObsEndToEndTest, DisablingObservabilitySilencesInstrumentation) {
  obs::SetEnabled(false);
  const std::vector<std::string> values = GenerateSurveyDataset("src", 2000);
  CompressionManager manager;
  ColumnUsage usage;
  (void)manager.BuildAdaptiveDictionary(values, usage, "silent");
  obs::SetEnabled(true);

  EXPECT_EQ(obs::Decisions().size(), 0u);
  EXPECT_EQ(obs::Metrics().GetCounter("manager.decisions")->value(), 0u);
}

}  // namespace
}  // namespace adict
