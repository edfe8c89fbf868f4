// Concurrency regression tests, meant to run under ThreadSanitizer (the
// tsan CI job builds with -fsanitize=thread and runs this binary).
//
// Two of these are regressions for data races fixed when the tree was
// annotated for -Wthread-safety:
//   - StringColumn's usage counters were plain mutable ints mutated from
//     const accessors; a read-only column shared across scan threads raced.
//     They are relaxed atomics now.
//   - TradeoffController's c_ / smoothed state was written by Observe()
//     while merge paths read c() through a shared const CompressionManager.
//     Both are mutex-guarded now.
// The rest pin down the documented thread-safety contracts of the
// observability layer (metrics, decision log, tracer) and fail points so
// TSan exercises every lock and every release/acquire pair in one binary.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/string_column.h"
#include "store/table.h"
#include "util/failpoint.h"

namespace adict {
namespace {

constexpr int kThreads = 4;
constexpr int kIterations = 500;

std::vector<std::string> MakeValues(int distinct, int rows) {
  std::vector<std::string> values;
  values.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    values.push_back("value_" + std::to_string(i % distinct) + "_payload");
  }
  return values;
}

// Regression: concurrent const accessors of one shared column raced on the
// usage counters before they became atomics. The counts are also asserted:
// relaxed increments must not lose updates.
TEST(ConcurrencyTest, StringColumnSharedReaders) {
  const std::vector<std::string> values = MakeValues(64, 512);
  Table table("shared_readers");
  table.AddStringColumn("col", StringColumn::FromValues(values));
  const TableSnapshot snapshot = table.Snapshot();
  const StringColumn& column = snapshot.strings("col");
  const uint32_t distinct = column.num_distinct();

  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ColumnUsage usage = column.TracedUsage(1.0);
      ASSERT_LE(usage.num_locates, usage.num_extracts + usage.num_locates);
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&column, &values, distinct, t] {
      uint64_t scanned = 0;
      for (int i = 0; i < kIterations; ++i) {
        const uint64_t row = (t * kIterations + i) % column.num_rows();
        EXPECT_EQ(column.GetValue(row), values[row]);
        EXPECT_TRUE(column.Locate(values[row]).found);
        column.ScanDictionary(0, 4, [&scanned](uint32_t, std::string_view sv) {
          scanned += sv.size();
        });
      }
      EXPECT_GT(scanned, 0u);
      (void)distinct;
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true, std::memory_order_relaxed);
  observer.join();

  // GetValue = 1 extract, ScanDictionary(0, 4) = 4 extracts, Locate = 1
  // locate; nothing may be lost.
  const ColumnUsage usage = column.TracedUsage(1.0);
  EXPECT_EQ(usage.num_extracts,
            static_cast<uint64_t>(kThreads) * kIterations * (1 + 4));
  EXPECT_EQ(usage.num_locates, static_cast<uint64_t>(kThreads) * kIterations);
}

// Table::MemoryBytes runs on the server's connection threads (table_stats)
// while the recompression scheduler publishes, so it must pin every
// version it reads: a publish frees the version it replaces.
TEST(ConcurrencyTest, TableMemoryBytesRacesPublish) {
  const std::vector<std::string> values = MakeValues(64, 512);
  Table table("memory_bytes");
  table.AddStringColumn(
      "col", StringColumn::FromValues(values, DictFormat::kFcInline));

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_GT(table.MemoryBytes(), 0u);
    }
  });
  for (int i = 0; i < kIterations; ++i) {
    table.PublishStrings(
        "col", StringColumn::FromValues(values, i % 2 == 0
                                                    ? DictFormat::kArray
                                                    : DictFormat::kFcInline));
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
}

// Regression: Observe() used to write c_ / smoothed_free_fraction_ with no
// synchronization against concurrent c() readers.
TEST(ConcurrencyTest, TradeoffControllerObserveVsReaders) {
  TradeoffController::Options options;
  options.min_c = 1e-3;
  options.max_c = 10.0;
  TradeoffController controller(options);

  std::vector<std::thread> observers;
  for (int t = 0; t < 2; ++t) {
    observers.emplace_back([&controller, t] {
      for (int i = 0; i < kIterations; ++i) {
        // Alternate pressure and head-room so c actually moves both ways.
        const double free_bytes = ((i + t) % 2 == 0) ? 10.0 : 90.0;
        const double c = controller.Observe(free_bytes, 100.0);
        EXPECT_GE(c, 1e-3);
        EXPECT_LE(c, 10.0);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&controller] {
      for (int i = 0; i < kIterations; ++i) {
        const double c = controller.c();
        EXPECT_GE(c, 1e-3);
        EXPECT_LE(c, 10.0);
        const double smoothed = controller.smoothed_free_fraction();
        EXPECT_LE(smoothed, 1.0);
      }
    });
  }
  for (std::thread& thread : observers) thread.join();
  for (std::thread& thread : readers) thread.join();

  EXPECT_GE(controller.c(), 1e-3);
  EXPECT_LE(controller.c(), 10.0);
}

TEST(ConcurrencyTest, MetricsRegistryRegisterRecordSnapshot) {
  obs::MetricsRegistry registry;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, t] {
      // Every thread resolves the same names, racing registration on the
      // first iteration, then increments through the stable pointers.
      const std::string counter_name =
          "test.concurrency.counter." + std::to_string(t % 2);
      for (int i = 0; i < kIterations; ++i) {
        registry.GetCounter(counter_name)->Increment();
        registry.GetGauge("test.concurrency.gauge")->Set(i);
        registry.GetHistogram("test.concurrency.latency")->Observe(i % 100);
      }
    });
  }
  std::thread snapshotter([&registry] {
    for (int i = 0; i < 50; ++i) {
      for (const obs::MetricsRegistry::Entry* entry : registry.Entries()) {
        ASSERT_NE(entry, nullptr);
        if (entry->histogram != nullptr) {
          EXPECT_GE(entry->histogram->Quantile(0.5), 0.0);
        }
      }
    }
  });
  for (std::thread& writer : writers) writer.join();
  snapshotter.join();

  uint64_t total = 0;
  for (const obs::MetricsRegistry::Entry* entry : registry.Entries()) {
    if (entry->counter != nullptr) total += entry->counter->value();
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kIterations);
  const obs::Histogram* histogram =
      registry.GetHistogram("test.concurrency.latency");
  EXPECT_EQ(histogram->count(),
            static_cast<uint64_t>(kThreads) * kIterations);
}

TEST(ConcurrencyTest, DecisionLogPushRecordSnapshot) {
  obs::DecisionLog log(/*capacity=*/64);
  std::atomic<uint64_t> recorded{0};

  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&log, &recorded, t] {
      const std::string column_id = "col-" + std::to_string(t);
      for (int i = 0; i < kIterations; ++i) {
        obs::DecisionRecord record;
        record.column_id = column_id;
        record.predicted_dict_bytes = 1000.0;
        const uint64_t sequence = log.Push(std::move(record));
        log.RecordFallback(sequence, obs::FallbackEvent{});
        // May legitimately fail if the ring evicted the record already.
        if (log.RecordActual(sequence, 1050.0)) {
          recorded.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread snapshotter([&log] {
    for (int i = 0; i < 50; ++i) {
      const std::vector<obs::DecisionRecord> snapshot = log.Snapshot();
      EXPECT_LE(snapshot.size(), log.capacity());
      (void)log.accuracy();
      (void)log.size();
      (void)log.evicted();
    }
  });
  for (std::thread& producer : producers) producer.join();
  snapshotter.join();

  EXPECT_EQ(log.total_pushed(), static_cast<uint64_t>(kThreads) * kIterations);
  const obs::PredictionAccuracy accuracy = log.accuracy();
  EXPECT_EQ(accuracy.num_predictions, recorded.load());
  EXPECT_GT(accuracy.num_predictions, 0u);
  EXPECT_NEAR(accuracy.mean_abs_rel_error(), 50.0 / 1050.0, 1e-9);
}

TEST(ConcurrencyTest, TracerSpansVsSnapshot) {
  obs::SetTraceEnabled(true);
  obs::Trace().Clear();

  std::vector<std::thread> spanners;
  for (int t = 0; t < kThreads; ++t) {
    spanners.emplace_back([] {
      for (int i = 0; i < kIterations; ++i) {
        ADICT_TRACE_SPAN("test.concurrency.outer");
        { ADICT_TRACE_SPAN("test.concurrency.inner"); }
      }
    });
  }
  std::thread snapshotter([] {
    for (int i = 0; i < 50; ++i) {
      const std::vector<obs::TraceEvent> events = obs::Trace().Snapshot();
      for (const obs::TraceEvent& event : events) {
        ASSERT_NE(event.name, nullptr);  // a torn event would be garbage
      }
    }
  });
  for (std::thread& spanner : spanners) spanner.join();
  snapshotter.join();
  obs::SetTraceEnabled(false);

  const std::vector<obs::TraceEvent> events = obs::Trace().Snapshot();
  // Buffers are bounded, so allow drops; everything recorded must be one of
  // our two span names and properly nested (inner at depth outer+1).
  EXPECT_GT(events.size(), 0u);
  for (const obs::TraceEvent& event : events) {
    const std::string_view name = event.name;
    EXPECT_TRUE(name == "test.concurrency.outer" ||
                name == "test.concurrency.inner")
        << name;
    EXPECT_LE(event.depth, 1u);
  }
  obs::Trace().Clear();
}

TEST(ConcurrencyTest, FailpointHitsVsControlPlane) {
  failpoint::DisableAll();
  // first:N with a fixed total hit count: exactly N hits fire, no matter
  // how the threads interleave.
  constexpr uint64_t kFires = 100;
  failpoint::Enable("test.concurrency.fp", failpoint::Spec::First(kFires));

  std::atomic<uint64_t> fired{0};
  std::vector<std::thread> hitters;
  for (int t = 0; t < kThreads; ++t) {
    hitters.emplace_back([&fired] {
      for (int i = 0; i < kIterations; ++i) {
        if (ADICT_FAIL_POINT("test.concurrency.fp")) {
          fired.fetch_add(1, std::memory_order_relaxed);
        }
        // A second point whose spec the main thread flips concurrently;
        // only the absence of races matters, not whether it fires.
        (void)ADICT_FAIL_POINT("test.concurrency.toggled");
      }
    });
  }
  std::thread toggler([] {
    for (int i = 0; i < 50; ++i) {
      failpoint::Enable("test.concurrency.toggled",
                        failpoint::Spec::Prob(0.5));
      (void)failpoint::HitCount("test.concurrency.toggled");
      (void)failpoint::ActiveNames();
      failpoint::Disable("test.concurrency.toggled");
    }
  });
  for (std::thread& hitter : hitters) hitter.join();
  toggler.join();

  EXPECT_EQ(failpoint::HitCount("test.concurrency.fp"),
            static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(fired.load(), kFires);
  failpoint::DisableAll();
}

}  // namespace
}  // namespace adict
