// Morsel-parallel engine tests: the determinism contract (parallel output
// bit-identical to serial at any thread count, across all 18 dictionary
// formats), the per-scan usage-accounting contract, the work-stealing pool
// itself, and the snapshot-read protocol racing delta merges. The tsan CI
// job runs this binary under ThreadSanitizer.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/compression_manager.h"
#include "engine/join.h"
#include "engine/parallel.h"
#include "engine/predicates.h"
#include "engine/scan.h"
#include "obs/workload_profiler.h"
#include "store/delta.h"
#include "store/string_column.h"
#include "store/table.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "util/thread_pool.h"

namespace adict {
namespace {

std::vector<std::string> MakeValues(int distinct, int rows) {
  std::vector<std::string> values;
  values.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    // Mix of lengths and shared prefixes so every format class has work.
    values.push_back("value_" + std::to_string((i * 37) % distinct) +
                     "_payload");
  }
  return values;
}

// -- ThreadPool ---------------------------------------------------------------

TEST(ThreadPoolTest, NumChunks) {
  EXPECT_EQ(ThreadPool::NumChunks(0, 10), 0u);
  EXPECT_EQ(ThreadPool::NumChunks(1, 10), 1u);
  EXPECT_EQ(ThreadPool::NumChunks(10, 10), 1u);
  EXPECT_EQ(ThreadPool::NumChunks(11, 10), 2u);
  EXPECT_EQ(ThreadPool::NumChunks(100, 10), 10u);
  EXPECT_EQ(ThreadPool::NumChunks(5, 0), 0u);  // degenerate grain
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr uint64_t kItems = 10007;  // prime: uneven final chunk
  std::vector<std::atomic<uint32_t>> hits(kItems);
  pool.ParallelFor(0, kItems, 64, [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (uint64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1u) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHonorsBeginAndGrainBoundaries) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::vector<std::pair<uint64_t, uint64_t>> chunks;
  pool.ParallelFor(100, 1000, 256, [&](uint64_t begin, uint64_t end) {
    std::lock_guard<std::mutex> lock(mutex);
    chunks.push_back({begin, end});
  });
  std::sort(chunks.begin(), chunks.end());
  const std::vector<std::pair<uint64_t, uint64_t>> expected = {
      {100, 356}, {356, 612}, {612, 868}, {868, 1000}};
  EXPECT_EQ(chunks, expected);
}

TEST(ThreadPoolTest, SerialPoolRunsEverythingInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  bool submitted_inline = false;
  pool.Submit([&] { submitted_inline = std::this_thread::get_id() == caller; });
  EXPECT_TRUE(submitted_inline);
  std::set<std::thread::id> ids;
  std::mutex mutex;
  pool.ParallelFor(0, 1000, 10, [&](uint64_t, uint64_t) {
    std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(ids, std::set<std::thread::id>{caller});
}

TEST(ThreadPoolTest, SubmittedTaskRunsOnWorkerThread) {
  // With one worker and a caller that only waits (never drains), the worker
  // is the only thread that can run the task.
  ThreadPool pool(2);
  std::atomic<bool> done{false};
  std::thread::id task_thread;
  pool.Submit([&] {
    task_thread = std::this_thread::get_id();
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
  EXPECT_NE(task_thread, std::this_thread::get_id());
}

TEST(ThreadPoolTest, DefaultPoolParallelismParsesAdictThreads) {
  const char* saved = std::getenv("ADICT_THREADS");
  const std::string saved_value = saved == nullptr ? "" : saved;

  unsetenv("ADICT_THREADS");
  const size_t hw = DefaultPoolParallelism();
  EXPECT_GE(hw, 1u);
  setenv("ADICT_THREADS", "0", 1);
  EXPECT_EQ(DefaultPoolParallelism(), hw);
  setenv("ADICT_THREADS", "", 1);
  EXPECT_EQ(DefaultPoolParallelism(), hw);
  setenv("ADICT_THREADS", "3", 1);
  EXPECT_EQ(DefaultPoolParallelism(), 3u);
  setenv("ADICT_THREADS", "1", 1);
  EXPECT_EQ(DefaultPoolParallelism(), 1u);
  setenv("ADICT_THREADS", "9999", 1);
  EXPECT_EQ(DefaultPoolParallelism(), 256u);  // clamp

  if (saved == nullptr) {
    unsetenv("ADICT_THREADS");
  } else {
    setenv("ADICT_THREADS", saved_value.c_str(), 1);
  }
}

// -- Parallel drivers vs serial, across every dictionary format ---------------

class ParallelFormatTest : public ::testing::TestWithParam<DictFormat> {};

/// The reference map the merge must reproduce: one extract on `from` and
/// one locate on `to` per distinct value.
std::vector<uint32_t> ExtractLocateMap(const StringColumn& from,
                                       const StringColumn& to) {
  std::vector<uint32_t> mapping(from.num_distinct(), kNoMatch);
  for (uint32_t id = 0; id < from.num_distinct(); ++id) {
    const LocateResult r = to.Locate(from.ExtractId(id));
    if (r.found) mapping[id] = r.id;
  }
  return mapping;
}

TEST_P(ParallelFormatTest, DriversMatchSerialBitForBit) {
  constexpr int kDistinct = 400;
  constexpr int kRows = 20000;
  const std::vector<std::string> values = MakeValues(kDistinct, kRows);
  const StringColumn column = StringColumn::FromValues(values, GetParam());
  ThreadPool pool(4);

  const IdRange range{static_cast<uint32_t>(kDistinct / 4),
                      static_cast<uint32_t>(3 * kDistinct / 4)};

  // SelectRows (ID range).
  std::vector<uint32_t> serial_rows;
  SelectRowsInto(column, range, 0, column.num_rows(), &serial_rows);
  EXPECT_EQ(ParallelSelectRows(column, range, &pool), serial_rows);

  // SelectRows (flags).
  std::vector<bool> odd_flags(column.num_distinct(), false);
  for (uint32_t id = 1; id < column.num_distinct(); id += 2) {
    odd_flags[id] = true;
  }
  std::vector<uint32_t> serial_flag_rows;
  SelectRowsInto(column, odd_flags, 0, column.num_rows(), &serial_flag_rows);
  EXPECT_EQ(ParallelSelectRows(column, odd_flags, &pool), serial_flag_rows);

  // RefineRows over the selection just produced.
  const IdRange narrow{static_cast<uint32_t>(kDistinct / 3),
                       static_cast<uint32_t>(kDistinct / 2)};
  std::vector<uint32_t> serial_refined;
  RefineRowsInto(column, serial_rows, narrow, &serial_refined);
  EXPECT_EQ(ParallelRefineRows(column, serial_rows, narrow, &pool),
            serial_refined);

  // CountRows.
  EXPECT_EQ(ParallelCountRows(column, range, &pool),
            CountRowsIn(column, range, 0, column.num_rows()));

  // ContainsAllIds against a serial full-dictionary scan.
  const std::string_view needles[] = {"value_1", "payload"};
  std::vector<bool> serial_contains(column.num_distinct(), false);
  column.ScanDictionary(
      0, column.num_distinct(), [&](uint32_t id, std::string_view value) {
        size_t pos = 0;
        for (std::string_view needle : needles) {
          pos = value.find(needle, pos);
          if (pos == std::string_view::npos) return;
          pos += needle.size();
        }
        serial_contains[id] = true;
      });
  EXPECT_EQ(ParallelContainsAllIds(column, needles, &pool), serial_contains);

  // MapDictionary onto a column holding a subset of the values.
  const StringColumn subset = StringColumn::FromValues(
      MakeValues(kDistinct / 2, kRows / 4), GetParam());
  EXPECT_EQ(MapDictionary(column, subset, &pool),
            ExtractLocateMap(column, subset));

  // CountIds.
  std::vector<uint32_t> serial_counts(column.num_distinct(), 0);
  for (uint64_t row = 0; row < column.num_rows(); ++row) {
    ++serial_counts[column.GetValueId(row)];
  }
  EXPECT_EQ(ParallelCountIds(column, &pool), serial_counts);
}

/// Sorted keys "<prefix>NNNNNNNN" for first, first + step, ... (count keys).
std::vector<std::string> Keys(const std::string& prefix, int first, int count,
                              int step = 1) {
  std::vector<std::string> keys;
  keys.reserve(count);
  char digits[16];
  for (int i = 0; i < count; ++i) {
    std::snprintf(digits, sizeof(digits), "%08d", first + i * step);
    keys.push_back(prefix + digits);
  }
  return keys;
}

std::vector<std::string> SortedUnion(std::vector<std::string> a,
                                     const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

/// One MapDictionary input: the distinct values of `from` and of `to`.
struct MapCase {
  std::string name;
  std::vector<std::string> from;
  std::vector<std::string> to;
};

std::vector<MapCase> MapCases() {
  // Shared prefixes longer than fc block's 255-byte prefix field, changing
  // inside blocks and across block boundaries.
  const std::string a(300, 'a');
  const std::string b = std::string(299, 'a') + "b";
  return {
      {"empty to", Keys("k", 0, 300), {}},
      {"disjoint", Keys("k", 0, 2000, 2), Keys("k", 1, 2000, 2)},
      // Every from value lies more than a block past the previous one; a
      // few sort before and after all of `to`.
      {"sparse from in large to",
       SortedUnion(SortedUnion(Keys("k", 0, 120, 97), Keys("k", 50, 40, 211)),
                   SortedUnion(Keys("j", 0, 5), Keys("k", 30000, 5, 7))),
       Keys("k", 0, 12000)},
      {"to inside from", Keys("k", 0, 3000), Keys("k", 0, 1000, 3)},
      {"long shared prefixes", SortedUnion(Keys(a, 0, 700), Keys(b, 0, 300)),
       SortedUnion(Keys(a, 0, 350, 2), Keys(b, 100, 400))},
      {"from of 8192 entries", Keys("k", 0, 8192, 2), Keys("k", 0, 10000, 3)},
      {"from of 8193 entries", Keys("k", 0, 8193, 2), Keys("k", 3, 9000, 2)},
  };
}

TEST_P(ParallelFormatTest, MapDictionaryOntoEveryFormatMatchesExtractLocate) {
  ThreadPool pool1(1), pool2(2), pool4(4);
  for (const MapCase& c : MapCases()) {
    const StringColumn from = StringColumn::FromValues(c.from, GetParam());
    const std::vector<uint32_t> expected = ExtractLocateMap(
        StringColumn::FromValues(c.from, DictFormat::kArray),
        StringColumn::FromValues(c.to, DictFormat::kArray));
    for (const DictFormat to_format : AllDictFormats()) {
      const StringColumn to = StringColumn::FromValues(c.to, to_format);
      for (ThreadPool* pool : {&pool1, &pool2, &pool4}) {
        ASSERT_EQ(MapDictionary(from, to, pool), expected)
            << c.name << " onto " << DictFormatName(to_format) << " at width "
            << pool->parallelism();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, ParallelFormatTest,
    ::testing::ValuesIn(AllDictFormats().begin(), AllDictFormats().end()),
    [](const ::testing::TestParamInfo<DictFormat>& info) {
      std::string name(DictFormatName(info.param));
      std::replace(name.begin(), name.end(), ' ', '_');
      return name;
    });

// -- Usage accounting is per scan, not per morsel -----------------------------

TEST(ParallelUsageTest, VectorScansTouchNoDictionaryAtAnyParallelism) {
  const std::vector<std::string> values = MakeValues(100, 50000);
  Table table("vector_scans");
  table.AddStringColumn(
      "col", StringColumn::FromValues(values, DictFormat::kFcInline));
  const TableSnapshot snapshot = table.Snapshot();
  const StringColumn& column = snapshot.strings("col");
  table.string_column(0).ResetUsage();
  ThreadPool pool(4);
  const IdRange range{10, 60};
  (void)ParallelSelectRows(column, range, &pool);
  (void)ParallelCountRows(column, range, &pool);
  const ColumnUsage usage = column.TracedUsage(1.0);
  EXPECT_EQ(usage.num_extracts, 0u);  // morsels compare bit-packed IDs only
  EXPECT_EQ(usage.num_locates, 0u);
  EXPECT_EQ(usage.num_scans, 0u);
}

TEST(ParallelUsageTest, RowScansRecordTheirOwnOp) {
  Table table("row_scans");
  table.AddStringColumn("col", StringColumn::FromValues(MakeValues(100, 50000),
                                                        DictFormat::kFcInline));
  const TableSnapshot snapshot = table.Snapshot();
  const StringColumn& column = snapshot.strings("col");
  obs::ColumnHeat* record = column.heat();
  ASSERT_NE(record, nullptr);
  ThreadPool pool(4);
  (void)ParallelCountRows(column, IdRange{10, 60}, &pool);
  // One batch record per driver call, whatever the morsel count.
  EXPECT_EQ(record->Totals(obs::ColumnOp::kRowScan).count, 50000u);
  EXPECT_EQ(record->Totals(obs::ColumnOp::kScan).count, 0u);
}

TEST(ParallelUsageTest, DictionaryScansCountExactlyTheSerialAccesses) {
  const std::vector<std::string> values = MakeValues(3000, 6000);
  Table table("dictionary_scans");
  table.AddStringColumn(
      "serial", StringColumn::FromValues(values, DictFormat::kFcBlock));
  table.AddStringColumn(
      "parallel", StringColumn::FromValues(values, DictFormat::kFcBlock));
  const TableSnapshot snapshot = table.Snapshot();
  const StringColumn& serial_col = snapshot.strings("serial");
  const StringColumn& parallel_col = snapshot.strings("parallel");
  ThreadPool pool(4);
  const std::string_view needles[] = {"value_2"};

  table.string_column(0).ResetUsage();
  serial_col.ScanDictionary(0, serial_col.num_distinct(),
                            [](uint32_t, std::string_view) {});
  table.string_column(1).ResetUsage();
  (void)ParallelContainsAllIds(parallel_col, needles, &pool);

  EXPECT_EQ(serial_col.TracedUsage(1.0).num_scans, serial_col.num_distinct());
  EXPECT_EQ(parallel_col.TracedUsage(1.0).num_scans,
            serial_col.TracedUsage(1.0).num_scans);
  EXPECT_EQ(parallel_col.TracedUsage(1.0).num_extracts, 0u);

  // MapDictionary merges one cursor over each dictionary per morsel of
  // `from`: every `from` entry is one scan on `from`, every entry `to`'s
  // cursor decodes is one scan on `to`, and every seek is one locate on
  // `to`. The morsels are the same at every pool width, so are the counts.
  // 20000 entries make three morsels of `from`; `to` holds every other
  // value.
  Table from_table("dictionary_scans_from");
  from_table.AddStringColumn(
      "from",
      StringColumn::FromValues(Keys("k", 0, 20000), DictFormat::kFcBlock));
  Table to_table("dictionary_scans_to");
  to_table.AddStringColumn(
      "to",
      StringColumn::FromValues(Keys("k", 0, 10000, 2), DictFormat::kArray));
  const TableSnapshot from_snapshot = from_table.Snapshot();
  const TableSnapshot to_snapshot = to_table.Snapshot();
  const StringColumn& from = from_snapshot.strings("from");
  const StringColumn& to = to_snapshot.strings("to");
  ASSERT_EQ(ThreadPool::NumChunks(from.num_distinct(), kMorselDictEntries), 3u);

  struct Counts {
    uint64_t from_extracts, from_scans, to_extracts, to_scans, to_locates;
    bool operator==(const Counts&) const = default;
  };
  const auto run = [&](size_t width) {
    ThreadPool width_pool(width);
    from_table.string_column(0).ResetUsage();
    to_table.string_column(0).ResetUsage();
    (void)MapDictionary(from, to, &width_pool);
    return Counts{from.heat()->WindowCount(obs::ColumnOp::kExtract),
                  from.heat()->WindowCount(obs::ColumnOp::kScan),
                  to.heat()->WindowCount(obs::ColumnOp::kExtract),
                  to.heat()->WindowCount(obs::ColumnOp::kScan),
                  to.heat()->WindowCount(obs::ColumnOp::kLocate)};
  };
  const Counts serial = run(1);
  EXPECT_EQ(serial.from_extracts, 0u);
  EXPECT_EQ(serial.from_scans, from.num_distinct());
  EXPECT_EQ(serial.to_extracts, 0u);
  // A dense merge: one seek per morsel, and `to`'s morsel ranges overlap
  // only in the entry each later morsel seeks to.
  EXPECT_EQ(serial.to_locates, 3u);
  EXPECT_EQ(serial.to_scans, to.num_distinct() + 2);
  for (size_t width : {2, 4}) {
    EXPECT_EQ(run(width), serial) << "width " << width;
  }
}

// -- Snapshot reads vs concurrent merges --------------------------------------

TEST(VersionedColumnTest, SnapshotPinsVersionAcrossPublish) {
  VersionedStringColumn versioned(
      StringColumn::FromValues(MakeValues(10, 100), DictFormat::kFcInline),
      *obs::Profiler().GetColumn("versioned_test.pin"));
  EXPECT_EQ(versioned.epoch(), 0u);

  const std::shared_ptr<const StringColumn> before = versioned.Snapshot();
  EXPECT_EQ(before->num_rows(), 100u);

  versioned.Publish(
      StringColumn::FromValues(MakeValues(10, 250), DictFormat::kArray),
      VersionedStringColumn::kAnyEpoch);
  EXPECT_EQ(versioned.epoch(), 1u);

  // The old snapshot is untouched; new snapshots see the new version.
  EXPECT_EQ(before->num_rows(), 100u);
  EXPECT_EQ(before->format(), DictFormat::kFcInline);
  EXPECT_EQ(versioned.Snapshot()->num_rows(), 250u);
  // Each pin carries the epoch of the version it pinned.
  EXPECT_EQ(before->epoch(), 0u);
  EXPECT_EQ(versioned.Snapshot()->epoch(), 1u);
}

// Readers scan while a writer repeatedly merges a delta into the column and
// publishes the result (the MergeDeltaAdaptive path). Every reader snapshot
// must be internally consistent: its row count is one of the published
// sizes, and scanning it twice gives identical answers even while the next
// version is being built and swapped in. Run under TSan in CI.
TEST(VersionedColumnTest, ScansRacingAdaptiveMergeSeeConsistentSnapshots) {
  constexpr int kDistinct = 50;
  constexpr int kBaseRows = 2000;
  constexpr int kDeltaRows = 100;
  constexpr int kMerges = 20;

  VersionedStringColumn versioned(
      StringColumn::FromValues(MakeValues(kDistinct, kBaseRows),
                               DictFormat::kFcInline),
      *obs::Profiler().GetColumn("versioned_test.race"));
  CompressionManager manager;
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    for (int m = 0; m < kMerges; ++m) {
      const std::shared_ptr<const StringColumn> base = versioned.Snapshot();
      DeltaColumn delta;
      for (int i = 0; i < kDeltaRows; ++i) {
        delta.Append("delta_" + std::to_string(m) + "_" +
                     std::to_string(i % 10));
      }
      versioned.Publish(
          MergeDeltaAdaptive(*base, delta, manager, 60.0, "race.column"),
          VersionedStringColumn::kAnyEpoch);
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      do {
        const std::shared_ptr<const StringColumn> snap = versioned.Snapshot();
        const uint64_t rows = snap->num_rows();
        // Published sizes are base + m * delta for some merge count m.
        ASSERT_EQ((rows - kBaseRows) % kDeltaRows, 0u);
        ASSERT_LE(rows, static_cast<uint64_t>(kBaseRows) +
                            static_cast<uint64_t>(kMerges) * kDeltaRows);
        // The snapshot is immutable: two scans agree exactly.
        const IdRange range{0, snap->num_distinct() / 2};
        std::vector<uint32_t> first, second;
        SelectRowsInto(*snap, range, 0, rows, &first);
        SelectRowsInto(*snap, range, 0, rows, &second);
        ASSERT_EQ(first, second);
        ASSERT_EQ(CountRowsIn(*snap, range, 0, rows), first.size());
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(versioned.epoch(), static_cast<uint64_t>(kMerges));
  EXPECT_EQ(versioned.Snapshot()->num_rows(),
            static_cast<uint64_t>(kBaseRows) +
                static_cast<uint64_t>(kMerges) * kDeltaRows);
}

// -- TPC-H Q1/Q6 results are identical at every pool width --------------------

TEST(ParallelQueryTest, Q1AndQ6IdenticalAcrossPoolSizes) {
  TpchOptions options;
  options.scale_factor = 0.002;
  const TpchDatabase db = GenerateTpch(options);

  SetPoolParallelism(1);
  const QueryResult q1_serial = RunTpchQuery(db, 1);
  const QueryResult q6_serial = RunTpchQuery(db, 6);

  for (size_t threads : {2, 4, 8}) {
    SetPoolParallelism(threads);
    EXPECT_EQ(RunTpchQuery(db, 1).rows, q1_serial.rows)
        << "Q1 diverged at parallelism " << threads;
    EXPECT_EQ(RunTpchQuery(db, 6).rows, q6_serial.rows)
        << "Q6 diverged at parallelism " << threads;
  }
  SetPoolParallelism(1);
}

}  // namespace
}  // namespace adict
