// Tests for the column-store substrate: column vectors, domain encoding,
// instrumented string columns, delta merge, tables, and date utilities.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datasets/generators.h"
#include "obs/obs.h"
#include "obs/workload_profiler.h"
#include "store/column_vector.h"
#include "store/delta.h"
#include "store/string_column.h"
#include "store/table.h"
#include "util/date.h"
#include "util/rng.h"

namespace adict {
namespace {

TEST(ColumnVector, PacksAtMinimalWidth) {
  const std::vector<uint32_t> ids = {0, 1, 2, 3};
  EXPECT_EQ(ColumnVector(ids, 4).bits_per_value(), 2);
  EXPECT_EQ(ColumnVector(ids, 5).bits_per_value(), 3);
  EXPECT_EQ(ColumnVector(ids, 2).bits_per_value(), 1);
  const std::vector<uint32_t> zero = {0, 0};
  EXPECT_EQ(ColumnVector(zero, 1).bits_per_value(), 1);
}

TEST(ColumnVector, RoundtripAcrossWordBoundaries) {
  Rng rng(1);
  for (uint32_t distinct : {2u, 3u, 31u, 33u, 1000u, 100000u, 1u << 20}) {
    std::vector<uint32_t> ids(999);
    for (auto& id : ids) id = static_cast<uint32_t>(rng.Uniform(distinct));
    const ColumnVector vec(ids, distinct);
    for (size_t row = 0; row < ids.size(); ++row) {
      ASSERT_EQ(vec.Get(row), ids[row]) << "distinct " << distinct;
    }
  }
}

TEST(ColumnVector, MemorySmallerThanPlainArray) {
  std::vector<uint32_t> ids(10000);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i % 16;  // 4 bits
  const ColumnVector vec(ids, 16);
  EXPECT_LT(vec.MemoryBytes(), ids.size() * sizeof(uint32_t) / 4);
}

TEST(DomainEncode, BuildsSortedDistinctDictionary) {
  const std::vector<std::string> values = {"b", "a", "c", "a", "b", "a"};
  const DomainEncoded encoded = DomainEncode(values);
  EXPECT_EQ(encoded.dictionary, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(encoded.ids, (std::vector<uint32_t>{1, 0, 2, 0, 1, 0}));
}

TEST(StringColumn, RoundtripsValues) {
  std::vector<std::string> values;
  Rng rng(2);
  const std::vector<std::string> pool = GenerateSurveyDataset("engl", 50, 3);
  for (int i = 0; i < 1000; ++i) values.push_back(pool[rng.Uniform(pool.size())]);

  for (DictFormat format : {DictFormat::kArray, DictFormat::kFcInline,
                            DictFormat::kFcBlockRp12, DictFormat::kColumnBc}) {
    const StringColumn column = StringColumn::FromValues(values, format);
    ASSERT_EQ(column.num_rows(), values.size());
    EXPECT_EQ(column.num_distinct(), 50u);
    for (size_t row = 0; row < values.size(); ++row) {
      ASSERT_EQ(column.GetValue(row), values[row]) << DictFormatName(format);
    }
  }
}

TEST(StringColumn, ValueIdsStableAcrossFormats) {
  // All formats are order-preserving, so a format change must not move IDs:
  // the column vector can be kept (this is what makes cheap re-deciding at
  // merge time possible).
  const std::vector<std::string> values = GenerateSurveyDataset("mat", 500, 4);
  StringColumn column = StringColumn::FromValues(values, DictFormat::kArray);
  std::vector<uint32_t> ids_before(column.num_rows());
  for (size_t row = 0; row < column.num_rows(); ++row) {
    ids_before[row] = column.GetValueId(row);
  }
  column = column.WithFormat(DictFormat::kFcBlockHu);
  EXPECT_EQ(column.format(), DictFormat::kFcBlockHu);
  for (size_t row = 0; row < column.num_rows(); ++row) {
    ASSERT_EQ(column.GetValueId(row), ids_before[row]);
    ASSERT_EQ(column.GetValue(row), values[row]);
  }
}

TEST(StringColumn, TracksUsage) {
  // The same counts with observability on and off.
  for (const bool obs_enabled : {true, false}) {
    SCOPED_TRACE(obs_enabled ? "obs on" : "obs off");
    obs::SetEnabled(obs_enabled);
    const std::vector<std::string> values = {"x", "y", "z", "x"};
    Table table("tracks_usage");
    table.AddStringColumn("col", StringColumn::FromValues(values));
    const TableSnapshot snapshot = table.Snapshot();
    const StringColumn& column = snapshot.strings("col");
    (void)column.GetValue(0);
    (void)column.GetValue(1);
    (void)column.Locate("y");
    column.ScanDictionary(0, 3, [](uint32_t, std::string_view) {});
    column.RecordCursorScan(2);
    const ColumnUsage usage = column.TracedUsage(60.0);
    EXPECT_EQ(usage.num_extracts, 2u);
    EXPECT_EQ(usage.num_locates, 1u);
    EXPECT_EQ(usage.num_scans, 5u);  // scanned entries are not extracts
    EXPECT_DOUBLE_EQ(usage.lifetime_seconds, 60.0);
    EXPECT_EQ(usage.column_vector_bytes, column.VectorBytes());
  }
  obs::SetEnabled(true);
}

TEST(StringColumn, TracedUsageIsAWindowOnTheUsageRecord) {
  // A column outside a table has no usage record and reads zero.
  const StringColumn bare =
      StringColumn::FromValues(std::vector<std::string>{"a", "b"});
  (void)bare.GetValue(0);
  EXPECT_EQ(bare.TracedUsage(1.0).num_extracts, 0u);

  Table table("usage_window");
  table.AddStringColumn(
      "col", StringColumn::FromValues(std::vector<std::string>{"a", "b"}));
  obs::ColumnHeat* record = table.SnapshotStrings("col")->heat();
  ASSERT_NE(record, nullptr);
  (void)table.SnapshotStrings("col")->GetValue(0);
  (void)table.SnapshotStrings("col")->Locate("b");
  EXPECT_EQ(table.SnapshotStrings("col")->TracedUsage(1.0).num_extracts, 1u);

  // A publish restarts the window; the record keeps the totals.
  table.PublishStrings(
      "col", StringColumn::FromValues(std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(table.SnapshotStrings("col")->heat(), record);
  EXPECT_EQ(table.SnapshotStrings("col")->TracedUsage(1.0).num_extracts, 0u);
  EXPECT_EQ(table.SnapshotStrings("col")->TracedUsage(1.0).num_locates, 0u);
  EXPECT_EQ(record->Totals(obs::ColumnOp::kExtract).count, 1u);
  (void)table.SnapshotStrings("col")->GetValue(1);
  EXPECT_EQ(table.SnapshotStrings("col")->TracedUsage(1.0).num_extracts, 1u);

  // A reset zeroes the record under the window: zero, not a wrap-around,
  // and counting resumes from there.
  obs::ResetForTest();
  EXPECT_EQ(table.SnapshotStrings("col")->TracedUsage(1.0).num_extracts, 0u);
  (void)table.SnapshotStrings("col")->GetValue(0);
  EXPECT_EQ(table.SnapshotStrings("col")->TracedUsage(1.0).num_extracts, 1u);
}

TEST(StringColumn, ResetUsageClearsCounters) {
  Table table("reset_usage");
  table.AddStringColumn(
      "col", StringColumn::FromValues(std::vector<std::string>{"a", "b"}));
  const TableSnapshot snapshot = table.Snapshot();
  const StringColumn& column = snapshot.strings("col");
  (void)column.GetValue(0);
  table.string_column(0).ResetUsage();
  EXPECT_EQ(column.TracedUsage(1.0).num_extracts, 0u);
}

TEST(StringColumn, MaterializeDictionaryReturnsSortedValues) {
  const std::vector<std::string> values = {"m", "a", "z", "a"};
  const StringColumn column = StringColumn::FromValues(values);
  EXPECT_EQ(column.MaterializeDictionary(),
            (std::vector<std::string>{"a", "m", "z"}));
}

TEST(DeltaColumn, DedupsValues) {
  DeltaColumn delta;
  delta.Append("apple");
  delta.Append("pear");
  delta.Append("apple");
  EXPECT_EQ(delta.num_rows(), 3u);
  EXPECT_EQ(delta.num_distinct(), 2u);
  EXPECT_EQ(delta.GetValue(0), "apple");
  EXPECT_EQ(delta.GetValue(1), "pear");
  EXPECT_EQ(delta.GetValue(2), "apple");
}

TEST(DeltaMerge, AppendsRowsAndMergesDictionaries) {
  const std::vector<std::string> main_values = {"b", "d", "b"};
  StringColumn main = StringColumn::FromValues(main_values, DictFormat::kArray);
  DeltaColumn delta;
  delta.Append("a");
  delta.Append("d");
  delta.Append("c");

  const StringColumn merged = MergeDelta(main, delta, DictFormat::kFcBlock);
  ASSERT_EQ(merged.num_rows(), 6u);
  EXPECT_EQ(merged.num_distinct(), 4u);  // a b c d
  const std::vector<std::string> expected = {"b", "d", "b", "a", "d", "c"};
  for (size_t row = 0; row < expected.size(); ++row) {
    EXPECT_EQ(merged.GetValue(row), expected[row]);
  }
}

TEST(DeltaMerge, EmptyDeltaIsFormatChangeOnly) {
  const std::vector<std::string> values = {"q", "r", "s"};
  StringColumn main = StringColumn::FromValues(values, DictFormat::kArray);
  const StringColumn merged =
      MergeDelta(main, DeltaColumn{}, DictFormat::kArrayFixed);
  EXPECT_EQ(merged.format(), DictFormat::kArrayFixed);
  EXPECT_EQ(merged.num_rows(), 3u);
  EXPECT_EQ(merged.GetValue(2), "s");
}

TEST(DeltaMerge, AdaptiveMergeUsesTracedWorkload) {
  const std::vector<std::string> values = GenerateSurveyDataset("url", 3000, 5);
  Table table("adaptive_merge");
  table.AddStringColumn("url",
                        StringColumn::FromValues(values, DictFormat::kArray));
  const TableSnapshot snapshot = table.Snapshot();
  const StringColumn& main = snapshot.strings("url");
  // Trace a read-heavy workload.
  for (int i = 0; i < 5000; ++i) (void)main.GetValue(i % main.num_rows());

  DeltaColumn delta;
  delta.Append("https://zzz.example.com/new");

  CompressionManager manager;
  manager.set_c(0.01);  // compression-leaning
  const StringColumn merged =
      MergeDeltaAdaptive(main, delta, manager, 600.0, "adaptive_merge.url");
  ASSERT_EQ(merged.num_rows(), main.num_rows() + 1);
  // The decision saw the traced reads.
  const obs::DecisionRecord* decision = nullptr;
  const std::vector<obs::DecisionRecord> records = obs::Decisions().Snapshot();
  for (const obs::DecisionRecord& record : records) {
    if (record.column_id == "adaptive_merge.url") decision = &record;
  }
  ASSERT_NE(decision, nullptr);
  EXPECT_EQ(decision->num_extracts, 5000u);
  EXPECT_EQ(decision->num_locates, 0u);
  // The traced workload and low c should not pick the plain array.
  EXPECT_NE(merged.format(), DictFormat::kArray);
  EXPECT_EQ(merged.GetValue(merged.num_rows() - 1),
            "https://zzz.example.com/new");
}

TEST(Table, ColumnAccessByName) {
  Table table("t");
  table.AddStringColumn(
      "name", StringColumn::FromValues(std::vector<std::string>{"x", "y"}));
  table.AddInt64Column("count", {1, 2});
  table.AddDoubleColumn("price", {0.5, 1.5});
  table.AddDateColumn("day", {ParseDate("2020-01-01"), ParseDate("2020-01-02")});

  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.Snapshot().strings("name").GetValue(1), "y");
  EXPECT_EQ(table.int64s("count")[0], 1);
  EXPECT_DOUBLE_EQ(table.doubles("price")[1], 1.5);
  EXPECT_EQ(FormatDate(table.dates("day")[0]), "2020-01-01");
  EXPECT_TRUE(table.has_string_column("name"));
  EXPECT_FALSE(table.has_string_column("count"));
  EXPECT_GT(table.MemoryBytes(), 0u);
}

TEST(ColumnMemo, CountsInMemoryBytesButNotDictionaryBytes) {
  const std::vector<std::string> values = {"b", "a", "c", "a", "b", "a"};
  Table table("memo_bytes");
  table.AddStringColumn("k", StringColumn::FromValues(values));
  Table partner("memo_bytes_partner");
  partner.AddStringColumn("k", StringColumn::FromValues(values));
  const auto pin = table.SnapshotStrings("k");
  const auto partner_pin = partner.SnapshotStrings("k");
  const size_t dictionary = pin->DictionaryBytes();
  const size_t column = pin->MemoryBytes();
  const size_t whole_table = table.MemoryBytes();
  EXPECT_EQ(pin->MemoBytes(), 0u);
  EXPECT_EQ(pin->memo()->size(), 0u);

  const IdIndex& index = pin->memo()->Index(*pin);
  EXPECT_EQ(index.UniqueRow(2), 2u);  // "c"
  (void)pin->memo()->Map(*partner_pin->memo(),
                         [] { return std::vector<uint32_t>(10, 0); });
  const size_t memo = index.MemoryBytes() + 10 * sizeof(uint32_t);
  EXPECT_EQ(pin->memo()->size(), 2u);
  EXPECT_EQ(pin->MemoBytes(), memo);
  EXPECT_EQ(pin->MemoryBytes(), column + memo);
  EXPECT_EQ(table.MemoryBytes(), whole_table + memo);
  EXPECT_EQ(pin->DictionaryBytes(), dictionary);

  // A column outside a table has no memo and no memo bytes.
  const StringColumn loose = StringColumn::FromValues(values);
  EXPECT_EQ(loose.memo(), nullptr);
  EXPECT_EQ(loose.MemoBytes(), 0u);
}

TEST(Date, CivilConversionsRoundtrip) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(ParseDate("1998-12-01"), DaysFromCivil(1998, 12, 1));
  EXPECT_EQ(FormatDate(ParseDate("1995-06-17")), "1995-06-17");
  for (const char* date : {"1992-01-01", "1996-02-29", "1998-08-02"}) {
    EXPECT_EQ(FormatDate(ParseDate(date)), date);
  }
}

TEST(Date, AddMonthsHandlesYearWrapAndClamping) {
  EXPECT_EQ(FormatDate(AddMonths(ParseDate("1993-07-01"), 3)), "1993-10-01");
  EXPECT_EQ(FormatDate(AddMonths(ParseDate("1994-11-15"), 3)), "1995-02-15");
  EXPECT_EQ(FormatDate(AddMonths(ParseDate("1996-01-31"), 1)), "1996-02-29");
  EXPECT_EQ(FormatDate(AddMonths(ParseDate("1995-01-31"), 1)), "1995-02-28");
  EXPECT_EQ(FormatDate(AddMonths(ParseDate("1995-03-31"), -1)), "1995-02-28");
}

}  // namespace
}  // namespace adict
