// End-to-end integration: the store lifecycle across inserts, merges,
// manager-driven format changes, persistence, and query consistency.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/compression_manager.h"
#include "datasets/generators.h"
#include "engine/scan.h"
#include "store/delta.h"
#include "store/string_column.h"
#include "store/table.h"
#include "util/rng.h"

namespace adict {
namespace {

TEST(Integration, LifecycleAcrossMergesAndFormatChanges) {
  // A column lives through several generations: delta inserts, adaptive
  // merges under changing memory pressure, serialization in between. Row
  // content must survive everything.
  Rng rng(1);
  const std::vector<std::string> pool = GenerateSurveyDataset("mat", 400, 2);
  std::vector<std::string> expected_rows;
  for (int i = 0; i < 3000; ++i) {
    expected_rows.push_back(pool[rng.Uniform(pool.size())]);
  }
  Table table("lifecycle");
  table.AddStringColumn("mat", StringColumn::FromValues(expected_rows));

  CompressionManager manager;
  for (int generation = 0; generation < 5; ++generation) {
    // Read workload (traced into the table column's usage record).
    const TableSnapshot snapshot = table.Snapshot();
    const StringColumn& current = snapshot.strings("mat");
    for (int i = 0; i < 500; ++i) {
      (void)current.GetValue(rng.Uniform(current.num_rows()));
    }
    (void)current.Locate(pool[rng.Uniform(pool.size())]);

    // Memory pressure alternates between generations.
    for (int i = 0; i < 10; ++i) {
      manager.controller().Observe(generation % 2 ? 90.0 : 5.0, 100.0);
    }

    // New rows arrive in the delta.
    DeltaColumn delta;
    for (int i = 0; i < 50; ++i) {
      std::string value = "GEN" + std::to_string(generation) + "-" +
                          std::to_string(rng.Uniform(100));
      expected_rows.push_back(value);
      delta.Append(std::move(value));
    }

    // Merge re-decides the format.
    const StringColumn merged =
        MergeDeltaAdaptive(current, delta, manager, 60.0);

    // Persist and reload mid-life.
    std::vector<uint8_t> buffer;
    ByteWriter writer(&buffer);
    merged.Serialize(&writer);
    ByteReader reader(buffer.data(), buffer.size());
    StatusOr<StringColumn> loaded = StringColumn::Deserialize(&reader);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    table.PublishStrings("mat", std::move(loaded).value());

    // Full consistency check.
    const TableSnapshot published = table.Snapshot();
    const StringColumn& column = published.strings("mat");
    ASSERT_EQ(column.num_rows(), expected_rows.size());
    for (size_t row = 0; row < expected_rows.size(); row += 97) {
      ASSERT_EQ(column.GetValue(row), expected_rows[row])
          << "generation " << generation << " row " << row;
    }
  }
}

TEST(Integration, PredicateResultsStableAcrossFormatsAndSerialization) {
  Rng rng(3);
  const std::vector<std::string> pool = GenerateSurveyDataset("url", 300, 4);
  std::vector<std::string> values;
  for (int i = 0; i < 4000; ++i) values.push_back(pool[rng.Uniform(pool.size())]);
  StringColumn column = StringColumn::FromValues(values, DictFormat::kArray);

  const std::string probe = pool[123];
  const std::vector<uint32_t> baseline = SelectRows(column, EqIds(column, probe));
  const std::vector<bool> contains_baseline = ContainsIds(column, "example");
  ASSERT_FALSE(baseline.empty());

  for (DictFormat format :
       {DictFormat::kFcBlockRp12, DictFormat::kColumnBc, DictFormat::kFcInline,
        DictFormat::kArrayHu}) {
    column = column.WithFormat(format);
    ASSERT_EQ(SelectRows(column, EqIds(column, probe)), baseline)
        << DictFormatName(format);
    ASSERT_EQ(ContainsIds(column, "example"), contains_baseline)
        << DictFormatName(format);

    // And once more after a persistence roundtrip.
    std::vector<uint8_t> buffer;
    ByteWriter writer(&buffer);
    column.Serialize(&writer);
    ByteReader reader(buffer.data(), buffer.size());
    StatusOr<StringColumn> loaded_or = StringColumn::Deserialize(&reader);
    ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
    const StringColumn loaded = std::move(loaded_or).value();
    ASSERT_EQ(SelectRows(loaded, EqIds(loaded, probe)), baseline)
        << DictFormatName(format);
  }
}

TEST(Integration, ManagerKeepsHotColumnFastUnderMildPressure) {
  // A column serving millions of extracts per merge interval must not end
  // up in a grammar-compressed format even when memory is somewhat tight.
  const std::vector<std::string> sorted = GenerateSurveyDataset("mat", 5000, 5);
  CompressionManager manager;
  for (int i = 0; i < 5; ++i) manager.controller().Observe(15.0, 100.0);

  ColumnUsage hot;
  hot.num_extracts = 50000000;
  hot.lifetime_seconds = 60;
  const DictFormat hot_pick = manager.ChooseFormat(sorted, hot);
  const CostModel costs = CostModel::Default();
  EXPECT_LT(costs.costs(hot_pick).extract_us, 0.5)
      << DictFormatName(hot_pick);

  // The same column, cold, compresses.
  ColumnUsage cold;
  cold.num_extracts = 10;
  cold.lifetime_seconds = 3600;
  const DictFormat cold_pick = manager.ChooseFormat(sorted, cold);
  auto hot_dict = BuildDictionary(hot_pick, sorted);
  auto cold_dict = BuildDictionary(cold_pick, sorted);
  EXPECT_LE(cold_dict->MemoryBytes(), hot_dict->MemoryBytes());
}

}  // namespace
}  // namespace adict
