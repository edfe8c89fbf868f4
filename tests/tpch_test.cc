// Tests for the TPC-H substrate: generator invariants, query execution, and
// the key property that query results are independent of dictionary format.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/join.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch_digests.h"
#include "util/date.h"
#include "util/thread_pool.h"

namespace adict {
namespace {

// One small database shared by all tests in this file (generation plus
// dictionary builds are the expensive part).
const TpchDatabase& Db() {
  static const TpchDatabase* db = [] {
    TpchOptions options;
    options.scale_factor = 0.002;
    return new TpchDatabase(GenerateTpch(options));
  }();
  return *db;
}

TEST(TpchGen, RowCountsScale) {
  const TpchDatabase& db = Db();
  EXPECT_EQ(db.region.num_rows(), 5u);
  EXPECT_EQ(db.nation.num_rows(), 25u);
  EXPECT_EQ(db.supplier.num_rows(), 20u);    // 10000 * 0.002
  EXPECT_EQ(db.customer.num_rows(), 300u);   // 150000 * 0.002
  EXPECT_EQ(db.part.num_rows(), 400u);       // 200000 * 0.002
  EXPECT_EQ(db.partsupp.num_rows(), 1600u);  // 4 per part
  EXPECT_EQ(db.orders.num_rows(), 3000u);    // 1500000 * 0.002
  // 1..7 lineitems per order.
  EXPECT_GE(db.lineitem.num_rows(), db.orders.num_rows());
  EXPECT_LE(db.lineitem.num_rows(), 7 * db.orders.num_rows());
}

TEST(TpchGen, KeysAreVarchar10) {
  EXPECT_EQ(KeyString(42), "0000000042");
  const TpchSnapshot db = Db().Snapshot();
  for (uint64_t row = 0; row < 20; ++row) {
    EXPECT_EQ(db.orders.strings("O_ORDERKEY").GetValue(row).size(), 10u);
    EXPECT_EQ(db.lineitem.strings("L_PARTKEY").GetValue(row).size(), 10u);
  }
}

TEST(TpchGen, ReferentialIntegrity) {
  const TpchSnapshot db = Db().Snapshot();
  // Every FK dictionary value must resolve in the PK dictionary.
  const auto check_all_match = [](const StringColumn& fk,
                                  const StringColumn& pk) {
    const std::vector<uint32_t> map = MapDictionary(fk, pk);
    for (uint32_t id : map) ASSERT_NE(id, kNoMatch);
  };
  check_all_match(db.lineitem.strings("L_ORDERKEY"),
                  db.orders.strings("O_ORDERKEY"));
  check_all_match(db.lineitem.strings("L_PARTKEY"),
                  db.part.strings("P_PARTKEY"));
  check_all_match(db.lineitem.strings("L_SUPPKEY"),
                  db.supplier.strings("S_SUPPKEY"));
  check_all_match(db.orders.strings("O_CUSTKEY"),
                  db.customer.strings("C_CUSTKEY"));
  check_all_match(db.customer.strings("C_NATIONKEY"),
                  db.nation.strings("N_NATIONKEY"));
  check_all_match(db.supplier.strings("S_NATIONKEY"),
                  db.nation.strings("N_NATIONKEY"));
  check_all_match(db.nation.strings("N_REGIONKEY"),
                  db.region.strings("R_REGIONKEY"));
}

TEST(TpchGen, DateCorrelationsHold) {
  const TpchDatabase& db = Db();
  const Table& l = db.lineitem;
  const auto& ship = l.dates("L_SHIPDATE");
  const auto& receipt = l.dates("L_RECEIPTDATE");
  for (uint64_t row = 0; row < l.num_rows(); ++row) {
    ASSERT_LT(ship[row], receipt[row]);
    ASSERT_LE(receipt[row], ship[row] + 31);
  }
}

TEST(TpchGen, StatusColumnsAreConsistent) {
  const TpchSnapshot db = Db().Snapshot();
  const StringColumn& status = db.orders.strings("O_ORDERSTATUS");
  std::set<std::string> seen;
  for (uint64_t row = 0; row < db.orders.num_rows(); ++row) {
    seen.insert(status.GetValue(row));
  }
  for (const std::string& s : seen) {
    EXPECT_TRUE(s == "F" || s == "O" || s == "P") << s;
  }
  EXPECT_GE(seen.size(), 2u);
}

TEST(TpchGen, DeterministicInSeed) {
  TpchOptions options;
  options.scale_factor = 0.001;
  const TpchDatabase a_db = GenerateTpch(options);
  const TpchDatabase b_db = GenerateTpch(options);
  const TpchSnapshot a = a_db.Snapshot();
  const TpchSnapshot b = b_db.Snapshot();
  ASSERT_EQ(a.lineitem.num_rows(), b.lineitem.num_rows());
  for (uint64_t row = 0; row < a.lineitem.num_rows(); row += 37) {
    EXPECT_EQ(a.lineitem.strings("L_COMMENT").GetValue(row),
              b.lineitem.strings("L_COMMENT").GetValue(row));
  }
}

TEST(TpchGen, ApplyFormatRebuildsEveryDictionary) {
  TpchOptions options;
  options.scale_factor = 0.001;
  TpchDatabase db = GenerateTpch(options);
  const size_t before = db.StringColumnBytes();
  db.ApplyFormat(DictFormat::kFcBlockRp12);
  for (Table* table : db.tables()) {
    for (size_t i = 0; i < table->num_string_columns(); ++i) {
      EXPECT_EQ(table->string_column(i).Snapshot()->format(),
                DictFormat::kFcBlockRp12);
    }
  }
  EXPECT_LT(db.StringColumnBytes(), before);  // rp compresses the defaults
}

// -- Queries -------------------------------------------------------------------

class TpchQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchQueryTest, RunsAndProducesSaneShape) {
  const QueryResult result = RunTpchQuery(Db(), GetParam());
  EXPECT_FALSE(result.column_names.empty());
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.size(), result.column_names.size());
  }
}

INSTANTIATE_TEST_SUITE_P(All22, TpchQueryTest, ::testing::Range(1, 23),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

TEST(TpchQueries, Q1AggregatesEveryFlagStatusPair) {
  const QueryResult q1 = RunTpchQuery(Db(), 1);
  // A/F, N/F, N/O, R/F as in the spec's qualification output.
  EXPECT_EQ(q1.rows.size(), 4u);
  // count_order column must sum to (almost) all lineitems.
  uint64_t total = 0;
  for (const auto& row : q1.rows) total += std::stoull(row.back());
  EXPECT_GT(total, Db().lineitem.num_rows() * 95 / 100);
  EXPECT_LE(total, Db().lineitem.num_rows());
}

TEST(TpchQueries, Q6RevenueIsPositive) {
  const QueryResult q6 = RunTpchQuery(Db(), 6);
  ASSERT_EQ(q6.rows.size(), 1u);
  EXPECT_GT(std::stod(q6.rows[0][0]), 0.0);
}

TEST(TpchQueries, Q13IncludesCustomersWithoutOrders) {
  const QueryResult q13 = RunTpchQuery(Db(), 13);
  uint64_t customers = 0;
  bool has_zero_bucket = false;
  for (const auto& row : q13.rows) {
    customers += std::stoull(row[1]);
    has_zero_bucket |= row[0] == "0";
  }
  EXPECT_EQ(customers, Db().customer.num_rows());
  EXPECT_TRUE(has_zero_bucket);
}

TEST(TpchQueries, Q14PercentageInRange) {
  const QueryResult q14 = RunTpchQuery(Db(), 14);
  ASSERT_EQ(q14.rows.size(), 1u);
  const double share = std::stod(q14.rows[0][0]);
  EXPECT_GE(share, 0.0);
  EXPECT_LE(share, 100.0);
}

TEST(TpchQueries, ResultsIndependentOfDictionaryFormat) {
  // The core correctness property of the whole system: swapping dictionary
  // formats is invisible to queries.
  TpchOptions options;
  options.scale_factor = 0.001;
  TpchDatabase db = GenerateTpch(options);

  std::vector<QueryResult> baseline;
  for (int q = 1; q <= kNumTpchQueries; ++q) {
    baseline.push_back(RunTpchQuery(db, q));
  }
  db.ApplyFormat(DictFormat::kFcBlockRp16);
  for (int q = 1; q <= kNumTpchQueries; ++q) {
    const QueryResult result = RunTpchQuery(db, q);
    ASSERT_EQ(result.rows, baseline[q - 1].rows) << "Q" << q;
  }
  db.ApplyFormat(DictFormat::kColumnBc);
  for (int q : {1, 3, 9, 13, 21}) {
    const QueryResult result = RunTpchQuery(db, q);
    ASSERT_EQ(result.rows, baseline[q - 1].rows) << "Q" << q;
  }
}

TEST(TpchQueries, ReproducesCommittedDigestsAtPoolWidths1And4) {
  const std::vector<uint64_t> expected = CommittedTpchDigests();
  ASSERT_EQ(expected.size(), static_cast<size_t>(kNumTpchQueries));
  const TpchDatabase db = DigestTpchDatabase();
  for (size_t width : {1, 4}) {
    SetPoolParallelism(width);
    for (int q = 1; q <= kNumTpchQueries; ++q) {
      EXPECT_EQ(AnswerDigest(RunTpchQuery(db, q)), expected[q - 1])
          << "Q" << q << " at width " << width;
    }
  }
  SetPoolParallelism(DefaultPoolParallelism());
}

TEST(TpchQueries, WorkloadTracesDictionaryUsage) {
  TpchOptions options;
  options.scale_factor = 0.001;
  TpchDatabase db = GenerateTpch(options);
  db.ResetUsage();
  for (int q = 1; q <= kNumTpchQueries; ++q) (void)RunTpchQuery(db, q);

  uint64_t extracts = 0, locates = 0, scans = 0;
  for (Table* table : db.tables()) {
    for (size_t i = 0; i < table->num_string_columns(); ++i) {
      const ColumnUsage usage =
          table->string_column(i).Snapshot()->TracedUsage(1.0);
      extracts += usage.num_extracts;
      locates += usage.num_locates;
      scans += usage.num_scans;
    }
  }
  EXPECT_GT(extracts, 0u);
  EXPECT_GT(locates, 0u);
  EXPECT_GT(scans, 0u);  // LIKE predicates and key joins read in order
}

}  // namespace
}  // namespace adict
