// Tests for the selection-vector scan helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/scan.h"
#include "util/rng.h"

namespace adict {
namespace {

StringColumn SegmentColumn() {
  // Rows over a 5-value domain, fixed pattern.
  static const char* kValues[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                  "HOUSEHOLD", "MACHINERY"};
  std::vector<std::string> values;
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) values.emplace_back(kValues[rng.Uniform(5)]);
  return StringColumn::FromValues(values);
}

std::vector<uint32_t> NaiveSelect(const StringColumn& column,
                                  const std::string& value) {
  std::vector<uint32_t> rows;
  for (uint64_t row = 0; row < column.num_rows(); ++row) {
    if (column.GetValue(row) == value) rows.push_back(row);
  }
  return rows;
}

TEST(SelectRows, EqualityMatchesNaive) {
  const StringColumn column = SegmentColumn();
  const IdRange building = EqIds(column, "BUILDING");
  EXPECT_EQ(SelectRows(column, building), NaiveSelect(column, "BUILDING"));
}

TEST(SelectRows, EmptyRangeSelectsNothing) {
  const StringColumn column = SegmentColumn();
  EXPECT_TRUE(SelectRows(column, EqIds(column, "CLOTHING")).empty());
  EXPECT_TRUE(SelectRows(column, IdRange{}).empty());
}

TEST(SelectRows, RangePredicateSelectsUnion) {
  const StringColumn column = SegmentColumn();
  const IdRange ge = GreaterIds(column, "FURNITURE");  // FURNITURE..MACHINERY
  const std::vector<uint32_t> rows = SelectRows(column, ge);
  std::vector<uint32_t> expected;
  for (const char* v : {"FURNITURE", "HOUSEHOLD", "MACHINERY"}) {
    const std::vector<uint32_t> part = NaiveSelect(column, v);
    expected.insert(expected.end(), part.begin(), part.end());
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(rows, expected);
}

TEST(SelectRows, FlagVariantMatchesRangeVariant) {
  const StringColumn column = SegmentColumn();
  std::vector<bool> flags(column.num_distinct(), false);
  const IdRange le = LessIds(column, "BUILDING");
  for (uint32_t id = le.begin; id < le.end; ++id) flags[id] = true;
  EXPECT_EQ(SelectRows(column, flags), SelectRows(column, le));
}

TEST(CountRows, MatchesSelectSize) {
  const StringColumn column = SegmentColumn();
  for (const char* value : {"AUTOMOBILE", "HOUSEHOLD", "ZZZ"}) {
    const IdRange range = EqIds(column, value);
    EXPECT_EQ(CountRows(column, range), SelectRows(column, range).size());
  }
}

TEST(CountRows, WholeDomainCountsAllRows) {
  const StringColumn column = SegmentColumn();
  EXPECT_EQ(CountRows(column, IdRange{0, column.num_distinct()}),
            column.num_rows());
}

}  // namespace
}  // namespace adict
