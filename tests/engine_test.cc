// Tests for the query engine: dictionary-aware predicates, joins, indexes.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "engine/join.h"
#include "engine/predicates.h"
#include "engine/result.h"
#include "store/string_column.h"
#include "store/table.h"

namespace adict {
namespace {

StringColumn MakeColumn(std::vector<std::string> values,
                        DictFormat format = DictFormat::kFcInline) {
  return StringColumn::FromValues(values, format);
}

class PredicateFormatTest : public ::testing::TestWithParam<DictFormat> {};

TEST_P(PredicateFormatTest, EqIds) {
  const StringColumn col = MakeColumn(
      {"cherry", "apple", "banana", "apple", "fig"}, GetParam());
  // Dictionary: apple banana cherry fig.
  const IdRange apple = EqIds(col, "apple");
  EXPECT_EQ(apple.begin, 0u);
  EXPECT_EQ(apple.end, 1u);
  EXPECT_TRUE(EqIds(col, "grape").empty());
}

TEST_P(PredicateFormatTest, RangePredicates) {
  const StringColumn col =
      MakeColumn({"a", "b", "c", "d", "e"}, GetParam());
  EXPECT_EQ(GreaterIds(col, "c").begin, 2u);          // >= c
  EXPECT_EQ(GreaterIds(col, "c", false).begin, 3u);   // > c
  EXPECT_EQ(LessIds(col, "c").end, 3u);               // <= c
  EXPECT_EQ(LessIds(col, "c", false).end, 2u);        // < c
  const IdRange between = BetweenIds(col, "b", "d");
  EXPECT_EQ(between.begin, 1u);
  EXPECT_EQ(between.end, 4u);
  // Boundaries not in the dictionary.
  EXPECT_EQ(GreaterIds(col, "bb").begin, 2u);
  EXPECT_EQ(LessIds(col, "bb").end, 2u);
}

TEST_P(PredicateFormatTest, PrefixIds) {
  const StringColumn col = MakeColumn(
      {"car", "card", "care", "cat", "dog", "cab"}, GetParam());
  // Dictionary: cab car card care cat dog.
  const IdRange car = PrefixIds(col, "car");
  EXPECT_EQ(car.begin, 1u);
  EXPECT_EQ(car.end, 4u);
  const IdRange ca = PrefixIds(col, "ca");
  EXPECT_EQ(ca.begin, 0u);
  EXPECT_EQ(ca.end, 5u);
  EXPECT_TRUE(PrefixIds(col, "zebra").empty());

  // Prefixes ending in 0xff, as a client may send: the run ends at the
  // prefix with its trailing 0xff bytes dropped and its last byte left
  // incremented, and a prefix of only 0xff bytes runs to the end.
  const StringColumn bytes = MakeColumn(
      {"a", "a\xff", "a\xff\x01", "a\xff\xff", "b", "ba", "b\xff", "c", "zz",
       "zz\xff", "zz\xffz", "zz\xff\xfe", "\xff", "\xff\x01", "\xff\xff"},
      GetParam());
  // Dictionary (unsigned byte order): a a\xff a\xff\x01 a\xff\xff b ba
  // b\xff c zz zz\xff zz\xffz zz\xff\xfe \xff \xff\x01 \xff\xff.
  const struct {
    std::string_view prefix;
    uint32_t begin, end;
  } cases[] = {{"\xff", 12, 15}, {"a\xff", 1, 4}, {"b\xff", 6, 7},
               {"zz\xff", 9, 12}};
  for (const auto& c : cases) {
    const IdRange range = PrefixIds(bytes, c.prefix);
    EXPECT_EQ(range.begin, c.begin) << c.prefix;
    EXPECT_EQ(range.end, c.end) << c.prefix;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, PredicateFormatTest,
    ::testing::ValuesIn(AllDictFormats().begin(), AllDictFormats().end()),
    [](const ::testing::TestParamInfo<DictFormat>& info) {
      std::string name(DictFormatName(info.param));
      std::replace(name.begin(), name.end(), ' ', '_');
      return name;
    });

TEST(Predicates, ContainsIds) {
  const StringColumn col =
      MakeColumn({"forest green", "dark green", "navy blue", "green"});
  const std::vector<bool> flags = ContainsIds(col, "green");
  // Dictionary: "dark green", "forest green", "green", "navy blue".
  EXPECT_EQ(flags, (std::vector<bool>{true, true, true, false}));
}

TEST(Predicates, ContainsAllIdsRespectsOrder) {
  const StringColumn col = MakeColumn(
      {"special handling requests", "requests special", "special requests"});
  const std::string_view needles[] = {"special", "requests"};
  const std::vector<bool> flags = ContainsAllIds(col, needles);
  // Dictionary order: "requests special", "special handling requests",
  // "special requests". Only the latter two have the needles in order.
  EXPECT_EQ(flags, (std::vector<bool>{false, true, true}));
}

TEST(Predicates, InIds) {
  const StringColumn col = MakeColumn({"MAIL", "SHIP", "RAIL", "AIR"});
  const std::string_view values[] = {"MAIL", "SHIP", "TRUCK"};
  const std::vector<bool> flags = InIds(col, values);
  // Dictionary: AIR MAIL RAIL SHIP.
  EXPECT_EQ(flags, (std::vector<bool>{false, true, false, true}));
}

TEST(Predicates, CountLocatesAndExtracts) {
  Table table("predicates");
  table.AddStringColumn("col", MakeColumn({"a", "b", "c"}));
  const TableSnapshot snapshot = table.Snapshot();
  const StringColumn& col = snapshot.strings("col");
  table.string_column(0).ResetUsage();
  (void)EqIds(col, "b");
  EXPECT_EQ(col.TracedUsage(1).num_locates, 1u);
  (void)ContainsIds(col, "a");
  EXPECT_EQ(col.TracedUsage(1).num_scans, 3u);  // one per dictionary entry
  EXPECT_EQ(col.TracedUsage(1).num_extracts, 0u);
}

TEST(Join, MapDictionaryFindsMatches) {
  const StringColumn fk = MakeColumn({"k2", "k1", "k9", "k1"});
  const StringColumn pk = MakeColumn({"k1", "k2", "k3"});
  const std::vector<uint32_t> map = MapDictionary(fk, pk);
  // fk dictionary: k1 k2 k9.
  ASSERT_EQ(map.size(), 3u);
  EXPECT_EQ(pk.ExtractId(map[0]), "k1");
  EXPECT_EQ(pk.ExtractId(map[1]), "k2");
  EXPECT_EQ(map[2], kNoMatch);
}

TEST(Join, IdIndexGroupsRows) {
  const StringColumn col = MakeColumn({"x", "y", "x", "x", "z"});
  const IdIndex index(col);
  // Dictionary: x y z.
  const auto x_rows = index.Rows(0);
  EXPECT_EQ(std::vector<uint32_t>(x_rows.begin(), x_rows.end()),
            (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_EQ(index.Rows(1).size(), 1u);
  EXPECT_EQ(index.UniqueRow(2), 4u);
  EXPECT_EQ(index.Rows(99).size(), 0u);
  EXPECT_EQ(index.UniqueRow(99), kNoMatch);
}

TEST(Result, ToStringTruncates) {
  QueryResult result;
  result.column_names = {"a", "b"};
  for (int i = 0; i < 20; ++i) result.AddRow({Cell(i), Cell(i * 2)});
  const std::string s = result.ToString(3);
  EXPECT_NE(s.find("a | b"), std::string::npos);
  EXPECT_NE(s.find("(17 more rows)"), std::string::npos);
}

TEST(Result, CellFormatsMoney) {
  EXPECT_EQ(Cell(3.14159), "3.14");
  EXPECT_EQ(Cell(static_cast<int64_t>(42)), "42");
  EXPECT_EQ(Cell(std::string("abc")), "abc");
}

}  // namespace
}  // namespace adict
