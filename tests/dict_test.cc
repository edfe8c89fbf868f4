// Tests for all 18 dictionary formats: extract/locate correctness against a
// reference implementation, edge cases, and format-specific behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "datasets/generators.h"
#include "dict/array_dict.h"
#include "dict/column_bc.h"
#include "dict/dictionary.h"
#include "dict/front_coding.h"
#include "util/rng.h"

namespace adict {
namespace {

/// Reference locate: std::lower_bound semantics per paper Definition 1.
LocateResult ReferenceLocate(const std::vector<std::string>& sorted,
                             std::string_view str) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), str);
  const uint32_t id = static_cast<uint32_t>(it - sorted.begin());
  return {id, it != sorted.end() && *it == str};
}

void ExpectDictionaryMatches(const Dictionary& dict,
                             const std::vector<std::string>& sorted,
                             Rng* rng) {
  ASSERT_EQ(dict.size(), sorted.size());

  // Every entry extracts exactly.
  for (uint32_t id = 0; id < dict.size(); ++id) {
    ASSERT_EQ(dict.Extract(id), sorted[id]) << "id " << id;
  }

  // ExtractInto appends (does not clear).
  if (!sorted.empty()) {
    std::string buf = "prefix:";
    dict.ExtractInto(0, &buf);
    EXPECT_EQ(buf, "prefix:" + sorted[0]);
  }

  // Locate finds every entry.
  for (uint32_t id = 0; id < dict.size(); ++id) {
    const LocateResult r = dict.Locate(sorted[id]);
    ASSERT_TRUE(r.found) << sorted[id];
    ASSERT_EQ(r.id, id) << sorted[id];
  }

  // Locate agrees with the reference on probes that are mostly misses:
  // mutations of existing strings, plus boundary probes.
  std::vector<std::string> probes = {"", "\x01", "zzzzzzzzzzz",
                                     std::string(1, '\x7f')};
  for (int i = 0; i < 200 && !sorted.empty(); ++i) {
    std::string probe = sorted[rng->Uniform(sorted.size())];
    switch (rng->Uniform(4)) {
      case 0:
        probe += static_cast<char>('a' + rng->Uniform(26));
        break;
      case 1:
        if (!probe.empty()) probe.pop_back();
        break;
      case 2:
        if (!probe.empty()) {
          probe[rng->Uniform(probe.size())] =
              static_cast<char>('!' + rng->Uniform(90));
        }
        break;
      default:
        probe = probe.substr(probe.size() / 2);
        break;
    }
    probes.push_back(std::move(probe));
  }
  for (const std::string& probe : probes) {
    const LocateResult expected = ReferenceLocate(sorted, probe);
    const LocateResult actual = dict.Locate(probe);
    ASSERT_EQ(actual.id, expected.id) << "probe '" << probe << "'";
    ASSERT_EQ(actual.found, expected.found) << "probe '" << probe << "'";
  }
}

class DictFormatTest : public ::testing::TestWithParam<DictFormat> {};

TEST_P(DictFormatTest, MaterialNumbers) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("mat", 2000, 1);
  auto dict = BuildDictionary(GetParam(), sorted);
  Rng rng(1);
  ExpectDictionaryMatches(*dict, sorted, &rng);
}

TEST_P(DictFormatTest, SourceLines) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("src", 1500, 2);
  auto dict = BuildDictionary(GetParam(), sorted);
  Rng rng(2);
  ExpectDictionaryMatches(*dict, sorted, &rng);
}

TEST_P(DictFormatTest, VariableLengthRandomStrings) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("rand2", 800, 3);
  auto dict = BuildDictionary(GetParam(), sorted);
  Rng rng(3);
  ExpectDictionaryMatches(*dict, sorted, &rng);
}

TEST_P(DictFormatTest, TinyDictionary) {
  const std::vector<std::string> sorted = {"AUTOMOBILE", "BUILDING",
                                           "FURNITURE", "HOUSEHOLD",
                                           "MACHINERY"};
  auto dict = BuildDictionary(GetParam(), sorted);
  Rng rng(4);
  ExpectDictionaryMatches(*dict, sorted, &rng);
}

TEST_P(DictFormatTest, SingleEntry) {
  const std::vector<std::string> sorted = {"only"};
  auto dict = BuildDictionary(GetParam(), sorted);
  EXPECT_EQ(dict->size(), 1u);
  EXPECT_EQ(dict->Extract(0), "only");
  EXPECT_EQ(dict->Locate("only"), (LocateResult{0, true}));
  EXPECT_EQ(dict->Locate("a"), (LocateResult{0, false}));
  EXPECT_EQ(dict->Locate("z"), (LocateResult{1, false}));
}

TEST_P(DictFormatTest, SharedPrefixHeavyData) {
  // Long runs of shared prefixes exercise front coding; sorted URLs.
  const std::vector<std::string> sorted = GenerateSurveyDataset("url", 1200, 5);
  auto dict = BuildDictionary(GetParam(), sorted);
  Rng rng(5);
  ExpectDictionaryMatches(*dict, sorted, &rng);
}

TEST_P(DictFormatTest, BlockBoundarySizes) {
  // Sizes around the fc (16) and column bc (64) block sizes.
  for (size_t n : {15u, 16u, 17u, 63u, 64u, 65u, 128u}) {
    const std::vector<std::string> sorted = GenerateSurveyDataset("engl", n, n);
    auto dict = BuildDictionary(GetParam(), sorted);
    Rng rng(n);
    ExpectDictionaryMatches(*dict, sorted, &rng);
  }
}

TEST_P(DictFormatTest, MemoryBytesIsPositiveAndPlausible) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("mat", 1000, 7);
  auto dict = BuildDictionary(GetParam(), sorted);
  const size_t memory = dict->MemoryBytes();
  EXPECT_GT(memory, 0u);
  // No format should need more than ~30x the raw data on this input.
  EXPECT_LT(memory, 30 * RawDataBytes(sorted) + (1 << 16));
}

TEST_P(DictFormatTest, FormatAccessorRoundtrips) {
  const std::vector<std::string> sorted = {"a", "b", "c"};
  auto dict = BuildDictionary(GetParam(), sorted);
  EXPECT_EQ(dict->format(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, DictFormatTest,
    ::testing::ValuesIn(AllDictFormats().begin(), AllDictFormats().end()),
    [](const ::testing::TestParamInfo<DictFormat>& info) {
      std::string name(DictFormatName(info.param));
      std::replace(name.begin(), name.end(), ' ', '_');
      return name;
    });

// -- Format-specific behaviour ------------------------------------------------

TEST(RawArrayDict, ViewIsZeroCopy) {
  const std::vector<std::string> sorted = {"alpha", "beta", "gamma"};
  auto dict = RawArrayDict::Build(sorted);
  EXPECT_EQ(dict->View(1), "beta");
}

TEST(FixedArrayDict, SlotWidthIsLongestString) {
  const std::vector<std::string> sorted = {"ab", "abcdef", "b"};
  auto dict = FixedArrayDict::Build(sorted);
  EXPECT_EQ(dict->slot_width(), 6u);
  // Memory is #strings * width plus the object header.
  EXPECT_GE(dict->MemoryBytes(), 3u * 6u);
  EXPECT_LE(dict->MemoryBytes(), 3u * 6u + sizeof(FixedArrayDict));
}

TEST(FixedArrayDict, EntryThatFillsItsSlotHasNoPadding) {
  const std::vector<std::string> sorted = {"a", "abcdef", "b"};
  auto dict = FixedArrayDict::Build(sorted);
  ASSERT_EQ(dict->slot_width(), 6u);
  EXPECT_EQ(dict->Extract(1), "abcdef");
  EXPECT_EQ(dict->Extract(2), "b");  // the slot after the full one
  EXPECT_EQ(dict->Locate("abcdef").id, 1u);
  EXPECT_TRUE(dict->Locate("abcdef").found);
  EXPECT_FALSE(dict->Locate("abcde").found);
}

TEST(FixedArrayDict, EmptyEntryIsAllPadding) {
  const std::vector<std::string> sorted = {"", "ab", "abc"};
  auto dict = FixedArrayDict::Build(sorted);
  EXPECT_EQ(dict->Extract(0), "");
  EXPECT_EQ(dict->Extract(1), "ab");
  const LocateResult empty = dict->Locate("");
  EXPECT_TRUE(empty.found);
  EXPECT_EQ(empty.id, 0u);
  std::vector<std::string> scanned;
  dict->Scan(0, dict->size(), [&](uint32_t, std::string_view value) {
    scanned.emplace_back(value);
  });
  EXPECT_EQ(scanned, sorted);
}

TEST(FixedArrayDict, SmallestForTinyLowCardinalityColumns) {
  // The paper notes array fixed wins for the numerous tiny dictionaries
  // (e.g. C_MKTSEGMENT) thanks to its zero pointer overhead.
  const std::vector<std::string> sorted = {"AUTOMOBILE", "BUILDING",
                                           "FURNITURE", "HOUSEHOLD",
                                           "MACHINERY"};
  auto fixed = BuildDictionary(DictFormat::kArrayFixed, sorted);
  auto array = BuildDictionary(DictFormat::kArray, sorted);
  EXPECT_LT(fixed->MemoryBytes(), array->MemoryBytes());
}

TEST(ColumnBc, WinsOnFixedLengthStructuredData) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("hash", 3000, 8);
  auto column_bc = BuildDictionary(DictFormat::kColumnBc, sorted);
  auto array = BuildDictionary(DictFormat::kArray, sorted);
  // Hex payload is 4 bits per char; column bc must clearly beat the raw
  // array (paper Figure 4).
  EXPECT_LT(column_bc->MemoryBytes(), array->MemoryBytes() * 2 / 3);
}

TEST(ColumnBc, DegeneratesOnVariableLengthData) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("src", 1500, 9);
  auto column_bc = BuildDictionary(DictFormat::kColumnBc, sorted);
  // Larger than the raw data itself (paper Figure 3: ~3.5x on src).
  EXPECT_GT(column_bc->MemoryBytes(), RawDataBytes(sorted));
}

TEST(FcBlock, SmallerThanArrayOnPrefixHeavyData) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("url", 4000, 10);
  auto fc = BuildDictionary(DictFormat::kFcBlock, sorted);
  auto array = BuildDictionary(DictFormat::kArray, sorted);
  EXPECT_LT(fc->MemoryBytes(), array->MemoryBytes());
}

TEST(FcBlockDf, LargerButComparableToFcBlock) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("url", 4000, 11);
  auto fc = BuildDictionary(DictFormat::kFcBlock, sorted);
  auto df = BuildDictionary(DictFormat::kFcBlockDf, sorted);
  // Difference-to-first stores longer suffixes: bigger, but not wildly so.
  EXPECT_GE(df->MemoryBytes(), fc->MemoryBytes());
  EXPECT_LT(df->MemoryBytes(), fc->MemoryBytes() * 2);
}

TEST(FcBlock, HandlesPrefixesBeyondHeaderLimit) {
  // Common prefixes longer than 255 must be truncated losslessly.
  std::vector<std::string> sorted;
  const std::string base(400, 'p');
  for (int i = 0; i < 40; ++i) {
    sorted.push_back(base + "x" + std::to_string(100 + i));
  }
  sorted = SortedUnique(std::move(sorted));
  for (DictFormat format : {DictFormat::kFcBlock, DictFormat::kFcBlockDf,
                            DictFormat::kFcBlockHu}) {
    auto dict = BuildDictionary(format, sorted);
    Rng rng(12);
    ExpectDictionaryMatches(*dict, sorted, &rng);
  }
}

TEST(RePairDicts, SmallestOnRedundantText) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("src", 2000, 13);
  auto rp = BuildDictionary(DictFormat::kFcBlockRp16, sorted);
  auto array = BuildDictionary(DictFormat::kArray, sorted);
  EXPECT_LT(rp->MemoryBytes(), array->MemoryBytes() / 2);
}

TEST(Dictionary, IsSortedUniqueDetectsViolations) {
  EXPECT_TRUE(IsSortedUnique(std::vector<std::string>{}));
  EXPECT_TRUE(IsSortedUnique(std::vector<std::string>{"a"}));
  EXPECT_TRUE(IsSortedUnique(std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(IsSortedUnique(std::vector<std::string>{"b", "a"}));
  EXPECT_FALSE(IsSortedUnique(std::vector<std::string>{"a", "a"}));
}

TEST(Dictionary, FormatTaxonomy) {
  int array_count = 0, fc_count = 0;
  for (DictFormat f : AllDictFormats()) {
    EXPECT_NE(IsArrayClass(f), IsFrontCodingClass(f) || f == DictFormat::kColumnBc)
        << DictFormatName(f);
    array_count += IsArrayClass(f);
    fc_count += IsFrontCodingClass(f);
  }
  EXPECT_EQ(array_count, 8);
  EXPECT_EQ(fc_count, 9);
  EXPECT_EQ(array_count + fc_count + 1, kNumDictFormats);
}

TEST(Dictionary, CommonPrefixLength) {
  EXPECT_EQ(CommonPrefixLength("", ""), 0u);
  EXPECT_EQ(CommonPrefixLength("abc", "abd"), 2u);
  EXPECT_EQ(CommonPrefixLength("abc", "abc"), 3u);
  EXPECT_EQ(CommonPrefixLength("abc", "abcdef"), 3u);
  EXPECT_EQ(CommonPrefixLength("xyz", "abc"), 0u);
}

}  // namespace
}  // namespace adict
