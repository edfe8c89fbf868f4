// Tests for the sequential Scan API across all dictionary formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "datasets/generators.h"
#include "dict/dictionary.h"
#include "util/rng.h"

namespace adict {
namespace {

class ScanFormatTest : public ::testing::TestWithParam<DictFormat> {};

TEST_P(ScanFormatTest, FullScanMatchesExtract) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("url", 700, 1);
  auto dict = BuildDictionary(GetParam(), sorted);
  uint32_t expected_id = 0;
  dict->Scan(0, dict->size(), [&](uint32_t id, std::string_view value) {
    ASSERT_EQ(id, expected_id++);
    ASSERT_EQ(value, sorted[id]);
  });
  EXPECT_EQ(expected_id, dict->size());
}

TEST_P(ScanFormatTest, PartialRangesMatchExtract) {
  const std::vector<std::string> sorted = GenerateSurveyDataset("mat", 300, 2);
  auto dict = BuildDictionary(GetParam(), sorted);
  Rng rng(3);
  for (int round = 0; round < 30; ++round) {
    const uint32_t first = static_cast<uint32_t>(rng.Uniform(dict->size()));
    const uint32_t count =
        static_cast<uint32_t>(rng.Uniform(dict->size() - first + 1));
    uint32_t seen = 0;
    dict->Scan(first, count, [&](uint32_t id, std::string_view value) {
      ASSERT_GE(id, first);
      ASSERT_LT(id, first + count);
      ASSERT_EQ(value, sorted[id]);
      ++seen;
    });
    ASSERT_EQ(seen, count);
  }
}

TEST_P(ScanFormatTest, EmptyRangeCallsNothing) {
  const std::vector<std::string> sorted = {"a", "b", "c"};
  auto dict = BuildDictionary(GetParam(), sorted);
  dict->Scan(1, 0, [](uint32_t, std::string_view) { FAIL(); });
}

TEST_P(ScanFormatTest, MidBlockStartReconstructsCorrectly) {
  // Starting inside a front-coded block must still yield correct values
  // (predecessor chains have to be replayed internally).
  const std::vector<std::string> sorted = GenerateSurveyDataset("url", 100, 4);
  auto dict = BuildDictionary(GetParam(), sorted);
  for (uint32_t first : {1u, 7u, 15u, 17u, 33u}) {
    dict->Scan(first, 3, [&](uint32_t id, std::string_view value) {
      ASSERT_EQ(value, sorted[id]);
    });
  }
}

TEST_P(ScanFormatTest, CursorSeeksToEveryIdOfTheFirstBlocksAndTheLast) {
  // Three front coding blocks of 16, the seam between column bc's first
  // two blocks of 128, then a jump to the last ID; the seeks go back and
  // forth through one cursor.
  const std::vector<std::string> sorted = GenerateSurveyDataset("url", 200, 5);
  auto dict = BuildDictionary(GetParam(), sorted);
  const std::unique_ptr<Dictionary::Cursor> cursor = dict->NewCursor();
  std::vector<uint32_t> seeks(48);
  std::iota(seeks.begin(), seeks.end(), 0);
  for (uint32_t id = 112; id < 144; ++id) seeks.push_back(id);
  for (const uint32_t id : seeks) {
    cursor->Seek(id);
    for (uint32_t next = id; next < std::min<uint32_t>(id + 20, dict->size());
         ++next) {
      ASSERT_EQ(cursor->Next(), sorted[next])
          << "seek " << id << " next " << next;
    }
  }
  const uint32_t last = dict->size() - 1;
  cursor->Seek(last);
  EXPECT_EQ(cursor->Next(), sorted[last]);
  cursor->Seek(0);
  EXPECT_EQ(cursor->Next(), sorted[0]);
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, ScanFormatTest,
    ::testing::ValuesIn(AllDictFormats().begin(), AllDictFormats().end()),
    [](const ::testing::TestParamInfo<DictFormat>& info) {
      std::string name(DictFormatName(info.param));
      std::replace(name.begin(), name.end(), ' ', '_');
      return name;
    });

}  // namespace
}  // namespace adict
