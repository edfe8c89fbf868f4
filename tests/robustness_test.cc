// End-to-end robustness: guarded dictionary builds degrading through the
// format chain under injected faults, decision-log fallback records, and
// fail-point-driven persistence errors.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/build_guard.h"
#include "core/compression_manager.h"
#include "datasets/generators.h"
#include "dict/serialization.h"
#include "obs/obs.h"
#include "store/delta.h"
#include "store/string_column.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace adict {
namespace {

using failpoint::Spec;

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisableAll();
    obs::SetEnabled(true);
    obs::ResetForTest();
  }
  void TearDown() override { failpoint::DisableAll(); }

  static uint64_t CounterValue(const char* name) {
    return obs::Metrics().GetCounter(name)->value();
  }
};

std::vector<std::string> Strings() {
  return GenerateSurveyDataset("mat", 600, 21);
}

// ---------------------------------------------------------------------------
// BuildDictionaryGuarded: the degradation chain.

TEST_F(RobustnessTest, CleanBuildTakesNoFallback) {
  const std::vector<std::string> sorted = Strings();
  StatusOr<GuardedBuildResult> built =
      BuildDictionaryGuarded({DictFormat::kFcBlockRp12}, sorted);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->format, DictFormat::kFcBlockRp12);
  EXPECT_EQ(built->num_fallbacks, 0);
  EXPECT_EQ(CounterValue("dict.build.fallback"), 0u);
}

TEST_F(RobustnessTest, RePairFailureDegradesToFcBlock) {
  // A failed Re-Pair grammar build must land on blockwise front coding:
  // the next chain entry has no Re-Pair codec, so the fault cannot recur.
  failpoint::Enable("repair.build", Spec::Always());
  const std::vector<std::string> sorted = Strings();
  StatusOr<GuardedBuildResult> built =
      BuildDictionaryGuarded({DictFormat::kFcBlockRp12}, sorted);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->format, DictFormat::kFcBlock);
  EXPECT_EQ(built->num_fallbacks, 1);
  EXPECT_EQ(CounterValue("dict.build.fallback"), 1u);
  EXPECT_GE(failpoint::HitCount("repair.build"), 1u);
  for (uint32_t id = 0; id < built->dict->size(); id += 29) {
    ASSERT_EQ(built->dict->Extract(id), sorted[id]);
  }
}

TEST_F(RobustnessTest, FrontCodingFailureDegradesToArray) {
  // With every front-coding-class build failing, both the chosen format and
  // the fc block fallback die; the chain must end at the uncompressed array.
  failpoint::Enable("fc.build", Spec::Always());
  const std::vector<std::string> sorted = Strings();
  StatusOr<GuardedBuildResult> built =
      BuildDictionaryGuarded({DictFormat::kFcBlockHu}, sorted);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->format, DictFormat::kArray);
  EXPECT_EQ(built->num_fallbacks, 2);
  EXPECT_EQ(CounterValue("dict.build.fallback"), 2u);
}

TEST_F(RobustnessTest, ValidationFailureAlsoDegrades) {
  // The first build succeeds but fails post-build validation; the guard
  // must treat that exactly like a build failure.
  failpoint::Enable("dict.validate", Spec::First(1));
  const std::vector<std::string> sorted = Strings();
  StatusOr<GuardedBuildResult> built =
      BuildDictionaryGuarded({DictFormat::kArrayBc}, sorted);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->format, DictFormat::kFcBlock);
  EXPECT_EQ(built->num_fallbacks, 1);
}

TEST_F(RobustnessTest, ExhaustedChainReturnsErrorNotAbort) {
  failpoint::Enable("dict.build", Spec::Always());
  const std::vector<std::string> sorted = Strings();
  const StatusOr<GuardedBuildResult> built =
      BuildDictionaryGuarded({DictFormat::kFcBlock}, sorted);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInternal);
  EXPECT_EQ(CounterValue("dict.build.exhausted"), 1u);
  // chosen(kFcBlock) -> kArray: deduped chain of 2, so 1 fallback step.
  EXPECT_EQ(CounterValue("dict.build.fallback"), 1u);
}

TEST_F(RobustnessTest, UnsortedInputFailsPreconditionsEverywhere) {
  // Precondition violations hold for every format in the chain, so the
  // guard reports failure instead of building a dictionary over garbage.
  const std::vector<std::string> unsorted = {"b", "a", "c"};
  const StatusOr<GuardedBuildResult> built =
      BuildDictionaryGuarded({DictFormat::kArray}, unsorted);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RobustnessTest, SizeMispredictionTriggersFallback) {
  // An absurdly small prediction with zero tolerance slack fails the size
  // check for the chosen format; fallbacks are exempt (the prediction was
  // never about them), so the build lands on the next format.
  const std::vector<std::string> sorted = Strings();
  GuardOptions options;
  options.size_tolerance = 1.0;
  options.size_slack_bytes = 0;
  StatusOr<GuardedBuildResult> built = BuildDictionaryGuarded(
      {.format = DictFormat::kArrayHu, .predicted_dict_bytes = 1}, sorted,
      options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->format, DictFormat::kFcBlock);
  EXPECT_EQ(built->num_fallbacks, 1);
}

TEST_F(RobustnessTest, ValidateDictionaryCatchesWrongContent) {
  // Validation compares against the strings the dictionary is *supposed*
  // to hold; a dictionary built over different content must fail.
  // The last entry is always probed by the evenly-spread sample, and
  // extending it keeps `other` sorted and unique.
  const std::vector<std::string> sorted = Strings();
  std::vector<std::string> other = sorted;
  other.back() += "-tampered";
  auto dict = BuildDictionary(DictFormat::kFcBlock, other);
  const Status status = ValidateDictionary(*dict, sorted, GuardOptions{});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Decision-log integration.

TEST_F(RobustnessTest, FallbackStepsAreRecordedInDecisionLog) {
  obs::DecisionRecord record;
  record.column_id = "orders.status";
  record.chosen_format_id = static_cast<int>(DictFormat::kFcBlockRp16);
  record.chosen_format_name = std::string(DictFormatName(DictFormat::kFcBlockRp16));
  const uint64_t sequence = obs::Decisions().Push(std::move(record));

  failpoint::Enable("repair.build", Spec::Always());
  const std::vector<std::string> sorted = Strings();
  StatusOr<GuardedBuildResult> built = BuildDictionaryGuarded(
      {.format = DictFormat::kFcBlockRp16, .log_sequence = sequence}, sorted);
  ASSERT_TRUE(built.ok());

  const std::vector<obs::DecisionRecord> snapshot =
      obs::Decisions().Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  ASSERT_EQ(snapshot[0].fallbacks.size(), 1u);
  const obs::FallbackEvent& event = snapshot[0].fallbacks[0];
  EXPECT_EQ(event.from_format_id, static_cast<int>(DictFormat::kFcBlockRp16));
  EXPECT_EQ(event.to_format_id, static_cast<int>(DictFormat::kFcBlock));
  EXPECT_NE(event.reason.find("repair.build"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MergeDeltaAdaptive under injected faults.

struct MergeFixture {
  std::vector<std::string> expected_rows;
  StringColumn main;
  DeltaColumn delta;

  static MergeFixture Make() {
    MergeFixture f;
    Rng rng(17);
    const std::vector<std::string> pool = GenerateSurveyDataset("url", 200, 5);
    for (int i = 0; i < 2000; ++i) {
      f.expected_rows.push_back(pool[rng.Uniform(pool.size())]);
    }
    f.main = StringColumn::FromValues(f.expected_rows);
    for (int i = 0; i < 100; ++i) {
      std::string value = "delta-" + std::to_string(rng.Uniform(50));
      f.expected_rows.push_back(value);
      f.delta.Append(std::move(value));
    }
    return f;
  }

  void CheckRows(const StringColumn& merged) const {
    ASSERT_EQ(merged.num_rows(), expected_rows.size());
    for (size_t row = 0; row < expected_rows.size(); row += 37) {
      ASSERT_EQ(merged.GetValue(row), expected_rows[row]) << "row " << row;
    }
  }
};

TEST_F(RobustnessTest, MergeSurvivesBuildFaultAndRecordsFallback) {
  MergeFixture f = MergeFixture::Make();
  CompressionManager manager;
  failpoint::Enable("dict.build", Spec::First(1));
  const StringColumn merged =
      MergeDeltaAdaptive(f.main, f.delta, manager, 60.0, "robust.merge");
  f.CheckRows(merged);
  EXPECT_EQ(CounterValue("dict.build.fallback"), 1u);

  // The decision record for this merge carries the degradation step.
  const std::vector<obs::DecisionRecord> snapshot =
      obs::Decisions().Snapshot();
  ASSERT_FALSE(snapshot.empty());
  const obs::DecisionRecord& record = snapshot.back();
  EXPECT_EQ(record.column_id, "robust.merge");
  ASSERT_EQ(record.fallbacks.size(), 1u);
  EXPECT_EQ(record.fallbacks[0].from_format_id, record.chosen_format_id);
  // The actual built size is still recorded against the prediction.
  EXPECT_TRUE(record.has_actual());
}

TEST_F(RobustnessTest, MergeSurvivesFormatDecisionFault) {
  MergeFixture f = MergeFixture::Make();
  CompressionManager manager;
  failpoint::Enable("merge.choose_format", Spec::Always());
  const StringColumn merged =
      MergeDeltaAdaptive(f.main, f.delta, manager, 60.0, "robust.decision");
  f.CheckRows(merged);
  // The merge fell back to the default mid-point format.
  EXPECT_EQ(merged.format(), DictFormat::kFcBlock);
  EXPECT_EQ(CounterValue("store.merge.decision_fallback"), 1u);
  // No decision was logged (the manager never ran).
  EXPECT_TRUE(obs::Decisions().Snapshot().empty());
}

TEST_F(RobustnessTest, MergeWithProbabilisticFaultsStaysConsistent) {
  // Chaos-style: every cold-path fault site fires with some probability
  // over repeated merges; row content must survive every combination.
  // (dict.validate is left out: it can fail the array fallback too, which
  // by design escalates past the chain.)
  failpoint::SetSeed(123);
  failpoint::Enable("repair.build", Spec::Prob(0.5));
  failpoint::Enable("fc.build", Spec::Prob(0.3));
  MergeFixture f = MergeFixture::Make();
  CompressionManager manager;
  // The fixture's initial delta is the first merge under fire.
  StringColumn column = MergeDeltaAdaptive(f.main, f.delta, manager, 60.0);
  for (int round = 0; round < 6; ++round) {
    DeltaColumn delta;
    for (int i = 0; i < 20; ++i) {
      std::string value = "chaos-" + std::to_string(round) + "-" +
                          std::to_string(i % 7);
      f.expected_rows.push_back(value);
      delta.Append(std::move(value));
    }
    column = MergeDeltaAdaptive(column, delta, manager, 60.0);
    ASSERT_EQ(column.num_rows(), f.expected_rows.size());
  }
  for (size_t row = 0; row < f.expected_rows.size(); row += 41) {
    ASSERT_EQ(column.GetValue(row), f.expected_rows[row]) << "row " << row;
  }
}

// ---------------------------------------------------------------------------
// Fail points on the persistence paths.

TEST_F(RobustnessTest, InjectedSaveFileFaultSurfacesAsIoError) {
  const std::vector<std::string> sorted = {"a", "b", "c"};
  auto dict = BuildDictionary(DictFormat::kArray, sorted);
  failpoint::Enable("dict.save.file", Spec::Always());
  const std::string path = ::testing::TempDir() + "/adict_failpoint.bin";
  const Status status = SaveDictionaryToFile(*dict, path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST_F(RobustnessTest, InjectedLoadFaultSurfacesAsCorruption) {
  const std::vector<std::string> sorted = {"a", "b", "c"};
  auto dict = BuildDictionary(DictFormat::kArray, sorted);
  std::vector<uint8_t> buffer;
  SaveDictionary(*dict, &buffer);
  failpoint::Enable("dict.load", Spec::Nth(1));
  StatusOr<std::unique_ptr<Dictionary>> first = LoadDictionary(buffer);
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(CounterValue("dict.load.corruption"), 1u);
  // The injected fault was transient; the next load succeeds.
  StatusOr<std::unique_ptr<Dictionary>> second = LoadDictionary(buffer);
  EXPECT_TRUE(second.ok());
}

}  // namespace
}  // namespace adict
