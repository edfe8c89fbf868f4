#include "store/delta.h"

#include <algorithm>

#include "core/build_guard.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace adict {

size_t DeltaColumn::MemoryBytes() const {
  size_t bytes = sizeof(*this) + rows_.size() * sizeof(uint32_t) +
                 values_.size() * sizeof(std::string_view);
  for (const auto& [value, id] : value_to_id_) {
    bytes += value.size() + sizeof(uint32_t) + 32;  // node overhead estimate
  }
  return bytes;
}

namespace {

DomainEncoded MergeEncode(const StringColumn& main, const DeltaColumn& delta) {
  ADICT_TRACE_SPAN("merge.encode");
  // Union of the two dictionaries.
  const std::vector<std::string> main_values = main.MaterializeDictionary();
  std::vector<std::string> delta_values;
  delta_values.reserve(delta.num_distinct());
  for (std::string_view v : delta.distinct_values()) {
    delta_values.emplace_back(v);
  }
  std::sort(delta_values.begin(), delta_values.end());

  DomainEncoded encoded;
  encoded.dictionary.reserve(main_values.size() + delta_values.size());
  std::set_union(main_values.begin(), main_values.end(), delta_values.begin(),
                 delta_values.end(), std::back_inserter(encoded.dictionary));

  // Remap main rows: old ID -> new ID is a monotone mapping.
  std::vector<uint32_t> main_remap(main_values.size());
  for (size_t i = 0; i < main_values.size(); ++i) {
    const auto it = std::lower_bound(encoded.dictionary.begin(),
                                     encoded.dictionary.end(), main_values[i]);
    main_remap[i] = static_cast<uint32_t>(it - encoded.dictionary.begin());
  }
  encoded.ids.reserve(main.num_rows() + delta.num_rows());
  for (uint64_t row = 0; row < main.num_rows(); ++row) {
    encoded.ids.push_back(main_remap[main.GetValueId(row)]);
  }
  // Append delta rows.
  for (uint64_t row = 0; row < delta.num_rows(); ++row) {
    const auto it =
        std::lower_bound(encoded.dictionary.begin(), encoded.dictionary.end(),
                         delta.GetValue(row));
    encoded.ids.push_back(static_cast<uint32_t>(it - encoded.dictionary.begin()));
  }
  return encoded;
}

}  // namespace

namespace {

// Shared merge telemetry; the timer is started by the caller so that the
// format decision (adaptive path) is included in the merge latency.
void CountMerge(const StringColumn& main, const DeltaColumn& delta) {
  if (!obs::Enabled()) return;
  static obs::Counter* merges = obs::Metrics().GetCounter(
      "store.merge.count", "merges", "delta merges performed");
  static obs::Counter* rows = obs::Metrics().GetCounter(
      "store.merge.rows", "rows", "rows in merged columns (main + delta)");
  static obs::Counter* delta_rows = obs::Metrics().GetCounter(
      "store.merge.delta_rows", "rows", "delta rows folded into the main");
  merges->Increment();
  rows->Increment(main.num_rows() + delta.num_rows());
  delta_rows->Increment(delta.num_rows());
}

obs::Histogram* MergeTimerHistogram() {
  return obs::Enabled()
             ? obs::Metrics().GetHistogram("store.merge.us", {}, "us",
                                           "delta merge latency incl. "
                                           "dictionary rebuild")
             : nullptr;
}

}  // namespace

StringColumn MergeDelta(const StringColumn& main, const DeltaColumn& delta,
                        DictFormat format) {
  ADICT_TRACE_SPAN("merge.delta");
  obs::ScopedTimer timer(MergeTimerHistogram());
  obs::ScopedColumnOp heat_op(main.heat(), obs::ColumnOp::kMerge, 1,
                              obs::OpTiming::kAlways);
  CountMerge(main, delta);
  StringColumn merged =
      StringColumn::FromEncoded(MergeEncode(main, delta), format);
  heat_op.AddBytes(merged.DictionaryBytes());
  return merged;
}

StringColumn MergeDeltaAdaptive(const StringColumn& main,
                                const DeltaColumn& delta,
                                const CompressionManager& manager,
                                double lifetime_seconds,
                                std::string_view column_id) {
  ADICT_TRACE_SPAN("merge.delta_adaptive");
  obs::ScopedTimer timer(MergeTimerHistogram());
  obs::ScopedColumnOp heat_op(main.heat(), obs::ColumnOp::kMerge, 1,
                              obs::OpTiming::kAlways);
  CountMerge(main, delta);
  DomainEncoded encoded = MergeEncode(main, delta);

  // The decision itself is guarded: if the manager fails (injected via the
  // `merge.choose_format` fail point), the merge proceeds with the paper's
  // robust mid-point format instead of dropping the delta.
  FormatDecision decision{DictFormat::kFcBlock};
  if (ADICT_FAIL_POINT("merge.choose_format")) {
    if (obs::Enabled()) {
      static obs::Counter* decision_fallbacks = obs::Metrics().GetCounter(
          "store.merge.decision_fallback", "events",
          "merges that used the default format because the format decision "
          "failed");
      decision_fallbacks->Increment();
    }
  } else {
    decision = manager.ChooseFormatLogged(
        encoded.dictionary, main.TracedUsage(lifetime_seconds), column_id);
  }

  StatusOr<GuardedBuildResult> built =
      BuildDictionaryGuarded(decision, encoded.dictionary);
  // The chain ends at `array`, which cannot fail on the (sorted, unique)
  // merge output; reaching this check means every format including the
  // uncompressed fallback failed — there is no column left to serve.
  ADICT_CHECK_MSG(built.ok(),
                  "delta merge: dictionary rebuild failed beyond the array "
                  "fallback");
  StringColumn merged =
      StringColumn::FromParts(std::move(built->dict), encoded.ids);
  heat_op.AddBytes(merged.DictionaryBytes());
  return merged;
}

}  // namespace adict
