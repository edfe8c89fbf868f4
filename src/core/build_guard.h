// Guarded dictionary construction: build, validate, and degrade.
//
// The compression manager re-decides a column's dictionary format at every
// delta merge. In a store serving live traffic that rebuild must never take
// the process down, and a mispredicted or misbuilt dictionary must never be
// committed. BuildDictionaryGuarded therefore wraps BuildDictionary with
// three layers (docs/robustness.md):
//
//   1. preconditions — the input is checked against the format's
//      representational limits (CheckBuildPreconditions) before the builder
//      runs, so inputs a format cannot hold degrade instead of aborting;
//   2. validation — the freshly built dictionary round-trips a sample of
//      extracts and locates against the source strings, and its actual size
//      is compared with the size model's prediction within a tolerance;
//   3. degradation — on any failure (injected via fail points or real) the
//      build walks chosen format -> fc block -> array, recording each step
//      in the DecisionLog and the `dict.build.fallback` counter. Only if
//      even `array` fails does the caller see an error.
//
// The build that commits writes its actual size into the decision's record,
// so every decision that is built is scored against its prediction.
//
// Fail points honored: `dict.build` (any format), `repair.build` (formats
// with a Re-Pair codec), `fc.build` (front-coding-class formats),
// `dict.validate` (post-build validation).
#ifndef ADICT_CORE_BUILD_GUARD_H_
#define ADICT_CORE_BUILD_GUARD_H_

#include <memory>
#include <string>
#include <string_view>

#include "dict/dictionary.h"
#include "util/status.h"

namespace adict {

/// A decided format plus what the guarded build needs to check the build
/// against the prediction and to record its outcome. The compression
/// manager's decision (CompressionManager::ChooseFormatLogged) makes one; a
/// bare `{format}` builds without a prediction or a record.
struct FormatDecision {
  DictFormat format;
  /// Sequence of the record in obs::Decisions(), or 0 if nothing was logged.
  uint64_t log_sequence = 0;
  /// Predicted size of the chosen dictionary alone (candidate size minus
  /// the column vector), comparable to Dictionary::MemoryBytes(). < 0
  /// disables the size check.
  double predicted_dict_bytes = -1;
};

struct GuardOptions {
  /// Entries round-tripped (extract + locate) by validation; spread evenly,
  /// always including the first and last entry. 0 disables round-trip
  /// validation.
  uint32_t sample_probes = 32;
  /// Reject a build whose MemoryBytes() exceeds `size_tolerance *
  /// predicted_dict_bytes + size_slack_bytes`. The slack absorbs fixed
  /// overheads on tiny dictionaries. Only applied to the originally chosen
  /// format (the prediction is for it, not for the fallbacks).
  double size_tolerance = 4.0;
  double size_slack_bytes = 64 * 1024;
};

struct GuardedBuildResult {
  std::unique_ptr<Dictionary> dict;
  /// Format actually built; differs from the requested format after a
  /// fallback.
  DictFormat format;
  /// Degradation steps taken (0 in the normal case).
  int num_fallbacks = 0;
};

/// Round-trips a sample of the dictionary against its source strings, then
/// checks its size against `predicted_dict_bytes` (< 0: no size check).
/// Exposed for tests and offline audits.
Status ValidateDictionary(const Dictionary& dict,
                          std::span<const std::string> sorted_unique,
                          const GuardOptions& options,
                          double predicted_dict_bytes = -1);

/// Builds `decision.format` over `sorted_unique` with validation and the
/// degradation chain described above, and records the built dictionary's
/// size into the decision's record (the only code that does). Returns the
/// last failure only if every format in the chain (including `array`)
/// failed.
StatusOr<GuardedBuildResult> BuildDictionaryGuarded(
    const FormatDecision& decision, std::span<const std::string> sorted_unique,
    const GuardOptions& options = {});

}  // namespace adict

#endif  // ADICT_CORE_BUILD_GUARD_H_
