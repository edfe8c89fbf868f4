#include "core/build_guard.h"

#include <algorithm>
#include <array>

#include "obs/obs.h"
#include "obs/trace.h"
#include "util/failpoint.h"

namespace adict {
namespace {

bool UsesRePairCodec(DictFormat format) {
  const CodecKind codec = DictFormatCodec(format);
  return codec == CodecKind::kRePair12 || codec == CodecKind::kRePair16;
}

Status TryBuildOne(DictFormat format,
                   std::span<const std::string> sorted_unique,
                   std::unique_ptr<Dictionary>* out) {
  if (ADICT_FAIL_POINT("dict.build")) {
    return Status::Internal("injected dict.build failure");
  }
  if (UsesRePairCodec(format) && ADICT_FAIL_POINT("repair.build")) {
    return Status::Internal("injected repair.build failure");
  }
  if (IsFrontCodingClass(format) && ADICT_FAIL_POINT("fc.build")) {
    return Status::Internal("injected fc.build failure");
  }
  ADICT_RETURN_IF_ERROR(CheckBuildPreconditions(format, sorted_unique));
  *out = BuildDictionary(format, sorted_unique);
  if (*out == nullptr) return Status::Internal("builder returned null");
  return Status::Ok();
}

void CountFallback() {
  if (!obs::Enabled()) return;
  static obs::Counter* fallbacks = obs::Metrics().GetCounter(
      "dict.build.fallback", "events",
      "dictionary builds degraded to the next format in the chain");
  fallbacks->Increment();
}

void CountExhausted() {
  if (!obs::Enabled()) return;
  static obs::Counter* exhausted = obs::Metrics().GetCounter(
      "dict.build.exhausted", "events",
      "dictionary builds that failed even the array fallback");
  exhausted->Increment();
}

}  // namespace

Status ValidateDictionary(const Dictionary& dict,
                          std::span<const std::string> sorted_unique,
                          const GuardOptions& options,
                          double predicted_dict_bytes) {
  ADICT_TRACE_SPAN("guard.validate");
  if (ADICT_FAIL_POINT("dict.validate")) {
    return Status::Corruption("injected dict.validate failure");
  }
  if (dict.size() != sorted_unique.size()) {
    return Status::Corruption("built dictionary entry count mismatch");
  }
  if (options.sample_probes > 0 && !sorted_unique.empty()) {
    const uint32_t n = dict.size();
    const uint32_t probes = std::min(options.sample_probes, n);
    // Evenly spread deterministic sample; i = probes-1 lands on the last
    // entry, i = 0 on the first.
    std::string scratch;
    for (uint32_t i = 0; i < probes; ++i) {
      const uint32_t id = static_cast<uint32_t>(
          (static_cast<uint64_t>(i) * (n - 1)) / (probes > 1 ? probes - 1 : 1));
      scratch.clear();
      dict.ExtractInto(id, &scratch);
      if (scratch != sorted_unique[id]) {
        return Status::Corruption("extract round-trip mismatch");
      }
      const LocateResult located = dict.Locate(sorted_unique[id]);
      if (!located.found || located.id != id) {
        return Status::Corruption("locate round-trip mismatch");
      }
    }
  }
  if (predicted_dict_bytes >= 0 && options.size_tolerance > 0) {
    const double actual = static_cast<double>(dict.MemoryBytes());
    const double bound = predicted_dict_bytes * options.size_tolerance +
                         options.size_slack_bytes;
    if (actual > bound) {
      return Status::ResourceExhausted(
          "built dictionary exceeds size-model prediction tolerance");
    }
  }
  return Status::Ok();
}

StatusOr<GuardedBuildResult> BuildDictionaryGuarded(
    const FormatDecision& decision, std::span<const std::string> sorted_unique,
    const GuardOptions& options) {
  ADICT_TRACE_SPAN("guard.build");
  // Degradation chain (docs/robustness.md): the decided format, then the
  // paper's robust mid-point (blockwise front coding, raw suffixes), then
  // the format that cannot fail on valid input.
  std::array<DictFormat, 3> chain = {decision.format, DictFormat::kFcBlock,
                                     DictFormat::kArray};
  size_t chain_len = 0;
  for (DictFormat candidate : chain) {
    bool seen = false;
    for (size_t i = 0; i < chain_len; ++i) seen |= chain[i] == candidate;
    if (!seen) chain[chain_len++] = candidate;
  }

  Status last = Status::Internal("empty degradation chain");
  for (size_t i = 0; i < chain_len; ++i) {
    const DictFormat attempt = chain[i];
    std::unique_ptr<Dictionary> dict;
    Status status = TryBuildOne(attempt, sorted_unique, &dict);
    if (status.ok()) {
      status = ValidateDictionary(
          *dict, sorted_unique, options,
          attempt == decision.format ? decision.predicted_dict_bytes : -1);
    }
    if (status.ok()) {
      if (decision.log_sequence != 0) {
        obs::Decisions().RecordActual(decision.log_sequence,
                                      static_cast<double>(dict->MemoryBytes()));
      }
      return GuardedBuildResult{std::move(dict), attempt,
                                static_cast<int>(i)};
    }
    last = status;
    if (i + 1 < chain_len) {
      CountFallback();
      if (decision.log_sequence != 0) {
        obs::FallbackEvent event;
        event.from_format_id = static_cast<int>(attempt);
        event.from_format_name = std::string(DictFormatName(attempt));
        event.to_format_id = static_cast<int>(chain[i + 1]);
        event.to_format_name = std::string(DictFormatName(chain[i + 1]));
        event.reason = status.ToString();
        obs::Decisions().RecordFallback(decision.log_sequence,
                                        std::move(event));
      }
    }
  }
  CountExhausted();
  return last;
}

}  // namespace adict
