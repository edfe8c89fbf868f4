#include "core/compression_manager.h"

#include <string>

#include "core/build_guard.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/check.h"

namespace adict {
namespace {

// Format names with spaces flattened for metric names, e.g. "array rp 12"
// -> "manager.chosen.array_rp_12".
std::string ChosenMetricName(DictFormat format) {
  std::string name = "manager.chosen.";
  for (char ch : DictFormatName(format)) {
    name.push_back(ch == ' ' ? '_' : ch);
  }
  return name;
}

}  // namespace

uint64_t LogFormatDecision(std::string_view column_id,
                           const DictionaryProperties& props,
                           const ColumnUsage& usage,
                           std::span<const Candidate> candidates,
                           const SelectionDetails& details, double c,
                           TradeoffStrategy strategy) {
  if (!obs::Enabled()) return 0;

  obs::DecisionRecord record;
  record.column_id = std::string(column_id);
  record.num_strings = props.num_strings;
  record.raw_chars = props.raw_chars;
  record.entropy0 = props.entropy0;
  record.sampled_fraction = props.sampled_fraction;
  record.num_extracts = usage.num_extracts;
  record.num_locates = usage.num_locates;
  record.num_scans = usage.num_scans;
  record.lifetime_seconds = usage.lifetime_seconds;
  record.column_vector_bytes = usage.column_vector_bytes;
  record.candidates.reserve(candidates.size());
  for (const Candidate& candidate : candidates) {
    record.candidates.push_back(
        {static_cast<int>(candidate.format),
         std::string(DictFormatName(candidate.format)), candidate.size_bytes,
         candidate.rel_time});
    if (candidate.format == details.selected) {
      // The candidate's size axis includes the column vector; the built
      // dictionary does not.
      record.predicted_dict_bytes =
          candidate.size_bytes -
          static_cast<double>(usage.column_vector_bytes);
    }
  }
  record.chosen_format_id = static_cast<int>(details.selected);
  record.chosen_format_name = std::string(DictFormatName(details.selected));
  record.c = c;
  record.strategy = std::string(TradeoffStrategyName(strategy));
  record.alpha = details.alpha;

  static obs::Counter* decisions = obs::Metrics().GetCounter(
      "manager.decisions", "calls", "format decisions made");
  decisions->Increment();
  static obs::Gauge* c_gauge = obs::Metrics().GetGauge(
      "manager.c", "", "trade-off parameter c at the last decision");
  c_gauge->Set(c);
  obs::Metrics()
      .GetCounter(ChosenMetricName(details.selected), "decisions",
                  "decisions that chose this format")
      ->Increment();

  return obs::Decisions().Push(std::move(record));
}

FormatDecision CompressionManager::ChooseFormatLogged(
    std::span<const std::string> sorted_unique, const ColumnUsage& usage,
    std::string_view column_id) const {
  ADICT_TRACE_SPAN("manager.choose_format");
  obs::ScopedTimer timer(
      obs::Enabled() ? obs::Metrics().GetHistogram(
                           "manager.choose_format_us", {}, "us",
                           "sampling + model evaluation + selection")
                     : nullptr);
  const DictionaryProperties props =
      SampleProperties(sorted_unique, options_.sampling);
  std::vector<Candidate> candidates;
  {
    ADICT_TRACE_SPAN("manager.evaluate_candidates");
    candidates = EvaluateCandidates(props, usage, cost_model_);
  }
  SelectionDetails details;
  {
    ADICT_TRACE_SPAN("manager.select_format");
    details = SelectFormatDetailed(candidates, controller_.c(),
                                   options_.strategy);
  }
  const uint64_t sequence =
      LogFormatDecision(column_id, props, usage, candidates, details,
                        controller_.c(), options_.strategy);
  double predicted_dict_bytes = -1;
  for (const Candidate& candidate : candidates) {
    if (candidate.format == details.selected) {
      // The candidate's size axis includes the column vector; the built
      // dictionary does not.
      predicted_dict_bytes = candidate.size_bytes -
                             static_cast<double>(usage.column_vector_bytes);
      break;
    }
  }
  return {details.selected, sequence, predicted_dict_bytes};
}

std::unique_ptr<Dictionary> CompressionManager::BuildAdaptiveDictionary(
    std::span<const std::string> sorted_unique, const ColumnUsage& usage,
    std::string_view column_id) const {
  const FormatDecision decision =
      ChooseFormatLogged(sorted_unique, usage, column_id);
  GuardOptions guard;
  guard.predicted_dict_bytes = decision.predicted_dict_bytes;
  guard.log_sequence = decision.log_sequence;
  StatusOr<GuardedBuildResult> built =
      BuildDictionaryGuarded(decision.format, sorted_unique, guard);
  ADICT_CHECK_MSG(built.ok(),
                  "dictionary rebuild failed beyond the array fallback");
  if (decision.log_sequence != 0) {
    obs::Decisions().RecordActual(
        decision.log_sequence,
        static_cast<double>(built->dict->MemoryBytes()));
  }
  return std::move(built->dict);
}

}  // namespace adict
