// The compression manager (paper Section 5): decides, for every string
// column at dictionary-rebuild time, which dictionary format to use.
//
// Decision flow (paper Figure 7):
//   - local, per column: content properties (sampled), access counts, and
//     the column vector size are reduced to (size, rel_time) per candidate
//     format using the compression models and the runtime constants;
//   - global: one trade-off parameter c, kept up to date by the feedback
//     controller from memory pressure, picks the point on the space/time
//     trade-off via the selection strategy.
//
// The manager is the only code that decides: ChooseFormatLogged runs that
// step once per dictionary rebuild and records it in the process-wide
// obs::Decisions() log (see src/obs/): which column, every candidate's
// predicted point, the chosen format, and c at decision time. The guarded
// build (core/build_guard.h) that builds the decision patches the actual
// size into the same record, so size-model accuracy is accounted
// continuously (docs/observability.md).
#ifndef ADICT_CORE_COMPRESSION_MANAGER_H_
#define ADICT_CORE_COMPRESSION_MANAGER_H_

#include <memory>
#include <string_view>

#include "core/build_guard.h"
#include "core/controller.h"
#include "core/cost_model.h"
#include "core/properties.h"
#include "core/tradeoff.h"
#include "dict/dictionary.h"

namespace adict {

class CompressionManager {
 public:
  struct Options {
    SamplingConfig sampling = SamplingConfig::Default();
    TradeoffStrategy strategy = TradeoffStrategy::kTilt;
    TradeoffController::Options controller;
  };

  CompressionManager()
      : CompressionManager(CostModel::Default(), Options{}) {}
  CompressionManager(const CostModel& cost_model, const Options& options)
      : cost_model_(cost_model), options_(options),
        controller_(options.controller) {}

  /// Which candidate a decision takes.
  enum class Pick {
    kTradeoff,  // the selection strategy's pick at c (paper Figure 7)
    kSmallest,  // the smallest predicted candidate (critical memory pressure)
  };

  /// Decides the dictionary format for a column that is about to be rebuilt
  /// (e.g. at delta merge): samples its content properties, prices every
  /// candidate from them and the traced usage, selects at c (read once) and
  /// logs the decision under `column_id` (may be empty). Hand the result to
  /// BuildDictionaryGuarded, which records the built size in the same
  /// record.
  FormatDecision ChooseFormatLogged(std::span<const std::string> sorted_unique,
                                    const ColumnUsage& usage,
                                    std::string_view column_id,
                                    Pick pick = Pick::kTradeoff) const;

  /// Same without a column identity, returning only the format.
  DictFormat ChooseFormat(std::span<const std::string> sorted_unique,
                          const ColumnUsage& usage) const {
    return ChooseFormatLogged(sorted_unique, usage, {}).format;
  }

  /// Chooses and builds (guarded) in one step.
  std::unique_ptr<Dictionary> BuildAdaptiveDictionary(
      std::span<const std::string> sorted_unique, const ColumnUsage& usage,
      std::string_view column_id = {}) const;

  /// Exposes the candidate evaluation, e.g. for offline what-if analysis.
  std::vector<Candidate> Evaluate(std::span<const std::string> sorted_unique,
                                  const ColumnUsage& usage) const {
    const DictionaryProperties props =
        SampleProperties(sorted_unique, options_.sampling);
    return EvaluateCandidates(props, usage, cost_model_);
  }

  /// The feedback loop driving c; feed it memory observations.
  TradeoffController& controller() { return controller_; }
  const TradeoffController& controller() const { return controller_; }

  double c() const { return controller_.c(); }
  void set_c(double c) { controller_.set_c(c); }

  const CostModel& cost_model() const { return cost_model_; }
  const Options& options() const { return options_; }

 private:
  CostModel cost_model_;
  Options options_;
  TradeoffController controller_;
};

}  // namespace adict

#endif  // ADICT_CORE_COMPRESSION_MANAGER_H_
