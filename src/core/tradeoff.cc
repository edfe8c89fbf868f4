#include "core/tradeoff.h"

#include <cmath>

#include "core/size_model.h"
#include "util/check.h"

namespace adict {

std::vector<Candidate> EvaluateCandidates(const DictionaryProperties& props,
                                          const ColumnUsage& usage,
                                          const CostModel& cost_model) {
  std::vector<Candidate> candidates;
  candidates.reserve(kNumDictFormats);
  for (DictFormat format : AllDictFormats()) {
    const MethodCosts& costs = cost_model.costs(format);
    const double time_us =
        static_cast<double>(usage.num_extracts) * costs.extract_us +
        static_cast<double>(usage.num_locates) * costs.locate_us +
        static_cast<double>(usage.num_scans) * costs.scan_us +
        static_cast<double>(props.num_strings) * costs.construct_us;
    const double lifetime = usage.lifetime_seconds > 0
                                ? usage.lifetime_seconds
                                : 1.0;  // degenerate, avoid division by zero
    candidates.push_back(
        {format,
         PredictDictionarySize(format, props) +
             static_cast<double>(usage.column_vector_bytes),
         time_us / 1e6 / lifetime});
  }
  return candidates;
}

std::string_view TradeoffStrategyName(TradeoffStrategy strategy) {
  switch (strategy) {
    case TradeoffStrategy::kConst:
      return "const";
    case TradeoffStrategy::kRel:
      return "rel";
    case TradeoffStrategy::kTilt:
      return "tilt";
  }
  return "?";
}

SelectionDetails SelectFormatDetailed(std::span<const Candidate> candidates,
                                      double c, TradeoffStrategy strategy) {
  ADICT_CHECK(!candidates.empty());
  ADICT_CHECK(c >= 0);

  // d_min: smallest size, ties towards faster. d_speed: fastest, ties
  // towards smaller.
  size_t min_index = 0, speed_index = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    const Candidate& d = candidates[i];
    const Candidate& dm = candidates[min_index];
    if (d.size_bytes < dm.size_bytes ||
        (d.size_bytes == dm.size_bytes && d.rel_time < dm.rel_time)) {
      min_index = i;
    }
    const Candidate& ds = candidates[speed_index];
    if (d.rel_time < ds.rel_time ||
        (d.rel_time == ds.rel_time && d.size_bytes < ds.size_bytes)) {
      speed_index = i;
    }
  }
  const double size_min = candidates[min_index].size_bytes;
  const double size_speed = candidates[speed_index].size_bytes;
  const double t_min = candidates[min_index].rel_time;
  const double t_speed = candidates[speed_index].rel_time;

  SelectionDetails details;
  details.smallest = candidates[min_index].format;
  details.fastest = candidates[speed_index].format;
  details.threshold.resize(candidates.size());

  // Derive alpha from the boundary condition (see header) and build the
  // dividing function for the *actual* rel_time scale.
  //
  // The paper's boundary condition anchors the line at rel_time(d_min) = 1:
  // "if the runtime of the smallest variant is greater than or equal to
  // 100% of the available time until the next merge, the fastest variant
  // should be chosen". Beyond that point the hypothetical-to-actual scaling
  // must saturate — otherwise the t_min^2 amplification flips the line far
  // below zero for super-hot columns and *excludes* every fast variant, the
  // opposite of the intent. We therefore clamp the heat factor at 1.
  const double heat = std::min(t_min, 1.0);
  double alpha = 0;
  double slope = 0;      // line slope in actual scale (tilt only)
  double intercept = (1.0 + c) * size_min;
  switch (strategy) {
    case TradeoffStrategy::kConst:
      break;
    case TradeoffStrategy::kRel: {
      // (1 + c(1 + alpha)) * size_min = size_speed, hypothetical
      // rel_time(d_min) = 1. Undefined for c = 0 (falls back to const).
      if (c > 0 && size_min > 0) {
        alpha = (size_speed / size_min - 1.0) / c - 1.0;
      }
      intercept = (1.0 + c * (1.0 + heat * alpha)) * size_min;
      break;
    }
    case TradeoffStrategy::kTilt: {
      // Hypothetical scaling tau = rel_time / rel_time(d_min):
      //   f'(tau) = alpha * tau + b',  f'(1) = (1+c) size_min,
      //   f'(tau_speed) = size_speed.
      const double tau_speed = t_min > 0 ? t_speed / t_min : 1.0;
      if (tau_speed != 1.0) {
        alpha = (size_speed - (1.0 + c) * size_min) / (tau_speed - 1.0);
      }
      // Back to the actual scale: f(t) = slope * t + b with
      // f(t_min) = (1+c) size_min. For t_min <= 1 this is the paper's
      // slope alpha * t_min; for hotter columns it saturates so that
      // f(t_speed) stays pinned at size_speed.
      slope = t_min > 0 ? alpha * heat * heat / t_min : 0.0;
      intercept = (1.0 + c) * size_min - slope * t_min;
      break;
    }
  }
  details.alpha = alpha;

  // Admit candidates below the line; among them pick the fastest, breaking
  // ties towards the smaller variant. The epsilon keeps candidates that sit
  // exactly on the line (d_speed at the saturation point) admitted despite
  // floating-point rounding.
  size_t best = min_index;  // d_min is admitted by construction
  bool have_best = false;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double threshold = intercept + slope * candidates[i].rel_time;
    details.threshold[i] = threshold;
    if (candidates[i].size_bytes > threshold + 1e-6 * (1.0 + std::abs(threshold))) {
      continue;
    }
    if (!have_best || candidates[i].rel_time < candidates[best].rel_time ||
        (candidates[i].rel_time == candidates[best].rel_time &&
         candidates[i].size_bytes < candidates[best].size_bytes)) {
      best = i;
      have_best = true;
    }
  }
  details.selected = candidates[best].format;
  return details;
}

DictFormat SelectFormat(std::span<const Candidate> candidates, double c,
                        TradeoffStrategy strategy) {
  return SelectFormatDetailed(candidates, c, strategy).selected;
}

}  // namespace adict
