// Process-wide observability context: one metrics registry and one decision
// log shared by every instrumented component.
//
// Instrumentation sites follow one pattern:
//
//   if (obs::Enabled()) {
//     static obs::Counter* counter =
//         obs::Metrics().GetCounter("store.merge.count", "merges", "...");
//     counter->Increment();
//   }
//
// The function-local static resolves the metric once (registry mutex taken
// exactly once per site); afterwards the cost is one relaxed load of the
// enabled flag plus one relaxed increment. SetEnabled(false) turns every
// site into a single branch (per-column usage counts excepted, see
// workload_profiler.h). Tests reset values with ResetForTest(), which
// keeps registrations (and thus cached pointers) intact.
#ifndef ADICT_OBS_OBS_H_
#define ADICT_OBS_OBS_H_

#include "obs/decision_log.h"
#include "obs/metrics.h"

namespace adict {
namespace obs {

/// The process-wide metrics registry. Never destroyed.
MetricsRegistry& Metrics();

/// The process-wide decision log. Never destroyed.
DecisionLog& Decisions();

/// Global on/off switch, default on. Disabling skips metric recording and
/// decision logging at every built-in instrumentation site; per-column
/// usage counts keep moving.
bool Enabled();
void SetEnabled(bool enabled);

/// Registers the process-identity metrics scrapes use to compute uptime
/// and detect restarts: `adict_build_info` (value 1, with version and
/// format-count labels) and `process_start_time_seconds` (unix time,
/// captured once at the first call). The dictionary format count is a
/// parameter so the obs layer stays independent of the dict layer; callers
/// pass kNumDictFormats. Idempotent.
void RegisterProcessMetrics(int num_dict_formats);

/// Version string baked into adict_build_info.
inline constexpr const char* kBuildVersion = "0.8.0";

/// Zeroes all metric values, clears the decision log, and resets the
/// workload profiler without invalidating metric or heat-slot pointers
/// cached at instrumentation sites.
void ResetForTest();

}  // namespace obs
}  // namespace adict

#endif  // ADICT_OBS_OBS_H_
