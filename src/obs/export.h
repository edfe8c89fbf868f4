// Renders metrics and decision logs as human-readable text, JSON or
// Prometheus exposition, plus the two string builders every obs renderer
// (and the benchmarks' JSON writers) share.
//
// The text forms are what the examples and benchmarks print; the decision
// log's JSON form is machine food for scraping into external dashboards.
#ifndef ADICT_OBS_EXPORT_H_
#define ADICT_OBS_EXPORT_H_

#include <cstddef>
#include <limits>
#include <string>
#include <string_view>

#include "obs/decision_log.h"
#include "obs/metrics.h"

namespace adict {
namespace obs {

/// printf onto the end of `out`; one call appends at most 511 bytes.
void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Appends `s` as a quoted JSON string: quotes, backslashes and control
/// characters escaped.
void AppendJsonString(std::string* out, std::string_view s);

/// Aligned name/type/value table, histograms with count/mean and the
/// occupied buckets.
std::string MetricsToText(const MetricsRegistry& registry);

/// One block per decision, newest last: column, chosen format, predicted vs
/// actual dictionary bytes, relative error, c, strategy. At most
/// `max_entries` newest entries, then the cumulative accuracy summary.
std::string DecisionLogToText(
    const DecisionLog& log,
    size_t max_entries = std::numeric_limits<size_t>::max());

/// {"decisions":[...],"accuracy":{...}} with the full candidate lists.
std::string DecisionLogToJson(const DecisionLog& log);

/// One line: N predictions, mean/max relative error, within-8% fraction.
std::string PredictionAccuracyToText(const PredictionAccuracy& accuracy);

/// Prometheus text exposition format (version 0.0.4): one `# HELP` and
/// `# TYPE` line per metric followed by its samples. Histograms expose the
/// conventional `<name>_bucket{le="..."}` cumulative series (ending in
/// le="+Inf") plus `<name>_sum` and `<name>_count`. Metric names are
/// sanitized to [a-zA-Z0-9_:] — the registry's dotted names ("dict.build.us")
/// become underscored ("dict_build_us") — with a leading '_' prepended if
/// the sanitized name would start with a digit.
std::string ExportPrometheusText(const MetricsRegistry& registry);

}  // namespace obs
}  // namespace adict

#endif  // ADICT_OBS_EXPORT_H_
