// Shared helpers for the TPC-H evaluation benchmarks (Figures 10 and 11):
// tracing the workload's dictionary usage, applying workload-driven
// configurations, and timing the 22 queries.
#ifndef ADICT_BENCH_TPCH_HARNESS_H_
#define ADICT_BENCH_TPCH_HARNESS_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/survey_harness.h"
#include "core/compression_manager.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/workload_profiler.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "util/stopwatch.h"

namespace adict {
namespace bench {

/// One string column with its traced workload and materialized dictionary.
struct TracedColumn {
  Table* table;
  size_t column_index;
  std::string name;
  std::vector<std::string> dict_values;
  ColumnUsage usage;
};

/// Runs the 22 queries once on `db`, then snapshots every string column's
/// usage as if the workload had run `multiplier` times (the paper uses 100
/// repetitions to make construction costs negligible). The lifetime is
/// `multiplier` times the median wall time of five timed passes, so one
/// slow pass does not move it.
inline std::vector<TracedColumn> TraceTpchWorkload(TpchDatabase* db,
                                                   int multiplier) {
  std::vector<double> pass_seconds(5);
  for (double& seconds : pass_seconds) {
    Stopwatch watch;
    for (int q = 1; q <= kNumTpchQueries; ++q) {
      (void)RunTpchQuery(*db, q);
    }
    seconds = watch.ElapsedSeconds();
  }
  std::sort(pass_seconds.begin(), pass_seconds.end());
  const double lifetime = pass_seconds[pass_seconds.size() / 2] * multiplier;
  db->ResetUsage();
  for (int q = 1; q <= kNumTpchQueries; ++q) {
    (void)RunTpchQuery(*db, q);
  }

  std::vector<TracedColumn> traced;
  for (Table* table : db->tables()) {
    for (size_t i = 0; i < table->num_string_columns(); ++i) {
      const auto column = table->string_column(i).Snapshot();
      ColumnUsage usage = column->TracedUsage(lifetime);
      usage.num_extracts *= multiplier;
      usage.num_locates *= multiplier;
      usage.num_scans *= multiplier;
      traced.push_back({table, i, table->string_column_name(i),
                        column->MaterializeDictionary(), usage});
    }
  }
  return traced;
}

/// Per-column format selection for one value of the global parameter c.
/// Each selection is logged to obs::Decisions() under the column's name.
inline std::vector<DictFormat> SelectConfiguration(
    const std::vector<TracedColumn>& traced, const CompressionManager& manager,
    double c) {
  std::vector<DictFormat> formats;
  formats.reserve(traced.size());
  for (const TracedColumn& column : traced) {
    const DictionaryProperties props =
        SampleProperties(column.dict_values, manager.options().sampling);
    const std::vector<Candidate> candidates =
        EvaluateCandidates(props, column.usage, manager.cost_model());
    const SelectionDetails details =
        SelectFormatDetailed(candidates, c, manager.options().strategy);
    LogFormatDecision(column.name, props, column.usage, candidates, details,
                      c, manager.options().strategy);
    formats.push_back(details.selected);
  }
  return formats;
}

/// Publishes the traced columns rebuilt in the given formats and records
/// each column's actual dictionary size against its logged prediction.
inline void ApplyConfiguration(const std::vector<TracedColumn>& traced,
                               const std::vector<DictFormat>& formats) {
  for (size_t i = 0; i < traced.size(); ++i) {
    VersionedStringColumn& column =
        traced[i].table->string_column(traced[i].column_index);
    column.PublishFormat(formats[i]);
    obs::Decisions().RecordActualForColumn(
        traced[i].name,
        static_cast<double>(column.Snapshot()->DictionaryBytes()));
  }
}

/// Dumps the metrics registry and the tail of the decision log to `out`
/// (benchmarks call this after the run to make the telemetry inspectable).
inline void ReportObservability(std::FILE* out,
                                size_t max_decisions = 24) {
  obs::Profiler().RefreshScrapeMetrics();
  std::fputs(obs::MetricsToText(obs::Metrics()).c_str(), out);
  std::fputs(obs::DecisionLogToText(obs::Decisions(), max_decisions).c_str(),
             out);
}

/// Sum over the 22 queries of the median runtime of `reps` executions
/// (paper: sum of the medians of 100 executions), in seconds.
inline double MeasureWorkloadSeconds(const TpchDatabase& db, int reps) {
  double total = 0;
  std::vector<double> times(reps);
  for (int q = 1; q <= kNumTpchQueries; ++q) {
    for (int r = 0; r < reps; ++r) {
      Stopwatch watch;
      (void)RunTpchQuery(db, q);
      times[r] = watch.ElapsedSeconds();
    }
    std::sort(times.begin(), times.end());
    total += times[reps / 2];
  }
  return total;
}

}  // namespace bench
}  // namespace adict

#endif  // ADICT_BENCH_TPCH_HARNESS_H_
