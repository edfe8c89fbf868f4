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
#include "util/check.h"
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

/// Per-column format decisions at the manager's c (set it per sweep point
/// with CompressionManager::set_c). Each decision is logged to
/// obs::Decisions() under the column's name.
inline std::vector<FormatDecision> SelectConfiguration(
    const std::vector<TracedColumn>& traced,
    const CompressionManager& manager) {
  std::vector<FormatDecision> decisions;
  decisions.reserve(traced.size());
  for (const TracedColumn& column : traced) {
    decisions.push_back(manager.ChooseFormatLogged(
        column.dict_values, column.usage, column.name));
  }
  return decisions;
}

/// Rebuilds every traced column through the guarded build, which records
/// each dictionary's actual size against its decision, and publishes the
/// columns whose format changes.
inline void ApplyConfiguration(const std::vector<TracedColumn>& traced,
                               const std::vector<FormatDecision>& decisions) {
  for (size_t i = 0; i < traced.size(); ++i) {
    StatusOr<GuardedBuildResult> built =
        BuildDictionaryGuarded(decisions[i], traced[i].dict_values);
    ADICT_CHECK(built.ok());
    VersionedStringColumn& column =
        traced[i].table->string_column(traced[i].column_index);
    const std::shared_ptr<const StringColumn> pin = column.Snapshot();
    if (pin->format() == built->format) continue;
    column.Publish(StringColumn::FromParts(std::move(built->dict),
                                           ColumnVector(pin->vector())),
                   pin->epoch());
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

/// Memory of the database's current configuration: every column, without
/// the join maps and ID indexes the queries keep in each version's memo
/// (those depend on which queries ran on which versions, not on formats).
inline double ConfigurationBytes(const TpchDatabase& db) {
  const TpchSnapshot snapshot = db.Snapshot();
  size_t bytes = 0;
  for (const TableSnapshot* table : snapshot.tables()) {
    bytes += table->MemoryBytes();
    for (const auto& pin : table->pins()) bytes -= pin->MemoBytes();
  }
  return static_cast<double>(bytes);
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
