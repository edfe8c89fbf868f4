#include "engine/parallel.h"

#include "obs/metrics.h"
#include "obs/obs.h"

namespace adict {

/// Per-scan pool/driver telemetry: one `engine.parallel.scans` tick per
/// driver invocation (the accounting unit — never per morsel), the morsel
/// count, and a mirror of the pool's counters into gauges. The pool itself
/// lives in util/, below obs/, so its stats are exported here, the lowest
/// layer that links obs (see docs/parallelism.md).
void RecordParallelScan(ThreadPool& pool, uint64_t num_morsels) {
  if (!obs::Enabled()) return;
  static obs::Counter* scans = obs::Metrics().GetCounter(
      "engine.parallel.scans", "scans",
      "parallel driver invocations (the per-scan accounting unit)");
  static obs::Counter* morsels = obs::Metrics().GetCounter(
      "engine.parallel.morsels", "morsels",
      "morsels dispatched by the parallel drivers");
  static obs::Gauge* threads = obs::Metrics().GetGauge(
      "pool.threads", "threads",
      "parallelism of the pool serving the most recent parallel scan");
  static obs::Gauge* steals = obs::Metrics().GetGauge(
      "pool.steals", "tasks",
      "cumulative tasks stolen from another worker's deque");
  static obs::Gauge* queue_depth = obs::Metrics().GetGauge(
      "pool.queue_depth", "tasks",
      "queued-but-unstarted pool tasks, sampled at scan admission");
  scans->Increment();
  morsels->Increment(num_morsels);
  threads->Set(static_cast<double>(pool.parallelism()));
  steals->Set(static_cast<double>(pool.steals()));
  queue_depth->Set(static_cast<double>(pool.queued()));
}

}  // namespace adict
