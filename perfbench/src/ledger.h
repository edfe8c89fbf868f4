// The layer ledger: the workload's own request stream replayed through
// each layer from outside, outside any timed end-to-end window, each layer
// reported as its cost over the layer below:
//
//   Dictionary::ExtractInto / Locate             dict.extract_ns, dict.locate_ns
//   StringColumn accessors, obs off              store.*_over_dict_ns
//   StringColumn accessors, obs on               obs.column_overhead_ns
//   SnapshotStrings + accessor (direct request)  store.snapshot_ns
//   protocol codec                               server.codec_ns
//   QueryServer round trip                       server.over_direct_us
//
// plus Dictionary::Scan over the dictionaries TPC-H LIKE predicates scan.
#ifndef ADICT_PERFBENCH_LEDGER_H_
#define ADICT_PERFBENCH_LEDGER_H_

#include <vector>

#include "bench.h"
#include "point_ops.h"
#include "server/result_cache.h"

namespace perfbench {

/// Requests the ledger replays through each layer.
inline constexpr size_t kLedgerOps = 5000;

/// Counters of the server the ledger's round trips went through.
struct LedgerServer {
  adict::ResultCache::Stats cache;
  uint64_t rejected = 0;
  double in_server_p99_us = 0;
};

/// Replays `ops` (answers checked, failures counted into `out`) and adds
/// the ledger rows to `out->per_layer`. Round trips go through a fresh
/// QueryServer with default options serving `db`.
LedgerServer RunLedger(const adict::TpchDatabase& db,
                       const std::vector<ServedColumn>& columns,
                       const std::vector<PointOp>& ops, Outcome* out);

/// p-quantile of the observations a histogram gained since `before`
/// (bucket counts), interpolated inside the bucket.
double HistogramDeltaQuantile(const adict::obs::Histogram& histogram,
                              const std::vector<uint64_t>& before, double q);

/// The query server's request-latency histogram.
adict::obs::Histogram& ServerRequestHistogram();

}  // namespace perfbench

#endif  // ADICT_PERFBENCH_LEDGER_H_
