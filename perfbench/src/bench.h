// Shared declarations of the end-to-end benchmark adict_perfbench: the run
// configuration, the outcome every workload reports, and the building
// blocks (seeded store, TPC-H passes, merge rounds) the workloads share.
#ifndef ADICT_PERFBENCH_BENCH_H_
#define ADICT_PERFBENCH_BENCH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/compression_manager.h"
#include "store/delta.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  double scale_factor = 0.1;
  /// Open-loop offered rates, requests per second.
  double serve_rate = 0;
  double ingest_rate = 0;
  /// Goodput limits: point requests and (tpch_olap) whole TPC-H queries.
  double latency_limit_us = 0;
  double query_limit_ms = 0;
  /// Load-generator connections: nproc.
  int connections = 1;
  /// Directory of committed TPC-H result digests.
  std::string expected_dir;
  /// Self-test hook: corrupts one expected answer, which must be caught.
  bool plant_wrong_answer = false;
};

/// What a workload run reports. `wrong` answers make the run incorrect;
/// refused or failed operations only count as failures.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  JsonObject info;

  void AddE2E(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void AddLayer(const std::string& name, double value,
                const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Count(uint64_t attempted_ops, uint64_t failed_ops, uint64_t wrong_ops) {
    attempted += attempted_ops;
    failed += failed_ops + wrong_ops;
    wrong += wrong_ops;
  }
};

Outcome RunTpchOlap(const Config& config);
Outcome RunServePoint(const Config& config);
Outcome RunIngestMixed(const Config& config);

// ---- Store ------------------------------------------------------------

/// One generation of the seeded store in the load-time `fc inline`
/// configuration.
std::unique_ptr<adict::TpchDatabase> GenerateStore(const Config& config);

/// Generations timed for setup_s.
inline constexpr int kSetups = 3;

/// GenerateStore `kSetups` times, keeping the last store; `setup_s`
/// receives the median generation time.
std::unique_ptr<adict::TpchDatabase> SetupStore(const Config& config,
                                                double* setup_s);

/// Dictionary::MemoryBytes summed over every string column (pinned
/// snapshots, so it is safe beside publishes).
double DictBytes(const adict::TpchDatabase& db);

/// Final format of every string column, as {"table.column": "format"}.
std::string FormatsJson(const adict::TpchDatabase& db);

// ---- TPC-H ------------------------------------------------------------

using TpchDigests = std::array<uint64_t, adict::kNumTpchQueries>;

/// FNV-1a digest of the serialized result of one query.
uint64_t ResultDigest(const adict::QueryResult& result);

/// Digests of one Q1..Q22 pass at pool parallelism 1.
TpchDigests ReferenceDigests(const adict::TpchDatabase& db);

/// Expected digests for (sf, seed): the committed file when one exists,
/// otherwise a reference pass at pool parallelism 1. `source` names which.
TpchDigests ExpectedDigests(const Config& config,
                            const adict::TpchDatabase& db,
                            std::string* source);

/// `sf seed d1 .. d22`, the committed digest file's line format.
std::string DigestLine(const Config& config, const TpchDigests& digests);

/// One Q1..Q22 pass; per-query milliseconds are appended to `query_ms`
/// (index q-1) and wrong digests counted in `wrong`. Returns seconds.
double RunTpchPass(const adict::TpchDatabase& db, const TpchDigests& expected,
                   std::array<std::vector<double>, adict::kNumTpchQueries>*
                       query_ms,
                   uint64_t* wrong);

// ---- Merges -----------------------------------------------------------

/// Lifetime passed to every adaptive merge: a constant, so no wall-clock
/// value feeds a format decision.
inline constexpr double kMergeLifetimeSeconds = 3600;
/// Rows appended per column before a merge round.
inline constexpr uint64_t kBatchRows = 2000;

/// The sorted distinct values of `column`, read with Dictionary::Scan: the
/// sequential decode (fc inline has its own), not the random-access
/// ExtractInto behind StringColumn::GetValueInto and the server. The
/// expected answers of the point requests are built from it; the row ->
/// value ID mapping still reads the column vector, as the server does.
std::vector<std::string> SortedValues(const adict::StringColumn& column);

/// Plain per-row copies of every string column of `table`: SortedValues
/// indexed by each row's value ID.
std::vector<std::vector<std::string>> PlainRows(const adict::Table& table);

/// Seeded new `part` rows, one vector per string column (in the table's
/// column order), recombined from the words of the `existing` rows
/// (PlainRows) so new distinct values keep the columns' statistics.
std::vector<std::vector<std::string>> SynthesizePartRows(
    const adict::Table& part,
    const std::vector<std::vector<std::string>>& existing,
    uint64_t first_new_key, uint64_t count, uint64_t seed);

/// A private copy of `column` (serialized and loaded back) whose traced
/// usage is zero, so a merge's format decision depends only on the content
/// and the fixed lifetime, not on how many requests reached the column
/// before it.
adict::StringColumn UsageFreeCopy(const adict::StringColumn& column);

/// One merge round: MergeDeltaAdaptive every `part` column (a usage-free
/// copy of its current version) with its delta, then PublishStrings.
/// Returns the round's wall milliseconds, copies excluded; per-publish
/// microseconds are appended to `publish_us`. `on_publish` is called after
/// each column's publish with the column index.
template <typename OnPublish>
double MergeRound(adict::Table* part,
                  const std::vector<adict::DeltaColumn>& deltas,
                  const adict::CompressionManager& manager,
                  std::vector<double>* publish_us, OnPublish on_publish) {
  std::vector<adict::StringColumn> mains;
  for (size_t i = 0; i < part->num_string_columns(); ++i) {
    mains.push_back(
        UsageFreeCopy(*part->SnapshotStrings(part->string_column_name(i))));
  }
  const int64_t start = NowNs();
  for (size_t i = 0; i < part->num_string_columns(); ++i) {
    const std::string& name = part->string_column_name(i);
    adict::StringColumn merged = adict::MergeDeltaAdaptive(
        mains[i], deltas[i], manager, kMergeLifetimeSeconds, "part." + name);
    const int64_t publish_start = NowNs();
    part->PublishStrings(name, std::move(merged));
    publish_us->push_back(static_cast<double>(NowNs() - publish_start) /
                          1e3);
    on_publish(i);
  }
  return static_cast<double>(NowNs() - start) / 1e6;
}

}  // namespace perfbench

#endif  // ADICT_PERFBENCH_BENCH_H_
