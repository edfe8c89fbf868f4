// The three workloads. Each reports every end-to-end metric (see
// perfbench/README.md for how each is defined on each workload) and,
// in a traced run, every per-layer metric.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "ledger.h"
#include "load_gen.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "point_ops.h"
#include "server/query_server.h"
#include "util/thread_pool.h"

using namespace adict;

namespace perfbench {

namespace {

using QueryMs = std::array<std::vector<double>, kNumTpchQueries>;

/// Request pool of the serving workloads, cycled: about what one run's
/// open and closed loops consume.
constexpr size_t kServeOps = 1 << 18;
/// Share of a serve_point phase spent in the open loop; the rest is the
/// closed loop.
constexpr double kOpenShare = 0.6;
/// Closed-loop probe after ingest_mixed's writer is done.
constexpr double kIngestCapacitySeconds = 1.0;
/// Ingest schedule: one merge round per this many seconds of phase.
constexpr double kSecondsPerRound = 4.0;
/// Window lengths of the windowed serving statistics.
constexpr double kOpenWindowSeconds = 0.1;
constexpr double kClosedWindowSeconds = 0.25;
/// Length of the serving workloads' companion TPC-H loop; tpch_qps is its
/// median pass rate.
constexpr double kCompanionTpchSeconds = 8.0;

obs::Counter* MorselCounter() {
  return obs::Metrics().GetCounter("engine.parallel.morsels", "morsels",
                                   "morsels dispatched by the parallel drivers");
}

obs::Counter* FallbackCounter() {
  return obs::Metrics().GetCounter(
      "dict.build.fallback", "events",
      "builds degraded to the next format in the chosen -> fc block -> "
      "array chain");
}

/// Span totals of one traced stretch of the run.
class SpanTotals {
 public:
  SpanTotals() {
    for (const obs::SpanStats& s : obs::SummarizeTrace(obs::Trace().Snapshot())) {
      spans_[s.name] = s;
    }
  }
  double SelfMs(std::initializer_list<const char*> names) const {
    double ns = 0;
    for (const char* name : names) {
      const auto it = spans_.find(name);
      if (it != spans_.end()) ns += static_cast<double>(it->second.exclusive_ns);
    }
    return ns / 1e6;
  }
  double InclusiveMs(const char* name) const {
    const auto it = spans_.find(name);
    return it == spans_.end() ? 0 : static_cast<double>(it->second.inclusive_ns) / 1e6;
  }
  /// Self time of the tpch.qNN spans: plan work outside engine and column
  /// spans.
  double TpchSelfMs() const {
    double ns = 0;
    for (const auto& [name, stats] : spans_) {
      if (name.rfind("tpch.q", 0) == 0) ns += static_cast<double>(stats.exclusive_ns);
    }
    return ns / 1e6;
  }

 private:
  std::map<std::string, obs::SpanStats> spans_;
};

double PerUnit(double total, double units) {
  return units > 0 ? total / units : 0;
}

struct OlapLoop {
  double seconds = 0;
  uint64_t queries = 0;
  uint64_t within_limit = 0;
  std::vector<double> latency_us;
  /// The client's own time between a result and the next query's start
  /// (the answer check): how far the closed loop's sender lags.
  std::vector<double> gap_us;
};

/// Q1..Q22 in order, repeatedly, one client thread, for `seconds`; every
/// answer checked against `expected` and counted into `out`.
OlapLoop RunOlapLoop(const TpchDatabase& db, const TpchDigests& expected,
                     double query_limit_ms, double seconds, QueryMs* query_ms,
                     Outcome* out) {
  OlapLoop loop;
  uint64_t wrong = 0;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  int64_t previous_end = start;
  for (int q = 1;; q = q % kNumTpchQueries + 1) {
    const int64_t query_start = NowNs();
    loop.gap_us.push_back(static_cast<double>(query_start - previous_end) / 1e3);
    const QueryResult result = RunTpchQuery(db, q);
    const int64_t end = NowNs();
    previous_end = end;
    if (ResultDigest(result) != expected[q - 1]) ++wrong;
    const double ms = static_cast<double>(end - query_start) / 1e6;
    (*query_ms)[q - 1].push_back(ms);
    loop.latency_us.push_back(ms * 1e3);
    if (ms <= query_limit_ms) ++loop.within_limit;
    ++loop.queries;
    if (end >= deadline) break;
  }
  loop.seconds = static_cast<double>(NowNs() - start) / 1e9;
  out->Count(loop.queries, 0, wrong);
  return loop;
}

/// Per complete Q1..Q22 pass of a loop: its rate (22 / pass time) and its
/// mean query latency.
struct Passes {
  std::vector<double> rate;
  std::vector<double> mean_us;
};

Passes CompletePasses(const OlapLoop& loop) {
  Passes passes;
  for (size_t i = 0; i + kNumTpchQueries <= loop.latency_us.size();
       i += kNumTpchQueries) {
    double sum_us = 0;
    for (size_t k = i; k < i + kNumTpchQueries; ++k) sum_us += loop.latency_us[k];
    passes.rate.push_back(kNumTpchQueries / (sum_us / 1e6));
    passes.mean_us.push_back(sum_us / kNumTpchQueries);
  }
  return passes;
}

/// tpch_qps: the median over complete passes of each pass's rate, so a
/// stalled stretch of a shared machine moves it by one pass only.
double TpchQps(const OlapLoop& loop) {
  const Passes passes = CompletePasses(loop);
  return passes.rate.empty() ? static_cast<double>(loop.queries) / loop.seconds
                             : Median(passes.rate);
}

/// Tracing is switched on for the stretches whose spans the per-layer
/// metrics fold; capacity was raised before any thread recorded.
struct TraceScope {
  explicit TraceScope(bool on) : on_(on) {
    if (on_) obs::SetTraceEnabled(true);
  }
  ~TraceScope() {
    if (on_) obs::SetTraceEnabled(false);
  }
  bool on_;
};

/// State shared by every workload.
struct Run {
  const Config& config;
  Outcome out;
  std::unique_ptr<TpchDatabase> db;
  double setup_s = 0;
  TpchDigests expected{};
  // Per-layer accumulators.
  QueryMs query_ms;
  double traced_passes = 0;
  double traced_rounds = 0;
  double passes_for_counters = 0;
  uint64_t steals = 0;
  uint64_t morsels = 0;
  std::vector<double> publish_us;
  uint64_t fallbacks_before = 0;
  double dict_bytes = 0;
  double rss_peak_mb = 0;

  explicit Run(const Config& c) : config(c) {
    db = SetupStore(config, &setup_s);
    std::string source;
    expected = ExpectedDigests(config, *db, &source);
    out.info.AddString("tpch_digests", source)
        .AddString("tpch_digest_line", DigestLine(config, expected));
    fallbacks_before = FallbackCounter()->value();
    out.info.AddNumber("setup.rss_peak_mb", PeakRssMb());
    // One untimed pass, answers checked: the first pass after setup runs
    // on cold caches and fresh heap pages, slower than the ones after it.
    QueryMs warm_up_ms;
    uint64_t wrong = 0;
    RunTpchPass(*db, expected, &warm_up_ms, &wrong);
    out.Count(kNumTpchQueries, 0, wrong);
  }

  /// rss_peak_mb covers the timed phase only: the peak is reset once the
  /// store, the request sources and the server are ready (freed heap handed
  /// back first), and read when the phase ends, before the companion,
  /// ledger and traced stretches.
  void StartTimedPhase() {
    ReleaseFreeHeap();
    ResetPeakRss();
  }
  void EndTimedPhase() { rss_peak_mb = PeakRssMb(); }

  /// A TPC-H loop outside the timed window (serving workloads), measured as
  /// tpch_olap's timed loop is; its median pass rate is the workload's
  /// tpch_qps. A traced run adds one traced pass.
  double CompanionTpch() {
    const uint64_t steals_before = Pool().steals();
    const uint64_t morsels_before = MorselCounter()->value();
    const OlapLoop loop = RunOlapLoop(*db, expected, config.query_limit_ms,
                                      kCompanionTpchSeconds, &query_ms, &out);
    steals += Pool().steals() - steals_before;
    morsels += MorselCounter()->value() - morsels_before;
    passes_for_counters += static_cast<double>(loop.queries) / kNumTpchQueries;
    if (config.trace) {
      QueryMs traced_ms;
      uint64_t wrong = 0;
      TraceScope trace(true);
      RunTpchPass(*db, expected, &traced_ms, &wrong);
      out.Count(kNumTpchQueries, 0, wrong);
      traced_passes += 1;
    }
    return TpchQps(loop);
  }

  /// One merge round of a seeded batch into `part` outside the timed
  /// window (workloads without writes); traced in a traced run.
  double CompanionMergeRound() {
    Table& part = db->part;
    const std::vector<std::vector<std::string>> rows = SynthesizePartRows(
        part, PlainRows(part), part.num_rows() + 1, kBatchRows, config.seed);
    std::vector<DeltaColumn> deltas(part.num_string_columns());
    for (size_t c = 0; c < deltas.size(); ++c) {
      for (const std::string& value : rows[c]) deltas[c].Append(value);
    }
    CompressionManager manager;
    TraceScope trace(config.trace);
    if (config.trace) traced_rounds += 1;
    return MergeRound(&part, deltas, manager, &publish_us, [](size_t) {});
  }

  /// Ledger over the workload's request stream mapped onto `tables`.
  LedgerServer Ledger(const std::vector<const Table*>& tables) {
    const std::vector<ServedColumn> columns = ServeColumns(tables);
    return RunLedger(*db, columns,
                     MakePointOps(columns, config.seed, kLedgerOps), &out);
  }

  void AddQueryLayers() {
    for (int q = 0; q < kNumTpchQueries; ++q) {
      char name[32];
      std::snprintf(name, sizeof(name), "tpch.q%02d_ms", q + 1);
      out.AddLayer(name, Median(query_ms[q]), "ms");
    }
  }

  /// Per-layer rows folded from spans and counters, shared by every
  /// workload.
  void AddSpanLayers() {
    const SpanTotals spans;
    out.AddLayer("pool.steals", PerUnit(static_cast<double>(steals), passes_for_counters), "count");
    out.AddLayer("engine.morsels", PerUnit(static_cast<double>(morsels), passes_for_counters), "count");
    out.AddLayer("engine.contains_ms",
                 PerUnit(spans.SelfMs({"engine.parallel.contains", "column.scan_dictionary"}),
                         traced_passes),
                 "ms");
    out.AddLayer("engine.map_dict_ms",
                 PerUnit(spans.SelfMs({"engine.parallel.map_dict", "engine.parallel.count_ids"}),
                         traced_passes),
                 "ms");
    out.AddLayer("tpch.plan_self_ms", PerUnit(spans.TpchSelfMs(), traced_passes), "ms");
    out.AddLayer("dict.build_ms",
                 PerUnit(spans.SelfMs({"dict.build", "guard.build", "guard.validate"}),
                         traced_rounds),
                 "ms");
    out.AddLayer("text.repair_trial_ms",
                 PerUnit(spans.SelfMs({"props.measure_strings"}), traced_rounds), "ms");
    out.AddLayer("core.decide_ms",
                 PerUnit(spans.InclusiveMs("manager.choose_format"), traced_rounds), "ms");
    out.AddLayer("store.merge_self_ms",
                 PerUnit(spans.SelfMs({"merge.delta_adaptive", "merge.encode",
                                       "column.materialize_dictionary"}),
                         traced_rounds),
                 "ms");
    out.AddLayer("store.publish_us", Median(publish_us), "us");
    std::vector<double> errors;
    std::string decisions = "[";
    for (const obs::DecisionRecord& record : obs::Decisions().Snapshot()) {
      if (!record.has_actual()) continue;
      errors.push_back(record.prediction_error());
      if (decisions.size() > 1) decisions += ", ";
      decisions += JsonObject()
                       .AddString("column", record.column_id)
                       .AddString("format", record.chosen_format_name)
                       .AddNumber("predicted_bytes", record.predicted_dict_bytes)
                       .AddNumber("actual_bytes", record.actual_dict_bytes)
                       .Render();
    }
    out.info.Add("decisions", decisions + "]");
    out.AddLayer("core.size_error_p50", Median(errors), "ratio");
    out.AddLayer("core.decisions", static_cast<double>(errors.size()), "count");
    out.AddLayer("core.fallbacks",
                 static_cast<double>(FallbackCounter()->value() - fallbacks_before),
                 "count");
    out.AddLayer("obs.spans_dropped", static_cast<double>(obs::Trace().dropped()),
                 "count");
    AddQueryLayers();
  }

  void AddServerLayers(const ResultCache::Stats& cache, uint64_t rejected,
                       double publishes, double in_server_p99_us) {
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    out.AddLayer("cache.hit_ratio", PerUnit(static_cast<double>(cache.hits), lookups), "ratio");
    out.AddLayer("cache.lookups", lookups, "count");
    out.AddLayer("cache.lru_evictions", static_cast<double>(cache.lru_evictions), "count");
    out.AddLayer("cache.stale_evictions",
                 PerUnit(static_cast<double>(cache.stale_evictions), std::max(1.0, publishes)),
                 "count");
    out.AddLayer("server.rejected", static_cast<double>(rejected), "count");
    out.AddLayer("server.in_server_p99_us", in_server_p99_us, "us");
  }

  /// Metrics every workload ends with.
  void Finish(double tpch_qps, double merge_round_ms) {
    out.AddE2E("setup_s", setup_s, "s");
    out.AddE2E("tpch_qps", tpch_qps, "queries/s");
    out.AddE2E("merge_round_p50_ms", merge_round_ms, "ms");
    out.AddE2E("dict_bytes", dict_bytes, "bytes");
    out.AddE2E("rss_peak_mb", rss_peak_mb, "MB");
    out.info.Add("formats", FormatsJson(*db));
  }
};

ResultCache::Stats Delta(const ResultCache::Stats& after,
                         const ResultCache::Stats& before) {
  ResultCache::Stats d = after;
  d.hits -= before.hits;
  d.misses -= before.misses;
  d.inserts -= before.inserts;
  d.lru_evictions -= before.lru_evictions;
  d.stale_evictions -= before.stale_evictions;
  d.flushes -= before.flushes;
  return d;
}

/// Open-loop and closed-loop figures of one serving phase.
struct ServeFigures {
  PhaseStats open;
  PhaseStats closed;
  double in_server_p99_us = 0;
};

/// An open loop at `rate`, then (when `closed_seconds` > 0) a closed loop.
ServeFigures ServePhase(LoadGenerator* gen, RequestSource* source,
                        double rate, double open_seconds,
                        double closed_seconds, double limit_us, Outcome* out) {
  ServeFigures figures;
  const std::vector<uint64_t> before = ServerRequestHistogram().bucket_counts();
  figures.open = gen->RunOpenLoop(source, rate, open_seconds, limit_us);
  figures.in_server_p99_us =
      HistogramDeltaQuantile(ServerRequestHistogram(), before, 0.99);
  out->Count(figures.open.sent, figures.open.refused, figures.open.wrong);
  if (closed_seconds > 0) {
    figures.closed = gen->RunClosedLoop(source, closed_seconds);
    out->Count(figures.closed.sent, figures.closed.refused, figures.closed.wrong);
  }
  return figures;
}

/// Samples of `values` grouped into consecutive windows of `window_s` by
/// their `at_s` (a trailing partial window is dropped).
std::vector<std::vector<double>> ByWindow(const std::vector<double>& at_s,
                                          const std::vector<double>& values,
                                          double seconds, double window_s) {
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(seconds / window_s));
  std::vector<std::vector<double>> out(windows);
  for (size_t i = 0; i < at_s.size(); ++i) {
    const size_t w = static_cast<size_t>(std::max(0.0, at_s[i]) / window_s);
    if (w < windows) out[w].push_back(values[i]);
  }
  return out;
}

/// The serving metrics are medians over windows of a per-window figure, so
/// one stalled stretch of a shared machine moves them by one window only.
void AddServingLayers(Outcome* out, const ServeFigures& f, double limit_us) {
  const auto open = ByWindow(f.open.at_s, f.open.latency_us, f.open.seconds,
                             kOpenWindowSeconds);
  std::vector<double> p50, p99, goodput;
  for (const std::vector<double>& window : open) {
    p50.push_back(Quantile(window, 0.5));
    p99.push_back(Quantile(window, 0.99));
    goodput.push_back(static_cast<double>(std::count_if(
                          window.begin(), window.end(),
                          [limit_us](double us) { return us <= limit_us; })) /
                      kOpenWindowSeconds);
  }
  std::vector<double> capacity;
  for (const std::vector<double>& window :
       ByWindow(f.closed.at_s, f.closed.at_s, f.closed.seconds,
                kClosedWindowSeconds)) {
    capacity.push_back(static_cast<double>(window.size()) / kClosedWindowSeconds);
  }
  // Request latency and throughput over loopback follow the machine's
  // scheduling stalls (see gen.late_p99_us): on a shared 4-vCPU VM whole
  // runs fall into a stalled regime that moves them two- to five-fold, so
  // they are reported beside the layers, without a bound.
  out->AddLayer("req_p50_us", Median(p50), "us");
  out->AddLayer("req_p99_us", Median(p99), "us");
  out->AddLayer("req_goodput_qps", Median(goodput), "req/s");
  out->AddLayer("capacity_qps", Median(capacity), "req/s");
  out->info.AddNumber("open_loop.samples", static_cast<double>(f.open.latency_us.size()))
      .AddNumber("open_loop.p99_us_whole_phase", Quantile(f.open.latency_us, 0.99));
}

void AddGeneratorLayers(Outcome* out, const ServeFigures& f) {
  out->AddLayer("gen.late_p99_us", Quantile(f.open.late_us, 0.99), "us");
  out->AddLayer("gen.samples", static_cast<double>(f.open.latency_us.size()), "count");
  out->info.AddNumber("open_loop.cache_hit_flags",
                      static_cast<double>(f.open.cache_hits));
}

std::vector<const Table*> AllTables(const TpchDatabase& db) { return db.tables(); }

}  // namespace

// ---- tpch_olap ----------------------------------------------------------

Outcome RunTpchOlap(const Config& config) {
  Run run(config);
  const uint64_t steals_before = Pool().steals();
  const uint64_t morsels_before = MorselCounter()->value();
  const double main_seconds = config.trace ? config.seconds / 2 : config.seconds;
  run.StartTimedPhase();
  const OlapLoop loop = RunOlapLoop(*run.db, run.expected, config.query_limit_ms,
                                    main_seconds, &run.query_ms, &run.out);
  run.EndTimedPhase();
  run.passes_for_counters = static_cast<double>(loop.queries) / kNumTpchQueries;
  run.steals = Pool().steals() - steals_before;
  run.morsels = MorselCounter()->value() - morsels_before;
  const double qps = TpchQps(loop);
  double overhead = 0;
  if (config.trace) {
    QueryMs traced_ms;
    OlapLoop traced;
    {
      TraceScope trace(true);
      traced = RunOlapLoop(*run.db, run.expected, config.query_limit_ms,
                           main_seconds, &traced_ms, &run.out);
    }
    run.traced_passes = static_cast<double>(traced.queries) / kNumTpchQueries;
    overhead = (static_cast<double>(loop.queries) / loop.seconds) /
                   (static_cast<double>(traced.queries) / traced.seconds) -
               1;
  }
  run.dict_bytes = DictBytes(*run.db);
  const double merge_ms = run.CompanionMergeRound();
  const LedgerServer ledger = run.Ledger(AllTables(*run.db));

  // A request is one query: p50 is the median over passes of the mean
  // query latency (single query latencies are multimodal, 1 ms .. 200 ms,
  // and their plain median jumps between neighbouring queries).
  run.out.AddLayer("req_p50_us", Median(CompletePasses(loop).mean_us), "us");
  run.out.AddLayer("req_p99_us", Quantile(loop.latency_us, 0.99), "us");
  run.out.AddLayer("req_goodput_qps",
                   static_cast<double>(loop.within_limit) / loop.seconds, "req/s");
  run.out.AddLayer("capacity_qps", qps, "req/s");
  run.Finish(qps, merge_ms);
  run.AddSpanLayers();
  run.AddServerLayers(ledger.cache, ledger.rejected, 0, ledger.in_server_p99_us);
  run.out.AddLayer("gen.late_p99_us", Quantile(loop.gap_us, 0.99), "us");
  run.out.AddLayer("gen.samples", static_cast<double>(loop.latency_us.size()), "count");
  run.out.AddLayer("obs.trace_overhead_ratio", overhead, "ratio");
  return std::move(run.out);
}

// ---- serve_point --------------------------------------------------------

Outcome RunServePoint(const Config& config) {
  Run run(config);
  const double tpch_qps = run.CompanionTpch();

  const std::vector<ServedColumn> columns = ServeColumns(AllTables(*run.db));
  std::unique_ptr<FixedSource> source;
  {
    const std::vector<PointOp> ops = MakePointOps(columns, config.seed, kServeOps);
    source = std::make_unique<FixedSource>(columns, ops, OpValues(columns, ops),
                                           config.plant_wrong_answer);
  }
  QueryServer server;
  server.ServeTpch(run.db.get());
  const int64_t start = NowNs();
  const Status started = server.Start();
  run.setup_s += static_cast<double>(NowNs() - start) / 1e9;
  LoadGenerator gen(server.port(), config.connections);
  if (!started.ok() || !gen.connected()) {
    std::fprintf(stderr, "query server unavailable: %s\n",
                 started.ToString().c_str());
    std::exit(2);
  }
  const ResultCache::Stats cache_before = server.cache().stats();
  const double phase = config.trace ? config.seconds / 2 : config.seconds;
  run.StartTimedPhase();
  const ServeFigures figures =
      ServePhase(&gen, source.get(), config.serve_rate, phase * kOpenShare,
                 phase * (1 - kOpenShare), config.latency_limit_us, &run.out);
  run.EndTimedPhase();
  double overhead = 0;
  if (config.trace) {
    TraceScope trace(true);
    const ServeFigures traced =
        ServePhase(&gen, source.get(), config.serve_rate, phase * kOpenShare,
                   phase * (1 - kOpenShare), config.latency_limit_us, &run.out);
    overhead = Quantile(traced.open.latency_us, 0.5) /
                   Quantile(figures.open.latency_us, 0.5) - 1;
  }
  const ResultCache::Stats cache = Delta(server.cache().stats(), cache_before);
  const QueryServer::Stats stats = server.stats();
  server.Stop();
  run.dict_bytes = DictBytes(*run.db);
  const double merge_ms = run.CompanionMergeRound();
  run.Ledger(AllTables(*run.db));

  AddServingLayers(&run.out, figures, config.latency_limit_us);
  run.Finish(tpch_qps, merge_ms);
  run.AddSpanLayers();
  run.AddServerLayers(cache, stats.rejected_requests + stats.rejected_connections, 0,
                      figures.in_server_p99_us);
  AddGeneratorLayers(&run.out, figures);
  run.out.AddLayer("obs.trace_overhead_ratio", overhead, "ratio");
  return std::move(run.out);
}

// ---- ingest_mixed -------------------------------------------------------

namespace {

/// The writer's plan for the whole run: every batch it will append and
/// each part column's sorted distinct values after every round.
struct IngestPlan {
  std::vector<std::vector<std::string>> batches_rows;  // per column, all rounds
  std::vector<std::vector<std::vector<std::string>>> version_dicts;
  std::vector<std::vector<std::string>> row_values;  // per column, final rows
  size_t rounds = 0;
};

size_t RoundsIn(double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(seconds / kSecondsPerRound));
}

IngestPlan PlanIngest(const Table& part, size_t rounds, uint64_t seed) {
  IngestPlan plan;
  plan.rounds = rounds;
  plan.row_values = PlainRows(part);  // Scan-decoded, see SortedValues
  plan.batches_rows = SynthesizePartRows(part, plan.row_values,
                                         part.num_rows() + 1,
                                         rounds * kBatchRows, seed);
  for (size_t c = 0; c < part.num_string_columns(); ++c) {
    std::vector<std::vector<std::string>> dicts;
    dicts.push_back(SortedValues(*part.string_column(c).Snapshot()));
    for (size_t r = 0; r < rounds; ++r) {
      std::vector<std::string> next = dicts.back();
      next.insert(next.end(), plan.batches_rows[c].begin() + r * kBatchRows,
                  plan.batches_rows[c].begin() + (r + 1) * kBatchRows);
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      dicts.push_back(std::move(next));
    }
    plan.version_dicts.push_back(std::move(dicts));
    plan.row_values[c].insert(plan.row_values[c].end(),
                              plan.batches_rows[c].begin(),
                              plan.batches_rows[c].end());
  }
  return plan;
}

/// One writer phase: `rounds` batches appended at a constant rate over
/// the phase, each merged and published as soon as it fills.
class Writer {
 public:
  Writer(Table* part, const IngestPlan& plan, IngestSource* source,
         size_t first_round, size_t rounds, double seconds,
         std::vector<double>* publish_us)
      : part_(part), plan_(plan), source_(source), first_round_(first_round),
        rounds_(rounds), seconds_(seconds), publish_us_(publish_us) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Writer() {
    if (thread_.joinable()) thread_.join();
  }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Waits for the last round; returns each round's milliseconds.
  std::vector<double> Join() {
    thread_.join();
    return round_ms_;
  }

 private:
  void Loop() {
    const size_t columns = part_->num_string_columns();
    const int64_t start = NowNs();
    // Batch r fills at (r + 0.25) / rounds of the phase, so the last
    // round has most of a round's slot left to merge in.
    const double slot_ns = seconds_ * 1e9 / static_cast<double>(rounds_);
    CompressionManager manager;
    for (size_t r = 0; r < rounds_; ++r) {
      std::vector<DeltaColumn> deltas(columns);
      const double fill_ns = (static_cast<double>(r) + 0.25) * slot_ns;
      const double begin_ns = r == 0 ? 0 : (static_cast<double>(r) - 0.75) * slot_ns;
      for (uint64_t j = 0; j < kBatchRows; ++j) {
        const int64_t due =
            start + static_cast<int64_t>(begin_ns + (fill_ns - begin_ns) *
                                                        static_cast<double>(j + 1) /
                                                        kBatchRows);
        const int64_t now = NowNs();
        if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        const size_t index = (first_round_ + r) * kBatchRows + j;
        for (size_t c = 0; c < columns; ++c) {
          deltas[c].Append(plan_.batches_rows[c][index]);
        }
      }
      const uint64_t rows =
          part_->num_rows() + (first_round_ + r + 1) * kBatchRows;
      round_ms_.push_back(MergeRound(part_, deltas, manager, publish_us_,
                                     [&](size_t c) { source_->Published(c, rows); }));
    }
  }

  Table* part_;
  const IngestPlan& plan_;
  IngestSource* source_;
  size_t first_round_, rounds_;
  double seconds_;
  std::vector<double>* publish_us_;
  std::vector<double> round_ms_;
  std::thread thread_;
};

}  // namespace

Outcome RunIngestMixed(const Config& config) {
  Run run(config);
  const double tpch_qps = run.CompanionTpch();

  Table& part = run.db->part;
  const double phase = config.trace ? config.seconds / 2 : config.seconds;
  const size_t rounds_per_phase = RoundsIn(phase);
  const size_t phases = config.trace ? 2 : 1;
  const IngestPlan plan = PlanIngest(part, rounds_per_phase * phases, config.seed);
  const std::vector<ServedColumn> columns = ServeColumns({&part});
  IngestSource source(columns, MakePointOps(columns, config.seed, kServeOps),
                      plan.row_values, plan.version_dicts, config.plant_wrong_answer);

  QueryServer server;
  server.RegisterTable(&part);
  const int64_t start = NowNs();
  const Status started = server.Start();
  run.setup_s += static_cast<double>(NowNs() - start) / 1e9;
  LoadGenerator gen(server.port(), config.connections);
  if (!started.ok() || !gen.connected()) {
    std::fprintf(stderr, "query server unavailable: %s\n",
                 started.ToString().c_str());
    std::exit(2);
  }
  const ResultCache::Stats cache_before = server.cache().stats();
  std::vector<double> round_ms;
  ServeFigures figures, traced;
  run.StartTimedPhase();
  for (size_t p = 0; p < phases; ++p) {
    TraceScope trace(p == 1);
    Writer writer(&part, plan, &source, p * rounds_per_phase, rounds_per_phase,
                  phase, &run.publish_us);
    (p == 0 ? figures : traced) =
        ServePhase(&gen, &source, config.ingest_rate, phase, 0,
                   config.latency_limit_us, &run.out);
    const std::vector<double> ms = writer.Join();
    if (p == 0) {
      round_ms = ms;
      run.EndTimedPhase();
    }
    if (p == 1) run.traced_rounds = static_cast<double>(ms.size());
  }
  // The timed phase is an open loop only, so the merges compete with a
  // fixed load; capacity is probed once the writer is done.
  figures.closed = gen.RunClosedLoop(&source, kIngestCapacitySeconds);
  run.out.Count(figures.closed.sent, figures.closed.refused, figures.closed.wrong);
  const ResultCache::Stats cache = Delta(server.cache().stats(), cache_before);
  const QueryServer::Stats stats = server.stats();
  server.Stop();
  run.dict_bytes = DictBytes(*run.db);
  run.Ledger({&part});

  AddServingLayers(&run.out, figures, config.latency_limit_us);
  run.Finish(tpch_qps, Median(round_ms));
  run.AddSpanLayers();
  const double publishes =
      static_cast<double>(plan.rounds * part.num_string_columns());
  run.AddServerLayers(cache, stats.rejected_requests + stats.rejected_connections,
                      publishes, figures.in_server_p99_us);
  AddGeneratorLayers(&run.out, figures);
  run.out.AddLayer("obs.trace_overhead_ratio",
                   config.trace ? Quantile(traced.open.latency_us, 0.5) /
                                          Quantile(figures.open.latency_us, 0.5) -
                                      1
                                : 0,
                   "ratio");
  run.out.info.AddNumber("ingest.rounds", static_cast<double>(plan.rounds));
  return std::move(run.out);
}

}  // namespace perfbench
