// Adaptive store: the full lifecycle of the paper end to end.
//
// A small column store runs a read workload while inserts accumulate in a
// write-optimized delta. At every periodic delta merge the dictionary is
// rebuilt anyway, so the compression manager re-decides its format from the
// traced usage — steered by a global trade-off parameter c that a feedback
// controller adjusts from (simulated) memory pressure.
//
//   $ ./build/examples/adaptive_store
//   $ ./build/examples/adaptive_store --trace /tmp/adict.trace.json
//   $ ./build/examples/adaptive_store --mem-pressure
//   $ ./build/examples/adaptive_store --metrics-port 9464 --serve 60
//
// With --trace, span tracing is enabled for the run and the file receives
// Chrome trace_event JSON — open it in https://ui.perfetto.dev or
// chrome://tracing to see where the time inside each merge went (sampling,
// model evaluation, candidate build, validation). A per-span summary is
// printed at the end of the run.
//
// With --mem-pressure, the example instead demos the other half of the
// feedback story (docs/memory_pressure.md): a live RecompressionScheduler
// polling a simulated memory budget on a real background sampler thread,
// rebuilding the store's columns into cheaper formats as the budget
// shrinks — no merges needed, scans never blocked.
//
// With --metrics-port N (or ADICT_METRICS_PORT=N in the environment), an
// HTTP exposition server runs on 127.0.0.1:N for the life of the process:
// curl /metrics, /profile.json, /decisions.json while the demo runs
// (docs/observability.md#http-endpoints). --serve SECONDS additionally
// loops the 22 TPC-H queries over a small generated database for that many
// seconds, so there is a live workload to scrape: per-column heat, latency
// quantiles, and per-query attribution stay in motion the whole time.
//
// With --serve-port N (or ADICT_SERVE_PORT=N), the binary query server
// (docs/serving.md) listens on 127.0.0.1:N over the same TPC-H database:
// network clients issue counts, selects, and full TPC-H queries through the
// length-prefixed protocol, with repeated queries answered from the
// epoch-invalidated result cache. Combine with --serve SECONDS to bound
// the run, or run without it to serve until killed.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/compression_manager.h"
#include "core/recompression_scheduler.h"
#include "datasets/generators.h"
#include "obs/export.h"
#include "obs/http_exporter.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/workload_profiler.h"
#include "server/query_server.h"
#include "store/delta.h"
#include "store/string_column.h"
#include "store/table.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "util/memory_pressure.h"
#include "util/rng.h"

using namespace adict;

namespace {

// Three columns of one table with very different content and heat.
struct ManagedColumn {
  const char* name;
  const char* dataset;     // content generator
  uint64_t reads_per_tick; // workload heat
  DeltaColumn delta;
};

void PrintState(const Table& table, const std::vector<ManagedColumn>& columns,
                double c) {
  std::printf("    c = %-8.4f", c);
  for (const ManagedColumn& col : columns) {
    const auto column = table.SnapshotStrings(col.name);
    std::printf("  %s=%s (%zu KB)", col.name,
                std::string(DictFormatName(column->format())).c_str(),
                column->MemoryBytes() / 1024);
  }
  std::printf("\n");
}

// --mem-pressure: a table under a live, shrinking memory budget. The
// scheduler owns a background MemorySampler over a SimulatedProvider; the
// main thread only moves the budget and keeps scanning — every rebuild
// happens behind its back via snapshot-swap publishes.
int RunMemPressureDemo() {
  constexpr uint64_t kRows = 12000;
  Table table("demo");
  table.AddStringColumn("hot_mat",
                        StringColumn::FromValues(
                            GenerateSurveyDataset("mat", kRows),
                            DictFormat::kArray));
  table.AddStringColumn("warm_url",
                        StringColumn::FromValues(
                            GenerateSurveyDataset("url", kRows),
                            DictFormat::kArray));
  table.AddStringColumn("cold_src",
                        StringColumn::FromValues(
                            GenerateSurveyDataset("src", kRows),
                            DictFormat::kArray));
  // Heat the columns unevenly so the ranking has something to rank: the
  // scheduler rebuilds big, cold dictionaries before hot ones.
  Rng rng(7);
  {
    const TableSnapshot snapshot = table.Snapshot();
    for (int i = 0; i < 20000; ++i) {
      (void)snapshot.strings("hot_mat").GetValue(rng.Uniform(kRows));
    }
    for (int i = 0; i < 500; ++i) {
      (void)snapshot.strings("warm_url").GetValue(rng.Uniform(kRows));
    }
  }

  const uint64_t store_bytes = table.MemoryBytes();
  std::printf("store starts all-array: %.2f MB of dictionaries\n\n",
              store_bytes / 1e6);

  // Demo pacing: a lower sampling floor keeps each rebuild decision at
  // milliseconds on these small columns (the Re-Pair trial dominates
  // sampling; see docs/tuning_guide.md), so the live loop stays visibly
  // responsive even on a single-core box where pool rebuilds run inline.
  CompressionManager::Options manager_options;
  manager_options.sampling.min_entries = 512;
  CompressionManager manager(CostModel::Default(), manager_options);
  RecompressionScheduler::Options options;
  options.cooldown_ticks = 2;
  options.advisory_period_ticks = 2;
  RecompressionScheduler scheduler(&table, &manager, options);

  auto provider = std::make_unique<SimulatedProvider>(
      /*used_bytes=*/store_bytes, /*total_bytes=*/store_bytes * 2);
  SimulatedProvider* budget = provider.get();
  scheduler.AttachSampler(std::move(provider), /*period_millis=*/20);

  // The budget shrinks toward the store's own footprint and recovers.
  const double budget_steps[] = {2.0, 1.3, 1.05, 0.9, 0.9, 1.5, 2.0};
  for (double step : budget_steps) {
    budget->set_total_bytes(static_cast<uint64_t>(store_bytes * step));
    // Used memory tracks the store as rebuilds reclaim dictionaries, and
    // scans keep running while the sampler thread triggers rebuilds.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    uint64_t scanned = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      const auto snapshot = table.SnapshotStrings("hot_mat");
      for (int i = 0; i < 1000; ++i) {
        scanned += snapshot->GetValue(rng.Uniform(kRows)).size();
      }
      budget->set_used_bytes(table.MemoryBytes());
    }
    const RecompressionScheduler::Stats stats = scheduler.stats();
    std::printf("budget %4.2fx store: level=%-8s rebuilds=%-3llu %5.1f MB |",
                step, std::string(PressureLevelName(stats.level)).c_str(),
                static_cast<unsigned long long>(stats.rebuilds),
                table.MemoryBytes() / 1e6);
    for (size_t i = 0; i < table.num_string_columns(); ++i) {
      const auto snapshot = table.string_column(i).Snapshot();
      std::printf(" %s=%s", table.string_column_name(i).c_str(),
                  std::string(DictFormatName(snapshot->format())).c_str());
    }
    std::printf("  (scanned %llu bytes)\n",
                static_cast<unsigned long long>(scanned));
  }

  // Let the sampler see the recovered budget (a slow in-flight rebuild can
  // hold it up for a moment on a single-core box) and show the tier clear.
  const auto settle_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (scheduler.level() != PressureLevel::kNone &&
         std::chrono::steady_clock::now() < settle_deadline) {
    budget->set_used_bytes(table.MemoryBytes());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::printf("budget recovered:   level=%-8s %5.1f MB\n",
              std::string(PressureLevelName(scheduler.level())).c_str(),
              table.MemoryBytes() / 1e6);
  scheduler.Stop();

  std::printf(
      "\nExpected behaviour: as the budget shrinks toward the store's own\n"
      "footprint the pressure tier rises and the scheduler rebuilds the\n"
      "coldest, fattest dictionaries into compressed formats; when the\n"
      "budget recovers, the pressure clears and rebuilds stop. The scans\n"
      "above ran against pinned snapshots the whole time.\n");
  std::printf("\n--- observability report ---\n");
  std::printf("%s", obs::DecisionLogToText(obs::Decisions(),
                                           /*max_entries=*/6).c_str());
  obs::Profiler().RefreshScrapeMetrics();
  std::printf("%s", obs::MetricsToText(obs::Metrics()).c_str());
  return 0;
}

// --serve SECONDS / --serve-port N: a generated SF 0.01 TPC-H database,
// optionally looped by the 22 queries in-process (so the HTTP endpoints
// have a live workload) and optionally exposed to network clients through
// the binary query server. With --serve-port but no --serve, blocks until
// killed.
int RunServeLoop(double seconds, int serve_port) {
  TpchOptions options;
  TpchDatabase db = GenerateTpch(options);
  std::printf("TPC-H database ready (%zu MB)\n",
              db.MemoryBytes() / (1024 * 1024));

  QueryServer server([&] {
    QueryServer::Options server_options = QueryServer::OptionsFromEnv();
    server_options.port = serve_port;
    return server_options;
  }());
  if (serve_port >= 0) {
    server.ServeTpch(&db);
    const Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "query server failed to start: %s\n",
                   std::string(started.message()).c_str());
      return 2;
    }
    std::printf("query server: 127.0.0.1:%d (binary protocol, "
                "docs/serving.md; cache %zu KB)\n",
                server.port(), server.options().cache_bytes / 1024);
  }

  if (seconds < 0) {
    // Serve-only mode: park the main thread while the server runs.
    std::printf("serving until killed\n");
    while (true) std::this_thread::sleep_for(std::chrono::seconds(1));
  }

  std::printf("running TPC-H workload for %.0f s\n", seconds);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000));
  uint64_t runs = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int query = 1; query <= kNumTpchQueries; ++query) {
      (void)RunTpchQuery(db, query);
      ++runs;
      if (std::chrono::steady_clock::now() >= deadline) break;
    }
  }
  std::printf("ran %llu queries\n", static_cast<unsigned long long>(runs));
  server.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path = nullptr;
  bool mem_pressure = false;
  int metrics_port = -1;
  int serve_port = -1;
  double serve_seconds = -1;
  if (const char* env = std::getenv("ADICT_METRICS_PORT")) {
    metrics_port = std::atoi(env);
  }
  if (const char* env = std::getenv("ADICT_SERVE_PORT")) {
    serve_port = std::atoi(env);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--mem-pressure") == 0) {
      mem_pressure = true;
    } else if (std::strcmp(argv[i], "--metrics-port") == 0 && i + 1 < argc) {
      metrics_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--serve-port") == 0 && i + 1 < argc) {
      serve_port = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: adaptive_store [--trace FILE] [--mem-pressure] "
                   "[--metrics-port N] [--serve SECONDS] [--serve-port N]\n");
      return 2;
    }
  }

  obs::RegisterProcessMetrics(kNumDictFormats);
  obs::HttpExporter exporter([&] {
    obs::HttpExporter::Options options;
    options.port = metrics_port < 0 ? 0 : metrics_port;
    return options;
  }());
  if (metrics_port >= 0) {
    const Status started = exporter.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "metrics server failed to start: %s\n",
                   std::string(started.message()).c_str());
      return 2;
    }
    std::printf("metrics: http://127.0.0.1:%d/metrics (also /profile.json, "
                "/decisions.json, /spans.json, /healthz)\n",
                exporter.port());
  }

  if (serve_seconds >= 0 || serve_port >= 0) {
    return RunServeLoop(serve_seconds, serve_port);
  }
  if (mem_pressure) return RunMemPressureDemo();
  if (trace_path != nullptr) obs::SetTraceEnabled(true);

  Rng rng(7);
  std::vector<ManagedColumn> columns;
  columns.push_back({"hot_mat", "mat", 200000, DeltaColumn()});
  columns.push_back({"warm_url", "url", 5000, DeltaColumn()});
  columns.push_back({"cold_src", "src", 50, DeltaColumn()});
  // The table traces every access into each column's usage record.
  Table store("store");
  for (const ManagedColumn& col : columns) {
    store.AddStringColumn(
        col.name,
        StringColumn::FromValues(GenerateSurveyDataset(col.dataset, 20000),
                                 DictFormat::kFcInline));
  }

  CompressionManager::Options manager_options;
  manager_options.controller.smoothing = 0.5;  // responsive demo pacing
  CompressionManager manager(CostModel::Default(), manager_options);
  std::printf("initial state (everything fc inline):\n");
  PrintState(store, columns, manager.c());

  // Simulated memory environment: the store's own footprint plus a phase-
  // dependent external load eats into a fixed budget. The middle phase
  // pushes free memory well below the controller's target.
  const double total_memory = 16.0 * 1024 * 1024;  // 16 MB budget
  const double external_load[] = {2e6,  8e6,  14e6, 14.5e6, 14.5e6, 14.5e6,
                                  14e6, 8e6,  2e6,  1e6,    1e6,    1e6};
  const int num_ticks = static_cast<int>(std::size(external_load));

  for (int tick = 0; tick < num_ticks; ++tick) {
    // 1. Run the read workload (traced by the table's columns).
    const TableSnapshot snapshot = store.Snapshot();
    for (const ManagedColumn& col : columns) {
      const StringColumn& column = snapshot.strings(col.name);
      for (uint64_t i = 0; i < col.reads_per_tick / 100; ++i) {
        (void)column.GetValue(rng.Uniform(column.num_rows()));
      }
      (void)column.Locate("probe");
    }

    // 2. Inserts accumulate in the deltas.
    for (ManagedColumn& col : columns) {
      for (int i = 0; i < 50; ++i) {
        col.delta.Append("new-" + std::to_string(tick) + "-" +
                         std::to_string(rng.Uniform(1000)));
      }
    }

    // 3. The controller observes memory pressure and adjusts c.
    const double used = external_load[tick] + store.MemoryBytes();
    const double c = manager.controller().Observe(total_memory - used,
                                                  total_memory);

    // 4. Periodic delta merge: dictionaries are rebuilt anyway, so the
    //    manager re-decides each format (scaling the traced counts to the
    //    full tick gives the per-lifetime usage).
    for (ManagedColumn& col : columns) {
      store.PublishStrings(
          col.name,
          MergeDeltaAdaptive(snapshot.strings(col.name), col.delta, manager,
                             /*lifetime_seconds=*/60.0, col.name));
      col.delta = DeltaColumn();
    }

    std::printf("tick %d: external load %4.1f MB, free %5.1f%%\n", tick,
                external_load[tick] / 1e6,
                100.0 * manager.controller().smoothed_free_fraction());
    PrintState(store, columns, c);
  }

  std::printf(
      "\nExpected behaviour: as the external load peaks, c drops and merges\n"
      "move the columns into heavier compression (the cold column first);\n"
      "when the pressure recedes, c recovers and the hot column gets a fast\n"
      "format back. Rows survive every merge:\n");
  for (const ManagedColumn& col : columns) {
    const auto column = store.SnapshotStrings(col.name);
    std::printf("  %s: %llu rows, %u distinct, format %s\n", col.name,
                static_cast<unsigned long long>(column->num_rows()),
                column->num_distinct(),
                std::string(DictFormatName(column->format())).c_str());
  }

  // The observability layer saw every decision and rebuild: per merged
  // column the chosen format, predicted vs actual dictionary bytes, the
  // relative prediction error, and c at decision time — plus the global
  // metric counters/timers behind the run (docs/observability.md).
  std::printf("\n--- observability report ---\n");
  std::printf("%s", obs::DecisionLogToText(obs::Decisions(),
                                           /*max_entries=*/9).c_str());
  obs::Profiler().RefreshScrapeMetrics();
  std::printf("%s", obs::MetricsToText(obs::Metrics()).c_str());

  if (trace_path != nullptr) {
    const std::vector<obs::TraceEvent> events = obs::Trace().Snapshot();
    const std::string json = obs::TraceToChromeJson(events);
    if (std::FILE* f = std::fopen(trace_path, "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("\nwrote %zu spans to %s (open in ui.perfetto.dev)\n",
                  events.size(), trace_path);
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path);
      return 2;
    }
    std::printf("%s",
                obs::TraceSummaryToText(events, obs::Trace().dropped())
                    .c_str());
  }
  return 0;
}
