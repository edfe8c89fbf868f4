// Query performance over available memory: the hyrise-style sweep that
// shows what the pressure feedback actually buys.
//
// The database starts in the fastest (and fattest) configuration — every
// dictionary a raw pointer array — against a generous simulated budget.
// The budget then shrinks stepwise; a SimulatedProvider reports
// (used = live footprint, total = budget) and one synchronous
// RecompressionScheduler per table reacts: as the used fraction climbs
// through the advisory/urgent/critical tiers, dictionaries are rebuilt into
// ever cheaper formats, which in turn lowers the used fraction. At every
// step the sweep records Q1/Q6 latency, the total dictionary footprint, the
// pressure level, and every column's format — the trade-off curve of
// docs/memory_pressure.md.
//
// Results are JSON rows ({bench, step, budget_bytes, metric, value, unit,
// detail, rss_bytes, git_sha}) written to BENCH_memory.json. Absolute
// timings are machine-dependent; CI runs --quick, validates the schema, and
// uploads the artifact without gating on timings.
//
//   $ ./build/bench/memory_pressure_curve            # SF 0.1, full sweep
//   $ ./build/bench/memory_pressure_curve --quick    # CI smoke scale
//   $ ./build/bench/memory_pressure_curve --sf 0.5 --out /tmp/m.json
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/compression_manager.h"
#include "core/recompression_scheduler.h"
#include "obs/export.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "util/memory_pressure.h"
#include "util/stopwatch.h"

using namespace adict;

namespace {

struct Config {
  double scale_factor = 0.1;
  int reps = 10;  // query repetitions per measurement
  int ticks_per_step = 12;
  // Budget steps as multiples of the initial (array-format) footprint.
  std::vector<double> budget_steps = {2.0, 1.5, 1.2, 1.0,
                                      0.9, 0.8, 0.7, 0.6};
  std::string out_path = "BENCH_memory.json";
};

struct Row {
  int step = 0;
  uint64_t budget_bytes = 0;
  std::string metric;  // q1_mean_ms | q6_mean_ms | dict_bytes | used_bytes |
                       // pressure_level | rebuilds_total |
                       // reclaimed_bytes_total | format
  double value = 0;
  std::string unit;    // ms | bytes | level | rebuilds | format_id
  std::string detail;  // format rows: "table.column=format name", else ""
};

uint64_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t rss_kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %" SCNu64 " kB", &rss_kb) == 1) break;
  }
  std::fclose(f);
  return rss_kb * 1024;
}

std::string GitSha() {
  if (const char* env = std::getenv("GITHUB_SHA"); env != nullptr) return env;
  std::string sha;
  if (std::FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha = buf;
    pclose(pipe);
  }
  while (!sha.empty() && std::isspace(static_cast<unsigned char>(sha.back()))) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

/// Flat JSON array, one object per row: the BENCH_memory.json schema.
std::string RowsToJson(const std::vector<Row>& rows, uint64_t rss_bytes,
                       const std::string& git_sha) {
  std::string out = "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    obs::Appendf(&out,
                 "  {\"bench\":\"pressure_curve\",\"step\":%d,"
                 "\"budget_bytes\":%llu,\"metric\":",
                 row.step, static_cast<unsigned long long>(row.budget_bytes));
    obs::AppendJsonString(&out, row.metric);
    obs::Appendf(&out, ",\"value\":%.6g,\"unit\":", row.value);
    obs::AppendJsonString(&out, row.unit);
    out.append(",\"detail\":");
    obs::AppendJsonString(&out, row.detail);
    obs::Appendf(&out, ",\"rss_bytes\":%llu,\"git_sha\":",
                 static_cast<unsigned long long>(rss_bytes));
    obs::AppendJsonString(&out, git_sha);
    out.push_back('}');
    if (i + 1 < rows.size()) out.push_back(',');
    out.push_back('\n');
  }
  out.append("]\n");
  return out;
}

double MeanQueryMs(const TpchDatabase& db, int q, int reps) {
  Stopwatch watch;
  for (int r = 0; r < reps; ++r) (void)RunTpchQuery(db, q);
  return watch.ElapsedSeconds() * 1e3 / reps;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      config.scale_factor = 0.01;
      config.reps = 2;
      config.ticks_per_step = 8;
      config.budget_steps = {1.5, 1.0, 0.7};
    } else if (arg == "--sf" && i + 1 < argc) {
      config.scale_factor = std::strtod(argv[++i], nullptr);
    } else if (arg == "--reps" && i + 1 < argc) {
      config.reps = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      config.out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--sf N] [--reps N] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  TpchOptions options;
  options.scale_factor = config.scale_factor;
  std::fprintf(stderr, "generating TPC-H at SF %.3g...\n",
               config.scale_factor);
  TpchDatabase db = GenerateTpch(options);

  // Fastest/fattest starting configuration: the scheduler has to earn every
  // byte back as the budget shrinks.
  db.ApplyFormat(DictFormat::kArray);
  // Prime the usage traces so the ranking and the time model see a
  // scan-heavy workload, not idle columns.
  (void)RunTpchQuery(db, 1);
  (void)RunTpchQuery(db, 6);

  const uint64_t initial_used = db.MemoryBytes();
  const uint64_t other_bytes = initial_used - db.StringColumnBytes();

  CompressionManager manager;
  SimulatedProvider provider(initial_used, initial_used * 2);

  // One synchronous scheduler per table, sharing the manager. Only the
  // controller feed is centralized (one Observe per tick, not eight).
  RecompressionScheduler::Options sched_options;
  sched_options.synchronous = true;
  sched_options.feed_controller = false;
  sched_options.smoothing = 0.5;
  sched_options.cooldown_ticks = 2;
  sched_options.advisory_period_ticks = 2;
  sched_options.max_rebuilds_per_tick = 2;
  sched_options.critical_max_rebuilds_per_tick = 4;
  std::vector<std::unique_ptr<RecompressionScheduler>> schedulers;
  for (Table* table : db.tables()) {
    schedulers.push_back(std::make_unique<RecompressionScheduler>(
        table, &manager, sched_options));
  }

  std::vector<Row> rows;
  for (size_t step = 0; step < config.budget_steps.size(); ++step) {
    const uint64_t budget = static_cast<uint64_t>(
        config.budget_steps[step] * static_cast<double>(initial_used));
    provider.set_total_bytes(budget);

    // Let the feedback settle: each tick re-measures the live footprint
    // (rebuilds lower it), feeds the controller, and drives the schedulers.
    for (int tick = 0; tick < config.ticks_per_step; ++tick) {
      const uint64_t used = other_bytes + db.StringColumnBytes();
      provider.set_used_bytes(used);
      const StatusOr<MemorySample> sample = provider.Sample();
      if (!sample.ok()) continue;
      manager.controller().Observe(static_cast<double>(sample->free_bytes()),
                                   static_cast<double>(sample->total_bytes));
      for (auto& scheduler : schedulers) scheduler->OnSample(sample);
    }

    const double q1_ms = MeanQueryMs(db, 1, config.reps);
    const double q6_ms = MeanQueryMs(db, 6, config.reps);
    const uint64_t dict_bytes = db.StringColumnBytes();
    const uint64_t used = other_bytes + dict_bytes;
    uint64_t rebuilds = 0, reclaimed = 0;
    PressureLevel level = PressureLevel::kNone;
    for (const auto& scheduler : schedulers) {
      const RecompressionScheduler::Stats stats = scheduler->stats();
      rebuilds += stats.rebuilds;
      reclaimed += stats.reclaimed_bytes;
      level = std::max(level, stats.level);
    }

    const int step_id = static_cast<int>(step);
    rows.push_back({step_id, budget, "q1_mean_ms", q1_ms, "ms", ""});
    rows.push_back({step_id, budget, "q6_mean_ms", q6_ms, "ms", ""});
    rows.push_back({step_id, budget, "dict_bytes",
                    static_cast<double>(dict_bytes), "bytes", ""});
    rows.push_back({step_id, budget, "used_bytes", static_cast<double>(used),
                    "bytes", ""});
    rows.push_back({step_id, budget, "pressure_level",
                    static_cast<double>(level), "level",
                    std::string(PressureLevelName(level))});
    rows.push_back({step_id, budget, "rebuilds_total",
                    static_cast<double>(rebuilds), "rebuilds", ""});
    rows.push_back({step_id, budget, "reclaimed_bytes_total",
                    static_cast<double>(reclaimed), "bytes", ""});
    for (const Table* table : db.tables()) {
      for (size_t i = 0; i < table->num_string_columns(); ++i) {
        const DictFormat format = table->string_column(i).Snapshot()->format();
        rows.push_back({step_id, budget, "format",
                        static_cast<double>(static_cast<int>(format)),
                        "format_id",
                        table->name() + "." + table->string_column_name(i) +
                            "=" + std::string(DictFormatName(format))});
      }
    }
    std::fprintf(stderr,
                 "step=%zu budget=%.2fx  q1 %.2f ms  q6 %.2f ms  dict %.1f MB"
                 "  level=%s  rebuilds=%llu\n",
                 step, config.budget_steps[step], q1_ms, q6_ms,
                 static_cast<double>(dict_bytes) / (1024.0 * 1024.0),
                 std::string(PressureLevelName(level)).c_str(),
                 static_cast<unsigned long long>(rebuilds));
  }

  for (auto& scheduler : schedulers) scheduler->Stop();

  const std::string json = RowsToJson(rows, CurrentRssBytes(), GitSha());
  std::FILE* out = std::fopen(config.out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", config.out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::fprintf(stderr, "wrote %zu rows to %s\n", rows.size(),
               config.out_path.c_str());
  return 0;
}
