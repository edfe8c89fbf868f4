// adict_perfbench, the end-to-end benchmark: sets up the seeded TPC-H
// store, runs one workload (tpch_olap, serve_point or ingest_mixed) against
// the real layers, checks every answer, and prints one JSON result line
// last.
//
//   adict_perfbench --workload serve_point --seed 7 --seconds 10 --trace 0
//       --serve-rate 20000 --ingest-rate 5000 --latency-limit-us 2000
//       --query-limit-ms 1000
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (half the time untraced, half with the span tracer on). A wrong answer
// makes the result incorrect and the exit code 1.
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

using namespace perfbench;

namespace {

/// Span buffer per thread in a traced run: room for the busiest
/// connection thread of a traced serving phase.
constexpr size_t kTraceCapacity = 1 << 18;

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: adict_perfbench --workload tpch_olap|serve_point|"
               "ingest_mixed --seed N --seconds S --trace 0|1 "
               "--serve-rate R --ingest-rate R --latency-limit-us U "
               "--query-limit-ms M [--sf F] [--expected-dir D] "
               "[--plant-wrong-answer] [--git-sha S] [--source-digest S]\n"
               "       adict_perfbench --print-digests --seed N [--sf F]\n",
               message);
  std::exit(2);
}

double Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  config.connections =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::string git_sha = "unknown", source_digest = "unknown";
  bool print_digests = false;
  std::set<std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--plant-wrong-answer" || arg == "--print-digests") {
      (arg == "--print-digests" ? print_digests : config.plant_wrong_answer) = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    given.insert(arg);
    if (arg == "--workload") config.workload = value;
    else if (arg == "--seed") config.seed = std::strtoull(value, nullptr, 10);
    else if (arg == "--seconds") config.seconds = std::atof(value);
    else if (arg == "--trace") config.trace = std::atoi(value) != 0;
    else if (arg == "--sf") config.scale_factor = std::atof(value);
    else if (arg == "--serve-rate") config.serve_rate = std::atof(value);
    else if (arg == "--ingest-rate") config.ingest_rate = std::atof(value);
    else if (arg == "--latency-limit-us") config.latency_limit_us = std::atof(value);
    else if (arg == "--query-limit-ms") config.query_limit_ms = std::atof(value);
    else if (arg == "--expected-dir") config.expected_dir = value;
    else if (arg == "--git-sha") git_sha = value;
    else if (arg == "--source-digest") source_digest = value;
    else Usage(("unknown argument " + arg).c_str());
  }
  if (config.scale_factor <= 0) Usage("bad --sf");
  if (!given.contains("--seed")) Usage("missing --seed");
  if (print_digests) {
    // Regenerates a line of expected/tpch_digests.txt for (sf, seed).
    const auto db = GenerateStore(config);
    std::printf("%s\n", DigestLine(config, ReferenceDigests(*db)).c_str());
    return 0;
  }
  // The rates and limits are the constants of BENCHMARK.json's command;
  // none has a default of its own.
  for (const char* flag : {"--workload", "--seconds", "--trace", "--serve-rate",
                           "--ingest-rate", "--latency-limit-us", "--query-limit-ms"}) {
    if (!given.contains(flag)) Usage((std::string("missing ") + flag).c_str());
  }
  if (config.seconds <= 0 || config.serve_rate <= 0 || config.ingest_rate <= 0 ||
      config.latency_limit_us <= 0 || config.query_limit_ms <= 0) {
    Usage("--seconds, rates and limits must be positive");
  }

  // The program's defaults: obs on, tracing off until a traced stretch.
  adict::obs::SetEnabled(true);
  adict::obs::SetTraceEnabled(false);
  if (config.trace) adict::obs::Trace().set_per_thread_capacity(kTraceCapacity);

  Outcome out;
  if (config.workload == "tpch_olap") out = RunTpchOlap(config);
  else if (config.workload == "serve_point") out = RunServePoint(config);
  else if (config.workload == "ingest_mixed") out = RunIngestMixed(config);
  else Usage(("unknown workload " + config.workload).c_str());

  const char* threads_env = std::getenv("ADICT_THREADS");
  JsonObject provenance;
  provenance.AddString("workload", config.workload)
      .AddString("git_sha", git_sha)
      .AddString("source_digest", source_digest)
      .AddNumber("nproc", std::thread::hardware_concurrency())
      .AddString("adict_threads", threads_env == nullptr ? "unset" : threads_env)
      .AddNumber("pool_parallelism", static_cast<double>(adict::PoolParallelism()))
      .AddString("build_type", ADICT_PERFBENCH_BUILD_TYPE)
      .AddNumber("sf", config.scale_factor)
      .AddNumber("seed", static_cast<double>(config.seed))
      .AddNumber("seconds", config.seconds)
      .AddNumber("trace", config.trace ? 1 : 0)
      .AddNumber("serve_rate", config.serve_rate)
      .AddNumber("ingest_rate", config.ingest_rate)
      .AddNumber("latency_limit_us", config.latency_limit_us)
      .AddNumber("query_limit_ms", config.query_limit_ms)
      .AddNumber("connections", config.connections)
      .AddNumber("gen.late_p99_us", Find(out.per_layer, "gen.late_p99_us"))
      .AddNumber("fail_ratio", out.attempted == 0
                                   ? 0
                                   : static_cast<double>(out.failed) /
                                         static_cast<double>(out.attempted))
      .AddNumber("wrong", static_cast<double>(out.wrong));
  std::printf("perfbench-provenance %s\n", provenance.Render().c_str());
  std::printf("perfbench-info %s\n", out.info.Render().c_str());
  if (config.trace) {
    std::fprintf(stderr, "%s",
                 adict::obs::TraceSummaryToText(adict::obs::Trace().Snapshot(),
                                                adict::obs::Trace().dropped())
                     .c_str());
  }

  JsonObject metrics;
  for (const Metric& m : config.trace ? out.per_layer : out.end_to_end) {
    metrics.Add(m.name, JsonObject()
                            .AddNumber("value", m.value)
                            .AddString("unit", m.unit)
                            .Render());
  }
  JsonObject result;
  result.Add("correct", out.wrong == 0 ? "true" : "false")
      .AddNumber("attempted", static_cast<double>(std::max<uint64_t>(1, out.attempted)))
      .AddNumber("failed", static_cast<double>(out.failed))
      .Add("metrics", metrics.Render());
  std::printf("%s\n", result.Render().c_str());
  std::fflush(stdout);
  return out.wrong == 0 ? 0 : 1;
}
