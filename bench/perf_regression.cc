// Machine-readable perf-regression harness: the repo's continuous record of
// the *time* axis of the paper's (size, time) trade-off.
//
// Times the five hot operations — extract, locate, scan, build, merge —
// across all 18 dictionary formats on a fixed, seeded dataset, extracts
// p50/p95/p99 from obs::Histogram via Histogram::Quantile, and writes the
// results as JSON rows ({bench, format, metric, value, unit, rss_bytes,
// git_sha, nproc}) to BENCH_core.json. A later run can compare itself
// against a committed baseline and exit non-zero on regression:
//
//   $ ./build/bench/perf_regression                         # measure + write
//   $ ./build/bench/perf_regression --quick                 # CI smoke scale
//   $ ./build/bench/perf_regression --baseline BENCH_core.json --tolerance 0.15
//   $ ./build/bench/perf_regression --selftest              # compare-mode check
//
// The baseline is read and parsed up front, before any measurement and
// before the fresh results are written to --out. Pointing --baseline at the
// same file as --out (the rolling-baseline workflow above) therefore
// compares the current run against the committed values and only then
// advances the file.
//
// Absolute timings are machine-dependent; the JSON is the interchange format
// and the tolerance check is meant for same-machine comparisons (CI uploads
// the artifact but does not gate on timings).
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datasets/generators.h"
#include "dict/dictionary.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "store/delta.h"
#include "store/string_column.h"
#include "util/rng.h"

using namespace adict;

namespace {

// ---------------------------------------------------------------------------
// Measurement scaffolding
// ---------------------------------------------------------------------------

struct Config {
  size_t num_strings = 10000;
  size_t extract_ops = 20000;
  size_t locate_ops = 5000;
  int scan_reps = 3;
  int build_reps = 5;  // builds and merges; each reports the median
  size_t delta_rows = 500;
  std::string out_path = "BENCH_core.json";
  std::string baseline_path;
  double tolerance = 0.15;
  bool selftest = false;
};

struct Row {
  std::string bench;   // extract | locate | scan | build | merge
  std::string format;  // paper-style name, e.g. "fc block rp 12"
  std::string metric;  // p50_ns, p95_ns, p99_ns, total_us, ns_per_entry
  double value = 0;
  std::string unit;  // ns | us
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// 1-2-5 ladder from 10 ns to 1 s: per-operation latencies of every format
/// class land well inside it.
std::span<const double> NanosecondBuckets() {
  static const std::vector<double>* bounds = [] {
    auto* b = new std::vector<double>();
    for (double decade = 10; decade < 1e9; decade *= 10) {
      b->push_back(decade);
      b->push_back(2 * decade);
      b->push_back(5 * decade);
    }
    b->push_back(1e9);
    return b;
  }();
  return *bounds;
}

double MedianUs(std::vector<double> samples_us) {
  std::sort(samples_us.begin(), samples_us.end());
  return samples_us.empty() ? 0 : samples_us[samples_us.size() / 2];
}

void PushQuantiles(std::vector<Row>* rows, const std::string& bench,
                   const std::string& format, const obs::Histogram& hist) {
  rows->push_back({bench, format, "p50_ns", hist.Quantile(0.50), "ns"});
  rows->push_back({bench, format, "p95_ns", hist.Quantile(0.95), "ns"});
  rows->push_back({bench, format, "p99_ns", hist.Quantile(0.99), "ns"});
}

std::vector<Row> RunBenchmarks(const Config& config) {
  // Seeded generator + seeded op sequences: two runs of the same binary
  // measure exactly the same work.
  const std::vector<std::string> dataset =
      GenerateSurveyDataset("src", config.num_strings, /*seed=*/42);

  // Row IDs of the merge-bench main column, reused across formats.
  Rng id_rng(7);
  std::vector<uint32_t> main_ids(config.num_strings);
  for (uint32_t& id : main_ids) {
    id = static_cast<uint32_t>(id_rng.Uniform(dataset.size()));
  }

  std::vector<Row> rows;
  for (DictFormat format : AllDictFormats()) {
    const std::string name(DictFormatName(format));

    // build: full construction, median over a few reps.
    std::vector<double> build_us;
    std::unique_ptr<Dictionary> dict;
    for (int rep = 0; rep < config.build_reps; ++rep) {
      const uint64_t t0 = NowNs();
      dict = BuildDictionary(format, dataset);
      build_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    rows.push_back({"build", name, "total_us", MedianUs(build_us), "us"});

    // extract: random single-tuple access, per-op latency distribution.
    {
      obs::Histogram hist(NanosecondBuckets());
      Rng rng(1);
      std::string scratch;
      for (size_t i = 0; i < config.extract_ops; ++i) {
        const uint32_t id = static_cast<uint32_t>(rng.Uniform(dict->size()));
        scratch.clear();
        const uint64_t t0 = NowNs();
        dict->ExtractInto(id, &scratch);
        hist.Observe(static_cast<double>(NowNs() - t0));
      }
      PushQuantiles(&rows, "extract", name, hist);
    }

    // locate: lookups of existing strings.
    {
      obs::Histogram hist(NanosecondBuckets());
      Rng rng(2);
      for (size_t i = 0; i < config.locate_ops; ++i) {
        const std::string& probe = dataset[rng.Uniform(dataset.size())];
        const uint64_t t0 = NowNs();
        const LocateResult result = dict->Locate(probe);
        hist.Observe(static_cast<double>(NowNs() - t0));
        if (!result.found) std::abort();  // would invalidate the measurement
      }
      PushQuantiles(&rows, "locate", name, hist);
    }

    // scan: sequential decode of the whole dictionary, ns per entry.
    {
      std::vector<double> per_entry_ns;
      for (int rep = 0; rep < config.scan_reps; ++rep) {
        uint64_t checksum = 0;
        const uint64_t t0 = NowNs();
        dict->Scan(0, dict->size(),
                   [&checksum](uint32_t, std::string_view s) {
                     checksum += s.size();
                   });
        per_entry_ns.push_back(static_cast<double>(NowNs() - t0) /
                               static_cast<double>(dict->size()));
        if (checksum == 0) std::abort();
      }
      rows.push_back({"scan", name, "ns_per_entry", MedianUs(per_entry_ns),
                      "ns"});
    }

    // merge: delta merge into a main column of this format, including the
    // dictionary rebuild (the paper's re-decision moment), median over the
    // build reps: one merge alone swings by a fifth between runs.
    {
      DomainEncoded encoded;
      encoded.dictionary = dataset;
      encoded.ids = main_ids;
      StringColumn main = StringColumn::FromEncoded(encoded, format);
      DeltaColumn delta;
      Rng rng(3);
      for (size_t i = 0; i < config.delta_rows; ++i) {
        delta.Append("zz-merge-" + std::to_string(rng.Uniform(1000)));
      }
      std::vector<double> merge_us;
      for (int rep = 0; rep < config.build_reps; ++rep) {
        const uint64_t t0 = NowNs();
        StringColumn merged = MergeDelta(main, delta, format);
        merge_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
        if (merged.num_rows() != main.num_rows() + delta.num_rows()) {
          std::abort();
        }
      }
      rows.push_back({"merge", name, "total_us", MedianUs(merge_us), "us"});
    }

    std::fprintf(stderr, "measured %-14s build %8.0f us\n", name.c_str(),
                 build_us.empty() ? 0 : build_us.back());
  }
  return rows;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

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

/// Flat JSON array, one object per row: the BENCH_core.json schema.
std::string RowsToJson(const std::vector<Row>& rows, uint64_t rss_bytes,
                       const std::string& git_sha) {
  std::string out = "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out.append("  {\"bench\":");
    obs::AppendJsonString(&out, row.bench);
    out.append(",\"format\":");
    obs::AppendJsonString(&out, row.format);
    out.append(",\"metric\":");
    obs::AppendJsonString(&out, row.metric);
    obs::Appendf(&out, ",\"value\":%.6g,\"unit\":", row.value);
    obs::AppendJsonString(&out, row.unit);
    obs::Appendf(&out, ",\"rss_bytes\":%llu,\"git_sha\":",
                 static_cast<unsigned long long>(rss_bytes));
    obs::AppendJsonString(&out, git_sha);
    obs::Appendf(&out, ",\"nproc\":%u}", std::thread::hardware_concurrency());
    if (i + 1 < rows.size()) out.push_back(',');
    out.push_back('\n');
  }
  out.append("]\n");
  return out;
}

// ---------------------------------------------------------------------------
// Minimal JSON reader for the baseline (exactly the subset RowsToJson emits:
// an array of flat objects with string and number values).
// ---------------------------------------------------------------------------

struct JsonCursor {
  const char* p;
  const char* end;
  bool ok = true;

  void SkipSpace() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool Consume(char ch) {
    SkipSpace();
    if (p < end && *p == ch) {
      ++p;
      return true;
    }
    ok = false;
    return false;
  }
  bool ParseString(std::string* out) {
    SkipSpace();
    if (p >= end || *p != '"') {
      ok = false;
      return false;
    }
    ++p;
    out->clear();
    while (p < end && *p != '"') {
      if (*p == '\\' && p + 1 < end) ++p;
      out->push_back(*p++);
    }
    if (p >= end) {
      ok = false;
      return false;
    }
    ++p;  // closing quote
    return true;
  }
  bool ParseNumber(double* out) {
    SkipSpace();
    char* after = nullptr;
    *out = std::strtod(p, &after);
    if (after == p || after > end) {
      ok = false;
      return false;
    }
    p = after;
    return true;
  }
};

/// Parses RowsToJson output. Returns false on any structural mismatch.
bool ParseRows(const std::string& json, std::vector<Row>* rows) {
  rows->clear();
  JsonCursor cursor{json.data(), json.data() + json.size()};
  if (!cursor.Consume('[')) return false;
  cursor.SkipSpace();
  if (cursor.p < cursor.end && *cursor.p == ']') {
    ++cursor.p;
    return true;
  }
  while (cursor.ok) {
    if (!cursor.Consume('{')) return false;
    Row row;
    while (cursor.ok) {
      std::string key;
      if (!cursor.ParseString(&key) || !cursor.Consume(':')) return false;
      if (key == "value" || key == "rss_bytes" || key == "nproc") {
        double value = 0;
        if (!cursor.ParseNumber(&value)) return false;
        if (key == "value") row.value = value;
      } else {
        std::string value;
        if (!cursor.ParseString(&value)) return false;
        if (key == "bench") row.bench = value;
        if (key == "format") row.format = value;
        if (key == "metric") row.metric = value;
        if (key == "unit") row.unit = value;
      }
      cursor.SkipSpace();
      if (cursor.p < cursor.end && *cursor.p == ',') {
        ++cursor.p;
        continue;
      }
      break;
    }
    if (!cursor.Consume('}')) return false;
    if (row.bench.empty() || row.format.empty() || row.metric.empty()) {
      return false;
    }
    rows->push_back(std::move(row));
    cursor.SkipSpace();
    if (cursor.p < cursor.end && *cursor.p == ',') {
      ++cursor.p;
      continue;
    }
    break;
  }
  return cursor.Consume(']') && cursor.ok;
}

bool WriteStringToFile(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  return true;
}

/// Reads and parses a BENCH_core.json file; the --baseline loader. Returns
/// false (with a diagnostic) if the file is unreadable or malformed.
bool LoadRowsFile(const std::string& path, std::vector<Row>* rows) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
    return false;
  }
  std::string json;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) json.append(buf, n);
  std::fclose(f);
  if (!ParseRows(json, rows)) {
    std::fprintf(stderr, "malformed baseline %s\n", path.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Baseline comparison
// ---------------------------------------------------------------------------

std::string RowKey(const Row& row) {
  return row.bench + "|" + row.format + "|" + row.metric;
}

/// Returns the number of regressions: current value above baseline by more
/// than `tolerance` (relative), with a 150 ns absolute floor so quantized
/// nanosecond readings near zero don't flap (cheap-op quantiles sit on a
/// 1-2-5 bucket ladder, so one bucket of jitter can read as +100%).
int CompareAgainstBaseline(const std::vector<Row>& current,
                           const std::vector<Row>& baseline, double tolerance,
                           bool verbose) {
  std::map<std::string, const Row*> current_by_key;
  for (const Row& row : current) current_by_key[RowKey(row)] = &row;

  int regressions = 0;
  for (const Row& base : baseline) {
    const auto it = current_by_key.find(RowKey(base));
    if (it == current_by_key.end()) {
      std::fprintf(stderr, "MISSING  %s (present in baseline, not measured)\n",
                   RowKey(base).c_str());
      ++regressions;
      continue;
    }
    const double floor_ns = base.unit == "ns" ? 150.0 : 0.0;
    const double bound =
        std::max(base.value * (1.0 + tolerance), base.value + floor_ns);
    if (it->second->value > bound) {
      std::fprintf(stderr, "REGRESSION  %-40s %10.4g -> %10.4g (+%.0f%%)\n",
                   RowKey(base).c_str(), base.value, it->second->value,
                   100.0 * (it->second->value / base.value - 1.0));
      ++regressions;
    } else if (verbose) {
      std::fprintf(stderr, "ok  %-40s %10.4g -> %10.4g\n",
                   RowKey(base).c_str(), base.value, it->second->value);
    }
  }
  return regressions;
}

/// Exercises the compare machinery without trusting wall-clock stability:
/// rows must round-trip through the JSON writer/reader, match themselves,
/// and an injected 2x slowdown (baseline halved) must be flagged on every
/// time row.
int SelfTest(const std::vector<Row>& rows) {
  const std::string json = RowsToJson(rows, CurrentRssBytes(), "selftest");
  std::vector<Row> parsed;
  if (!ParseRows(json, &parsed) || parsed.size() != rows.size()) {
    std::fprintf(stderr, "selftest FAIL: JSON round-trip lost rows\n");
    return 1;
  }
  if (CompareAgainstBaseline(parsed, rows, 0.15, /*verbose=*/false) != 0) {
    std::fprintf(stderr, "selftest FAIL: self-comparison flagged rows\n");
    return 1;
  }
  std::vector<Row> halved = rows;
  int expected = 0;
  for (Row& row : halved) {
    row.value /= 2.0;
    // Below the 150 ns absolute floor a doubling is within tolerance by
    // design; count only rows the checker is supposed to flag.
    if (row.value * 2.0 > std::max(row.value * 1.15, row.value + 150.0) ||
        row.unit != "ns") {
      ++expected;
    }
  }
  const int flagged =
      CompareAgainstBaseline(parsed, halved, 0.15, /*verbose=*/false);
  if (flagged < expected) {
    std::fprintf(stderr,
                 "selftest FAIL: injected 2x slowdown flagged %d of %d rows\n",
                 flagged, expected);
    return 1;
  }

  // The file-based compare path, including the documented out==baseline
  // flow: write the halved baseline to disk, load it the way --baseline
  // does, overwrite the same file with the current results (as main does
  // after loading), and check the comparison still flags against the *old*
  // on-disk values.
  const std::string path = "perf_regression_selftest.tmp.json";
  std::vector<Row> from_file;
  const bool file_ok =
      WriteStringToFile(path, RowsToJson(halved, 0, "selftest")) &&
      LoadRowsFile(path, &from_file) &&
      WriteStringToFile(path, json) &&
      CompareAgainstBaseline(parsed, from_file, 0.15, /*verbose=*/false) >=
          expected;
  std::remove(path.c_str());
  if (!file_ok) {
    std::fprintf(stderr,
                 "selftest FAIL: file-based baseline compare missed the "
                 "injected slowdown\n");
    return 1;
  }

  std::fprintf(stderr, "selftest ok: %zu rows, %d/%d injected regressions "
                       "detected (in-memory and via baseline file)\n",
               rows.size(), flagged, expected);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out") {
      config.out_path = next();
    } else if (arg == "--baseline") {
      config.baseline_path = next();
    } else if (arg == "--tolerance") {
      config.tolerance = std::atof(next());
    } else if (arg == "--n") {
      config.num_strings = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--selftest") {
      config.selftest = true;
    } else {
      std::fprintf(stderr,
                   "usage: perf_regression [--quick] [--n N] [--out FILE]\n"
                   "         [--baseline FILE] [--tolerance X] [--selftest]\n");
      return 2;
    }
  }
  if (quick) {
    config.num_strings = 3000;
    config.extract_ops = 6000;
    config.locate_ops = 2000;
    config.scan_reps = 2;
    config.build_reps = 1;
    config.delta_rows = 200;
  }

  // The baseline must be read BEFORE the fresh results are written: with
  // --baseline and --out pointing at the same file (the documented rolling
  // workflow) a write-first ordering would clobber the committed values and
  // compare the run against itself, never failing. Loading up front also
  // rejects a missing/malformed baseline before minutes of measurement.
  std::vector<Row> baseline;
  if (!config.baseline_path.empty() && !config.selftest &&
      !LoadRowsFile(config.baseline_path, &baseline)) {
    return 2;
  }

  // Steady timings: the metrics layer would add its own (tiny) overhead and
  // the paths under test are instrumented; measure them bare.
  obs::SetEnabled(false);

  const std::vector<Row> rows = RunBenchmarks(config);

  if (config.selftest) return SelfTest(rows);

  const std::string json = RowsToJson(rows, CurrentRssBytes(), GitSha());
  std::vector<Row> reparsed;
  if (!ParseRows(json, &reparsed) || reparsed.size() != rows.size()) {
    std::fprintf(stderr, "internal error: produced malformed JSON\n");
    return 2;
  }
  if (!WriteStringToFile(config.out_path, json)) return 2;
  std::fprintf(stderr, "wrote %zu rows to %s\n", rows.size(),
               config.out_path.c_str());

  if (!config.baseline_path.empty()) {
    const int regressions = CompareAgainstBaseline(
        rows, baseline, config.tolerance, /*verbose=*/false);
    std::fprintf(stderr, "%d regression(s) vs %s at tolerance %.0f%%\n",
                 regressions, config.baseline_path.c_str(),
                 100.0 * config.tolerance);
    if (regressions > 0) return 1;
  }
  return 0;
}
