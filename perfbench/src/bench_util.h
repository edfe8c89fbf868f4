// Small helpers shared by the benchmark: a monotonic clock,
// order statistics, peak RSS, and the JSON output it prints.
#ifndef ADICT_PERFBENCH_BENCH_UTIL_H_
#define ADICT_PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace perfbench {

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of `values` for q in [0, 1]; 0 when empty.
/// +infinity entries sort last, so failed requests count as infinitely
/// slow.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1 ? 0 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[index];
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set of this process in MB (VmHWM), 0 if unreadable.
inline double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %" SCNu64 " kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

/// Hands freed heap memory back to the system (glibc), so a resident set
/// that a peak is reset to holds live data only.
inline void ReleaseFreeHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Resets this process's VmHWM to its current resident set (Linux
/// clear_refs "5"); best effort, the peak keeps counting from process start
/// where the kernel refuses.
inline void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out.push_back(ch);
    }
  }
  out.push_back('"');
  return out;
}

/// A number in JSON with all its digits; non-finite values become null.
inline std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered key/value pairs rendered as one flat JSON object; values are
/// pre-rendered JSON.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& json_value) {
    fields_.emplace_back(key, json_value);
    return *this;
  }
  JsonObject& AddString(const std::string& key, const std::string& value) {
    return Add(key, JsonString(value));
  }
  JsonObject& AddNumber(const std::string& key, double value) {
    return Add(key, JsonNumber(value));
  }
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench

#endif  // ADICT_PERFBENCH_BENCH_UTIL_H_
