// Lock-cheap metrics primitives: counters, gauges, and fixed-bucket
// histograms, owned by a MetricsRegistry.
//
// Design constraints, in order:
//   1. The hot paths that emit metrics (dictionary extract/locate, scans)
//      run millions of times per second, so recording must be a handful of
//      relaxed atomic operations — no locks, no allocation, no formatting.
//   2. Metric objects are created once and never destroyed or moved, so an
//      instrumentation site may resolve its metric a single time (e.g. into
//      a function-local static pointer) and increment through the pointer
//      forever. The registry's mutex is only taken at resolution time.
//   3. Readers (exporters, tests) may snapshot concurrently with writers;
//      values are monotone per writer but a snapshot is not an atomic cut
//      across metrics — fine for observability, not for accounting.
#ifndef ADICT_OBS_METRICS_H_
#define ADICT_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace adict {
namespace obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// For a counter that mirrors a cumulative total kept elsewhere, copied
  /// in at scrape time.
  void Set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. the current trade-off c).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket histogram. Bucket i counts observations <= bounds[i]; one
/// implicit overflow bucket counts the rest. Bounds are fixed at creation
/// so Observe() is two relaxed increments plus a CAS-loop add to the sum.
class Histogram {
 public:
  /// `bounds` must be strictly ascending; it is copied.
  explicit Histogram(std::span<const double> bounds);

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, bounds().size() + 1 entries (last = overflow).
  std::vector<uint64_t> bucket_counts() const;
  /// Quantile estimate for q in [0, 1] (clamped), linearly interpolated
  /// inside the containing bucket (Prometheus histogram_quantile
  /// semantics). Returns 0 when empty; quantiles landing in the overflow
  /// bucket clamp to the largest bound, since that bucket has no upper
  /// edge to interpolate toward.
  double Quantile(double q) const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// Bucket bounds for microsecond-scale latencies: 1us .. 1s, roughly
/// 1-2-5 per decade.
std::span<const double> DefaultLatencyBucketsUs();

enum class MetricType { kCounter, kGauge, kHistogram };

std::string_view MetricTypeName(MetricType type);

/// Named, typed collection of metrics. Get* registers on first use and
/// returns the same stable pointer on every later call; a name maps to
/// exactly one type (a type mismatch is a programming error and aborts).
class MetricsRegistry {
 public:
  /// One registered metric, for exporters. Exactly one of the typed
  /// pointers is non-null, matching `type`.
  struct Entry {
    std::string name;
    std::string unit;  // e.g. "us", "bytes", "calls"; informational
    std::string help;
    // Constant label set in Prometheus syntax, e.g. `version="1",x="y"`;
    // fixed at first registration (later Get* calls never change it), so
    // exporters may read it without the registry mutex. Empty for most
    // metrics; info-style gauges (adict_build_info) use it.
    std::string labels;
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Counter* GetCounter(std::string_view name, std::string_view unit = "",
                      std::string_view help = "",
                      std::string_view labels = "");
  Gauge* GetGauge(std::string_view name, std::string_view unit = "",
                  std::string_view help = "", std::string_view labels = "");
  /// Default bounds: DefaultLatencyBucketsUs().
  Histogram* GetHistogram(std::string_view name,
                          std::span<const double> bounds = {},
                          std::string_view unit = "us",
                          std::string_view help = "");

  /// Stable pointers to all registered entries, sorted by name.
  std::vector<const Entry*> Entries() const ADICT_EXCLUDES(mutex_);

  /// Zeroes every value but keeps all registrations (so cached metric
  /// pointers at instrumentation sites stay valid). For tests.
  void ResetValues() ADICT_EXCLUDES(mutex_);

 private:
  Entry* GetOrCreate(std::string_view name, MetricType type,
                     std::string_view unit, std::string_view help,
                     std::string_view labels,
                     std::span<const double> bounds) ADICT_EXCLUDES(mutex_);

  mutable Mutex mutex_{LockRank::kMetricsRegistry,
                       "MetricsRegistry.mutex_"};
  // Node-based map: Entry addresses are stable across insertions. The map
  // is guarded; the Counter/Gauge/Histogram values inside an Entry are
  // lock-free atomics and are deliberately read/written without the mutex.
  std::map<std::string, Entry, std::less<>> entries_ ADICT_GUARDED_BY(mutex_);
};

/// RAII timer recording its lifetime into a histogram, in microseconds.
/// A null histogram disables the timer (used when observability is off);
/// the disabled path never touches the clock — instrumentation sites on
/// hot paths construct a ScopedTimer unconditionally and pass nullptr when
/// observability is off, so a disabled timer must cost one branch, not a
/// clock_gettime.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr) start_ = Clock::now();
  }
  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      histogram_->Observe(
          std::chrono::duration<double, std::micro>(Clock::now() - start_)
              .count());
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
  Histogram* histogram_;
  Clock::time_point start_;
};

}  // namespace obs
}  // namespace adict

#endif  // ADICT_OBS_METRICS_H_
