#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string_view>

#include "obs/export.h"

namespace adict {
namespace obs {
namespace {

/// Nanoseconds on the monotonic clock since the process's tracer epoch
/// (first call). Thread-safe via the static-local guarantee.
uint64_t NowNs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

// Tri-state so the ADICT_TRACE environment variable is consulted exactly
// once, on the first TraceEnabled()/SetTraceEnabled() call.
constexpr int kUninitialized = -1;
std::atomic<int> g_trace_state{kUninitialized};

int InitTraceStateFromEnv() {
  const char* env = std::getenv("ADICT_TRACE");
  const int enabled = (env != nullptr && std::strcmp(env, "0") != 0) ? 1 : 0;
  int expected = kUninitialized;
  g_trace_state.compare_exchange_strong(expected, enabled,
                                        std::memory_order_relaxed);
  return g_trace_state.load(std::memory_order_relaxed);
}

}  // namespace

bool TraceEnabled() {
  const int state = g_trace_state.load(std::memory_order_relaxed);
  if (state != kUninitialized) return state != 0;
  return InitTraceStateFromEnv() != 0;
}

void SetTraceEnabled(bool enabled) {
  if (g_trace_state.load(std::memory_order_relaxed) == kUninitialized) {
    InitTraceStateFromEnv();  // resolve the env var so it never overwrites us
  }
  g_trace_state.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

Tracer& Trace() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

namespace {
std::atomic<uint64_t> g_next_tracer_id{1};
}  // namespace

Tracer::Tracer()
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::ThreadBuffer* Tracer::LocalBuffer() {
  // Fast path: one comparison for a thread sticking to a single tracer (in
  // production that is the global Trace(), the only tracer ScopedSpan uses).
  // The cache is keyed on the tracer's never-reused id, not its address: a
  // test-owned Tracer that is destroyed and another allocated at the same
  // address cannot revive a stale buffer pointer.
  thread_local uint64_t cached_id = 0;  // real ids start at 1
  thread_local ThreadBuffer* cached_buffer = nullptr;
  if (cached_id == id_) return cached_buffer;
  // Slow path: per-tracer registry so a thread alternating between tracers
  // reuses the buffer (and tid) it registered the first time instead of
  // leaking a fresh one per switch. Entries for destroyed tracers linger but
  // are unreachable — their ids are never handed out again.
  thread_local std::map<uint64_t, ThreadBuffer*> buffers_by_tracer;
  auto [it, inserted] = buffers_by_tracer.try_emplace(id_, nullptr);
  if (inserted) {
    auto fresh = std::make_unique<ThreadBuffer>();
    fresh->events.resize(per_thread_capacity());
    MutexLock lock(&mutex_);
    fresh->tid = static_cast<uint32_t>(buffers_.size() + 1);
    it->second = fresh.get();
    buffers_.push_back(std::move(fresh));
  }
  cached_id = id_;
  cached_buffer = it->second;
  return cached_buffer;
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  MutexLock lock(&mutex_);
  std::vector<TraceEvent> events;
  for (const std::unique_ptr<ThreadBuffer>& buffer : buffers_) {
    const size_t n = std::min(
        buffer->committed.load(std::memory_order_acquire),
        buffer->events.size());
    events.insert(events.end(), buffer->events.begin(),
                  buffer->events.begin() + n);
  }
  return events;
}

void Tracer::Clear() {
  MutexLock lock(&mutex_);
  for (const std::unique_ptr<ThreadBuffer>& buffer : buffers_) {
    buffer->committed.store(0, std::memory_order_release);
  }
  dropped_.store(0, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const char* name) : name_(nullptr) {
  if (!TraceEnabled()) return;  // the entire disabled-path cost
  buffer_ = Trace().LocalBuffer();
  name_ = name;
  depth_ = buffer_->depth++;
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (name_ == nullptr) return;
  const uint64_t end_ns = NowNs();
  --buffer_->depth;
  const size_t index = buffer_->committed.load(std::memory_order_relaxed);
  if (index >= buffer_->events.size()) {
    Trace().RecordDropped();
    return;
  }
  buffer_->events[index] =
      TraceEvent{name_, start_ns_, end_ns - start_ns_, buffer_->tid, depth_};
  buffer_->committed.store(index + 1, std::memory_order_release);
}

std::string TraceToChromeJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":");
    AppendJsonString(&out, event.name == nullptr ? "?" : event.name);
    Appendf(&out,
            ",\"cat\":\"adict\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
            "\"pid\":1,\"tid\":%" PRIu32 "}",
            static_cast<double>(event.start_ns) / 1e3,
            static_cast<double>(event.dur_ns) / 1e3, event.tid);
  }
  out.append("],\"displayTimeUnit\":\"ms\"}");
  return out;
}

std::string TraceToChromeJson() { return TraceToChromeJson(Trace().Snapshot()); }

std::vector<SpanStats> SummarizeTrace(const std::vector<TraceEvent>& events) {
  // Reconstruct nesting per thread from the interval structure: sorted by
  // start time, a span is the child of the nearest still-open span. The
  // stack attributes each popped span's duration to its parent, which turns
  // inclusive times into exclusive ones.
  std::vector<TraceEvent> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     return a.depth < b.depth;  // parent before same-start child
                   });

  std::map<std::string, SpanStats> by_name;
  struct Open {
    const TraceEvent* event;
    uint64_t child_ns = 0;
  };
  std::vector<Open> stack;

  const auto finalize = [&](const Open& open) {
    SpanStats& stats = by_name[open.event->name == nullptr ? "?"
                                                           : open.event->name];
    if (stats.name.empty()) {
      stats.name = open.event->name == nullptr ? "?" : open.event->name;
    }
    stats.count += 1;
    stats.inclusive_ns += open.event->dur_ns;
    stats.exclusive_ns += open.event->dur_ns -
                          std::min(open.event->dur_ns, open.child_ns);
    if (!stack.empty()) stack.back().child_ns += open.event->dur_ns;
  };

  uint32_t current_tid = 0;
  for (const TraceEvent& event : sorted) {
    if (event.tid != current_tid) {
      while (!stack.empty()) {
        const Open open = stack.back();
        stack.pop_back();
        finalize(open);
      }
      current_tid = event.tid;
    }
    while (!stack.empty()) {
      const TraceEvent& top = *stack.back().event;
      // A span ending exactly where this one starts is a completed sibling,
      // not an ancestor — unless its recorded depth says otherwise: with a
      // coarse clock a zero-duration parent can share its start (and end)
      // timestamp with its child, and must stay open so the child is not
      // attributed to the grandparent.
      const uint64_t top_end = top.start_ns + top.dur_ns;
      if (top_end > event.start_ns ||
          (top_end == event.start_ns && top.depth < event.depth)) {
        break;
      }
      const Open open = stack.back();
      stack.pop_back();
      finalize(open);
    }
    stack.push_back(Open{&event});
  }
  while (!stack.empty()) {
    const Open open = stack.back();
    stack.pop_back();
    finalize(open);
  }

  std::vector<SpanStats> stats;
  stats.reserve(by_name.size());
  for (auto& [name, s] : by_name) stats.push_back(std::move(s));
  std::sort(stats.begin(), stats.end(),
            [](const SpanStats& a, const SpanStats& b) {
              if (a.exclusive_ns != b.exclusive_ns) {
                return a.exclusive_ns > b.exclusive_ns;
              }
              return a.name < b.name;
            });
  return stats;
}

std::string TraceSummaryToText(const std::vector<TraceEvent>& events,
                               uint64_t dropped) {
  const std::vector<SpanStats> stats = SummarizeTrace(events);
  std::string out;
  Appendf(&out, "trace summary (%zu spans", events.size());
  if (dropped > 0) Appendf(&out, ", %" PRIu64 " dropped", dropped);
  out.append("):\n");
  Appendf(&out, "  %-36s %10s %14s %14s\n", "span", "count", "inclusive ms",
          "exclusive ms");
  for (const SpanStats& s : stats) {
    Appendf(&out, "  %-36s %10" PRIu64 " %14.3f %14.3f\n", s.name.c_str(),
            s.count, static_cast<double>(s.inclusive_ns) / 1e6,
            static_cast<double>(s.exclusive_ns) / 1e6);
  }
  return out;
}

}  // namespace obs
}  // namespace adict
