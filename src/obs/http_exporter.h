// Dependency-free HTTP/1.1 stats server: the live exposition plane.
//
// Everything the obs layer collects — the Prometheus text exposition, the
// decision log, recent trace spans, and the workload profiler's per-column
// heat and per-query attribution — was previously report-at-shutdown only.
// The exporter serves it live so a Prometheus scraper (or a plain curl) can
// watch the adaptive loop run:
//
//   GET  /metrics         0.0.4 text exposition (export.h), heat gauges
//                         and dict.* totals refreshed before each scrape
//   GET  /decisions.json  DecisionLog ring + predicted-vs-actual accuracy
//   GET  /spans.json      bounded snapshot of recent completed spans
//                         (Chrome trace_event JSON)
//   GET  /profile.json    workload profiler: per-column heat + latency
//                         quantiles, per-query attribution, the
//                         recompression scheduler's latest ranking
//   GET  /healthz         liveness probe, "ok"
//   POST /trace/start     clears the tracer and enables span recording
//   POST /trace/stop      disables recording; ?out=FILE writes Chrome
//                         trace JSON to FILE, otherwise the JSON is the
//                         response body
//
// Design constraints, in order:
//   1. No third-party dependency: raw POSIX sockets, a minimal request
//      parser (method + target + headers, bounded at 8 KiB), one response
//      per connection (Connection: close).
//   2. The query server's connection model (util/net.h Listener): each
//      connection is handled on a thread of its own, never on a pool lane,
//      so a client that sends nothing holds only its handler, for at most
//      the 5 s idle timeout. At kMaxHandlers the listener accepts nothing
//      until a handler ends and the backlog holds the rest: an HTTP client
//      has sent its request by then, so a refusal would reach it as a reset.
//   3. Stop() drains in-flight handlers, and no client can hold it up.
//
// docs/observability.md#http-endpoints documents every route; the
// endpoint<->docs sync is linted (tools/adict_lint.py, check `endpoints`).
#ifndef ADICT_OBS_HTTP_EXPORTER_H_
#define ADICT_OBS_HTTP_EXPORTER_H_

#include "util/net.h"
#include "util/status.h"

namespace adict {
namespace obs {

class HttpExporter {
 public:
  /// Connections handled at once. A stats plane serves a scraper and a few
  /// operators; this bounds the threads that silent clients can hold.
  static constexpr int kMaxHandlers = 8;

  /// Port (0: ephemeral, see port()), bind address and listen backlog.
  using Options = ListenOptions;

  explicit HttpExporter(Options options);
  HttpExporter() : HttpExporter(Options()) {}

  /// Binds, listens, and starts the accept thread. Fails (never aborts) on
  /// socket errors — a busy port must not take the store down.
  Status Start() { return listener_.Start(); }

  /// Stops accepting, drains in-flight request handlers, joins every
  /// thread. Idempotent; safe to call while requests are being served, and
  /// no client can hold it up.
  void Stop() { listener_.Stop(); }

  bool running() const { return listener_.running(); }

  /// The bound port (resolved after Start() when Options::port was 0).
  int port() const { return listener_.port(); }

 private:
  Listener listener_;  // its destructor stops the exporter
};

}  // namespace obs
}  // namespace adict

#endif  // ADICT_OBS_HTTP_EXPORTER_H_
