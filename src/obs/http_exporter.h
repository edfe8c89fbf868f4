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
//   2. The accept loop runs on a dedicated thread, and each accepted
//      connection is handled on a short-lived thread of its own (the query
//      server's connection model), never on a pool lane: a client that
//      connects and sends nothing holds only its own handler, for at most
//      the 5 s receive timeout, while other requests are accepted and the
//      engine's morsels keep every lane. At most kMaxHandlers connections
//      are handled at once; at the limit the accept loop waits for a
//      handler to finish and the listen backlog holds the rest.
//   3. Stop() is clean under load: the accept loop polls a stop flag, no
//      new connections are taken, and in-flight handlers are drained
//      before Stop returns (the shutdown test exercises this with
//      concurrent requests).
//
// docs/observability.md#http-endpoints documents every route; the
// endpoint<->docs sync is linted (tools/adict_lint.py, check `endpoints`).
#ifndef ADICT_OBS_HTTP_EXPORTER_H_
#define ADICT_OBS_HTTP_EXPORTER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "util/lock_rank.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace adict {
namespace obs {

class HttpExporter {
 public:
  /// Connections handled at once. A stats plane serves a scraper and a few
  /// operators; this bounds the threads that silent clients can hold.
  static constexpr int kMaxHandlers = 8;

  struct Options {
    /// TCP port to listen on; 0 picks an ephemeral port (read it back with
    /// port() — tests use this to avoid collisions).
    int port = 0;
    /// Bind address. The default only accepts loopback connections; bind
    /// "0.0.0.0" deliberately to expose the stats to the network.
    std::string bind_address = "127.0.0.1";
    int backlog = 16;
  };

  explicit HttpExporter(Options options);
  HttpExporter() : HttpExporter(Options()) {}
  /// Stops the server if still running.
  ~HttpExporter();
  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Binds, listens, and starts the accept thread. Fails (never aborts) on
  /// socket errors — a busy port must not take the store down.
  Status Start();

  /// Stops accepting, drains in-flight request handlers, joins the accept
  /// thread. Idempotent; safe to call while requests are being served.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (resolved after Start() when Options::port was 0).
  int port() const { return port_.load(std::memory_order_acquire); }

 private:
  void AcceptLoop();
  void HandleConnection(int fd);

  const Options options_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<int> port_{0};
  int listen_fd_ = -1;
  std::thread accept_thread_;

  // Handler threads are detached; the accept loop waits on this count at
  // kMaxHandlers, and Stop() waits for it to reach zero.
  MutexCv drain_mutex_{LockRank::kExporterDrain, "HttpExporter.drain_mutex_"};
  int active_handlers_ ADICT_GUARDED_BY(drain_mutex_) = 0;
};

}  // namespace obs
}  // namespace adict

#endif  // ADICT_OBS_HTTP_EXPORTER_H_
