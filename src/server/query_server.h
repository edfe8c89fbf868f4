// Long-lived TCP query server: the network serving front-end of the store.
//
// Speaks the length-prefixed binary protocol of server/protocol.h. A
// util/net.h Listener accepts (bounded backlog) and runs each connection on
// its own thread, where Serve decodes frames and executes requests against
// pinned column snapshots (TableSnapshot, TpchSnapshot), so serving never
// blocks a delta merge and a merge never blocks serving. The heavy lifting
// inside a request — predicate scans, TPC-H plans — fans out onto the
// shared ThreadPool through the engine's morsel-parallel drivers
// (engine/parallel.h); connection threads are deliberately *not* pool
// lanes, because a persistent connection would pin a lane and request
// execution itself needs the pool (nested ParallelFor from a lane is
// outside the pool's contract).
//
// In front of execution sits the epoch-invalidated ResultCache
// (server/result_cache.h): a request's FNV-1a digest is looked up first,
// and a hit returns the cached serialized result without touching the
// engine. An execution's dependencies are its pins, each with the epoch of
// the version it pinned; any publish invalidates dependent entries, so a
// cached result is never served across an epoch boundary.
//
// Admission control, all with clean RESOURCE_EXHAUSTED (429-style)
// rejections rather than dropped connections mid-frame:
//   - listen backlog caps the kernel-side accept queue,
//   - max_connections caps connection threads (the listener hands each
//     excess connection to Refuse: one rejection response, then close),
//   - max_inflight caps concurrently executing queries,
//   - max_requests_per_connection caps how long one client can hold a
//     connection thread.
//
// Observability: server.* metrics (docs/serving.md#metrics), a span per
// request, and per-query attribution via obs::ScopedQueryProfile so
// /profile.json shows network traffic next to in-process drivers.
#ifndef ADICT_SERVER_QUERY_SERVER_H_
#define ADICT_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/protocol.h"
#include "server/result_cache.h"
#include "util/net.h"
#include "util/status.h"

namespace adict {

class Table;
struct TpchDatabase;
class RecompressionScheduler;

class QueryServer {
 public:
  struct Options {
    /// TCP port; 0 picks an ephemeral port (read it back with port()).
    int port = 0;
    /// Bind address; loopback by default (see util/net.h).
    std::string bind_address = "127.0.0.1";
    /// Kernel accept backlog (admission control, outermost ring).
    int backlog = 64;
    /// Handler threads; excess connections are rejected with one
    /// RESOURCE_EXHAUSTED response.
    int max_connections = 64;
    /// Queries executing concurrently; excess requests are rejected with
    /// RESOURCE_EXHAUSTED instead of queueing unboundedly.
    int max_inflight = 32;
    /// Requests one connection may issue before being rejected + closed;
    /// 0 means unlimited.
    uint64_t max_requests_per_connection = 0;
    /// Result cache budget in bytes; 0 disables caching.
    size_t cache_bytes = 8u << 20;
    /// Test hook: holds each execution inside its in-flight slot for this
    /// long, so admission and drain tests are deterministic.
    uint64_t execute_stall_ms = 0;
  };

  /// Options with the environment knobs applied: ADICT_SERVE_PORT,
  /// ADICT_SERVE_MAX_INFLIGHT, ADICT_CACHE_BYTES (docs/serving.md#knobs).
  static Options OptionsFromEnv();

  /// Monotonic counters, readable any time (tests assert on these even
  /// with obs disabled).
  struct Stats {
    uint64_t connections = 0;           ///< accepted and served
    uint64_t rejected_connections = 0;  ///< over max_connections
    uint64_t requests = 0;              ///< well-formed frames decoded
    uint64_t executed = 0;              ///< requests that ran the engine
    uint64_t rejected_requests = 0;     ///< admission-control rejections
    uint64_t error_responses = 0;       ///< non-OK responses sent
    uint64_t frame_errors = 0;          ///< malformed/oversized/truncated
  };

  explicit QueryServer(Options options);
  QueryServer() : QueryServer(Options()) {}
  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Exposes a table to kCount/kSelect/kExtract/kLocate/kTableStats
  /// requests under its own name. The table must outlive the server.
  /// Register before Start().
  void RegisterTable(const Table* table);

  /// Registers all eight TPC-H tables and enables kTpch requests against
  /// `db`. The database must outlive the server. Register before Start().
  void ServeTpch(const TpchDatabase* db);

  /// Binds, listens, starts the accept thread. Fails (never aborts) on
  /// socket errors — a busy port must not take the store down.
  Status Start() { return listener_.Start(); }

  /// Stops accepting, wakes every connection handler, drains in-flight
  /// requests (a request being executed finishes and its response is sent),
  /// joins all threads. Idempotent; no client can hold it up.
  void Stop() { listener_.Stop(); }

  bool running() const { return listener_.running(); }
  /// The bound port (resolved after Start() when Options::port was 0).
  int port() const { return listener_.port(); }

  Stats stats() const;
  ResultCache& cache() { return cache_; }
  const Options& options() const { return options_; }

  /// Wires the scheduler's pressure hook to flush the result cache when
  /// pressure reaches urgent (docs/serving.md#memory-pressure). The server
  /// must outlive the scheduler's sample stream.
  void AttachPressureFlush(RecompressionScheduler* scheduler);

 private:
  /// The listener's serve handler: frames until done or `stop`.
  void Serve(int fd, const std::atomic<bool>& stop);
  /// Over max_connections: one RESOURCE_EXHAUSTED frame before the close.
  void Refuse(int fd, const std::atomic<bool>& stop);
  /// Decodes and answers one frame; returns false when the connection is
  /// done (clean close, frame error, request cap, or stop).
  bool HandleFrame(int fd, const std::atomic<bool>& stop,
                   uint64_t* requests_served);
  Response Execute(const Request& request,
                   std::vector<CacheDependency>* deps);
  Response ExecuteTableQuery(const Request& request,
                             std::vector<CacheDependency>* deps);

  const Options options_;
  ResultCache cache_;
  std::unordered_map<std::string, const Table*> tables_;
  const TpchDatabase* tpch_db_ = nullptr;

  std::atomic<int> inflight_{0};

  // Counters behind stats(); relaxed — they only feed assertions and
  // metrics, never control flow across threads.
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> rejected_connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> rejected_requests_{0};
  std::atomic<uint64_t> error_responses_{0};
  std::atomic<uint64_t> frame_errors_{0};

  // Last: its connection threads use every member above, and its
  // destructor stops the server, joining them before those are destroyed.
  Listener listener_;
};

}  // namespace adict

#endif  // ADICT_SERVER_QUERY_SERVER_H_
