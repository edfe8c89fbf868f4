#include "server/query_server.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>
#include <utility>

#include "core/recompression_scheduler.h"
#include "engine/predicates.h"
#include "engine/scan.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/workload_profiler.h"
#include "store/table.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "util/net.h"
#include "util/thread_pool.h"

namespace adict {
namespace {

std::string_view QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPing:
      return "ping";
    case QueryKind::kCount:
      return "count";
    case QueryKind::kSelect:
      return "select";
    case QueryKind::kExtract:
      return "extract";
    case QueryKind::kLocate:
      return "locate";
    case QueryKind::kTableStats:
      return "table_stats";
    case QueryKind::kTpch:
      return "tpch";
  }
  return "unknown";
}

Response ErrorResponse(uint64_t request_id, StatusCode code,
                       std::string message) {
  Response response;
  response.request_id = request_id;
  response.status = code;
  response.error_message = std::move(message);
  return response;
}

/// Parses a non-negative integer environment variable; `fallback` when
/// unset, empty, or unparsable.
uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return static_cast<uint64_t>(value);
}

void CountServerEvent(const char* name, const char* help, uint64_t n = 1) {
  if (!obs::Enabled() || n == 0) return;
  obs::Metrics().GetCounter(name, "events", help)->Increment(n);
}

void SendFrame(int fd, const std::vector<uint8_t>& frame,
               const std::atomic<bool>& stop) {
  SendAll(fd,
          std::string_view(reinterpret_cast<const char*>(frame.data()),
                           frame.size()),
          &stop);
}

}  // namespace

QueryServer::Options QueryServer::OptionsFromEnv() {
  Options options;
  options.port = static_cast<int>(EnvU64("ADICT_SERVE_PORT", 0));
  options.max_inflight = static_cast<int>(
      EnvU64("ADICT_SERVE_MAX_INFLIGHT",
             static_cast<uint64_t>(options.max_inflight)));
  options.cache_bytes = static_cast<size_t>(
      EnvU64("ADICT_CACHE_BYTES", options.cache_bytes));
  return options;
}

QueryServer::QueryServer(Options options)
    : options_(std::move(options)),
      cache_(ResultCache::Options{options_.cache_bytes}),
      listener_(ListenOptions{options_.port, options_.bind_address,
                              options_.backlog},
                options_.max_connections,
                std::bind_front(&QueryServer::Serve, this),
                std::bind_front(&QueryServer::Refuse, this)) {}

void QueryServer::RegisterTable(const Table* table) {
  tables_[table->name()] = table;
}

void QueryServer::ServeTpch(const TpchDatabase* db) {
  tpch_db_ = db;
  for (const Table* table : db->tables()) RegisterTable(table);
}

QueryServer::Stats QueryServer::stats() const {
  Stats stats;
  stats.connections = connections_.load(std::memory_order_relaxed);
  stats.rejected_connections =
      rejected_connections_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.executed = executed_.load(std::memory_order_relaxed);
  stats.rejected_requests =
      rejected_requests_.load(std::memory_order_relaxed);
  stats.error_responses = error_responses_.load(std::memory_order_relaxed);
  stats.frame_errors = frame_errors_.load(std::memory_order_relaxed);
  return stats;
}

void QueryServer::AttachPressureFlush(RecompressionScheduler* scheduler) {
  scheduler->SetPressureHook([this](PressureLevel level) {
    if (level >= PressureLevel::kUrgent) cache_.Flush();
  });
}

void QueryServer::Refuse(int fd, const std::atomic<bool>& stop) {
  // Clean 429-style rejection: one response frame before the close, so the
  // client sees "overloaded" instead of a reset mid-handshake.
  rejected_connections_.fetch_add(1, std::memory_order_relaxed);
  CountServerEvent("server.connections.rejected",
                   "connections rejected over the connection cap");
  SendFrame(fd,
            EncodeResponse(ErrorResponse(0, StatusCode::kResourceExhausted,
                                         "connection limit reached")),
            stop);
}

void QueryServer::Serve(int fd, const std::atomic<bool>& stop) {
  connections_.fetch_add(1, std::memory_order_relaxed);
  CountServerEvent("server.connections.accepted",
                   "connections accepted and served");
  if (obs::Enabled()) {
    static obs::Gauge* active = obs::Metrics().GetGauge(
        "server.connections.active", "connections",
        "query-server connections currently open");
    active->Set(static_cast<double>(listener_.active()));
  }
  // Reads that find data never wait, so a client with requests queued must
  // not keep the connection past Stop().
  uint64_t requests_served = 0;
  while (!stop.load(std::memory_order_acquire) &&
         HandleFrame(fd, stop, &requests_served)) {
  }
}

bool QueryServer::HandleFrame(int fd, const std::atomic<bool>& stop,
                              uint64_t* requests_served) {
  // --- Framing: 4-byte length prefix, then exactly that many body bytes.
  uint8_t prefix[sizeof(uint32_t)];
  const RecvResult prefix_result =
      RecvExact(fd, prefix, sizeof(prefix), &stop, /*idle_timeout_ms=*/0);
  if (prefix_result == RecvResult::kClosed ||
      prefix_result == RecvResult::kStopped) {
    return false;  // clean end of connection / shutdown
  }
  if (prefix_result != RecvResult::kOk) {
    // Disconnect mid-prefix: the frame is broken, nothing to answer.
    frame_errors_.fetch_add(1, std::memory_order_relaxed);
    CountServerEvent("server.frame.errors",
                     "malformed, oversized, or truncated request frames");
    return false;
  }
  uint32_t body_length = 0;
  std::memcpy(&body_length, prefix, sizeof(body_length));
  if (body_length > kMaxFrameBytes) {
    // A lying length prefix must not provoke a giant allocation; answer
    // once, then close (the stream cannot be re-synchronized).
    frame_errors_.fetch_add(1, std::memory_order_relaxed);
    CountServerEvent("server.frame.errors",
                     "malformed, oversized, or truncated request frames");
    const std::vector<uint8_t> frame = EncodeResponse(ErrorResponse(
        0, StatusCode::kResourceExhausted,
        "frame length " + std::to_string(body_length) + " exceeds limit " +
            std::to_string(kMaxFrameBytes)));
    SendFrame(fd, frame, stop);
    return false;
  }
  std::vector<uint8_t> body(body_length);
  if (body_length > 0) {
    const RecvResult body_result = RecvExact(fd, body.data(), body.size(),
                                             &stop, /*idle_timeout_ms=*/10000);
    if (body_result == RecvResult::kStopped) return false;
    if (body_result != RecvResult::kOk) {
      // Truncated body / disconnect mid-request: the peer is gone or lying.
      frame_errors_.fetch_add(1, std::memory_order_relaxed);
      CountServerEvent("server.frame.errors",
                       "malformed, oversized, or truncated request frames");
      return false;
    }
  }

  ADICT_TRACE_SPAN("server.request");
  obs::Histogram* latency = nullptr;
  if (obs::Enabled()) {
    static obs::Counter* request_count = obs::Metrics().GetCounter(
        "server.requests", "requests", "query-server frames decoded");
    request_count->Increment();
    static obs::Histogram* histogram = obs::Metrics().GetHistogram(
        "server.request.us", {}, "us",
        "query-server request latency (decode through response)");
    latency = histogram;
    static obs::Gauge* queue_depth = obs::Metrics().GetGauge(
        "server.queue_depth", "tasks",
        "shared thread-pool queue depth sampled per server request");
    queue_depth->Set(static_cast<double>(Pool().queued()));
  }
  obs::ScopedTimer timer(latency);
  requests_.fetch_add(1, std::memory_order_relaxed);

  // --- Decode. A well-framed body that fails to parse gets an error
  // response but keeps the connection (framing is still trustworthy).
  StatusOr<Request> decoded = DecodeRequestBody(body);
  if (!decoded.ok()) {
    uint64_t request_id = 0;
    if (body.size() >= sizeof(request_id)) {
      std::memcpy(&request_id, body.data(), sizeof(request_id));
    }
    frame_errors_.fetch_add(1, std::memory_order_relaxed);
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    CountServerEvent("server.frame.errors",
                     "malformed, oversized, or truncated request frames");
    CountServerEvent("server.requests.error",
                     "query-server non-OK responses");
    const std::vector<uint8_t> frame = EncodeResponse(ErrorResponse(
        request_id, decoded.status().code(), decoded.status().message()));
    SendFrame(fd, frame, stop);
    return true;
  }
  const Request& request = *decoded;

  // --- Admission: per-connection request cap.
  if (options_.max_requests_per_connection > 0 &&
      *requests_served >= options_.max_requests_per_connection) {
    rejected_requests_.fetch_add(1, std::memory_order_relaxed);
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    CountServerEvent("server.requests.rejected",
                     "requests rejected by admission control");
    const std::vector<uint8_t> frame = EncodeResponse(ErrorResponse(
        request.request_id, StatusCode::kResourceExhausted,
        "per-connection request cap reached"));
    SendFrame(fd, frame, stop);
    return false;
  }
  ++*requests_served;

  // --- Result cache lookup: a hit skips admission and execution entirely
  // (it holds no snapshot and runs no engine work).
  const uint64_t digest = RequestDigest(request);
  const bool cacheable = cache_.enabled() && request.kind != QueryKind::kPing;
  if (cacheable) {
    if (std::optional<std::vector<uint8_t>> payload = cache_.Lookup(digest)) {
      const std::vector<uint8_t> frame = EncodeResponseFromPayload(
          request.request_id, /*cache_hit=*/true, *payload);
      SendFrame(fd, frame, stop);
      return true;
    }
  }

  // --- Admission: in-flight query cap.
  const int inflight = inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (obs::Enabled()) {
    static obs::Gauge* inflight_gauge = obs::Metrics().GetGauge(
        "server.inflight", "queries", "queries currently executing");
    inflight_gauge->Set(static_cast<double>(inflight));
  }
  if (inflight > options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_requests_.fetch_add(1, std::memory_order_relaxed);
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    CountServerEvent("server.requests.rejected",
                     "requests rejected by admission control");
    const std::vector<uint8_t> frame = EncodeResponse(ErrorResponse(
        request.request_id, StatusCode::kResourceExhausted,
        "too many in-flight queries (" +
            std::to_string(options_.max_inflight) + ")"));
    SendFrame(fd, frame, stop);
    return true;
  }

  // --- Execute against pinned snapshots, recording epoch dependencies.
  if (options_.execute_stall_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.execute_stall_ms));
  }
  std::vector<CacheDependency> deps;
  const Response response = Execute(request, &deps);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  executed_.fetch_add(1, std::memory_order_relaxed);

  std::vector<uint8_t> frame;
  if (response.status == StatusCode::kOk) {
    std::vector<uint8_t> payload = EncodeQueryResult(response.result);
    frame = EncodeResponseFromPayload(request.request_id,
                                      /*cache_hit=*/false, payload);
    if (cacheable) cache_.Insert(digest, std::move(payload), std::move(deps));
  } else {
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    CountServerEvent("server.requests.error",
                     "query-server non-OK responses");
    frame = EncodeResponse(response);
  }
  SendFrame(fd, frame, stop);
  if (obs::Enabled()) {
    static obs::Counter* bytes_out = obs::Metrics().GetCounter(
        "server.bytes.out", "bytes", "response bytes sent");
    bytes_out->Increment(frame.size());
    static obs::Counter* bytes_in = obs::Metrics().GetCounter(
        "server.bytes.in", "bytes", "request bytes received");
    bytes_in->Increment(sizeof(uint32_t) + body.size());
  }
  return true;
}

Response QueryServer::Execute(const Request& request,
                              std::vector<CacheDependency>* deps) {
  ADICT_TRACE_SPAN("server.execute");
  // Per-query attribution: /profile.json shows network traffic by kind
  // next to in-process drivers.
  obs::ScopedQueryProfile profile(std::string("server.") +
                                  std::string(QueryKindName(request.kind)));
  switch (request.kind) {
    case QueryKind::kPing: {
      Response response;
      response.request_id = request.request_id;
      response.result.column_names = {"pong"};
      response.result.AddRow({obs::kBuildVersion});
      return response;
    }
    case QueryKind::kTpch: {
      if (tpch_db_ == nullptr) {
        return ErrorResponse(request.request_id,
                             StatusCode::kFailedPrecondition,
                             "TPC-H serving not enabled on this server");
      }
      if (request.tpch_query < 1 ||
          request.tpch_query > static_cast<uint32_t>(kNumTpchQueries)) {
        return ErrorResponse(
            request.request_id, StatusCode::kFailedPrecondition,
            "TPC-H query " + std::to_string(request.tpch_query) +
                " out of range 1..22");
      }
      // The plan reads only the snapshot's pins, and the cached result
      // depends on all of them (a plan may touch any string column).
      const TpchSnapshot snapshot = tpch_db_->Snapshot();
      for (const TableSnapshot* table : snapshot.tables()) {
        AddPinDependencies(*table, deps);
      }
      Response response;
      response.request_id = request.request_id;
      response.result =
          RunTpchQuery(snapshot, static_cast<int>(request.tpch_query));
      return response;
    }
    default:
      return ExecuteTableQuery(request, deps);
  }
}

Response QueryServer::ExecuteTableQuery(const Request& request,
                                        std::vector<CacheDependency>* deps) {
  const auto table_it = tables_.find(request.table);
  if (table_it == tables_.end()) {
    return ErrorResponse(request.request_id, StatusCode::kFailedPrecondition,
                         "unknown table: " + request.table);
  }
  const Table* table = table_it->second;

  if (request.kind == QueryKind::kTableStats) {
    const TableSnapshot snapshot = table->Snapshot();
    AddPinDependencies(snapshot, deps);
    Response response;
    response.request_id = request.request_id;
    response.result.column_names = {"table", "rows", "string_columns",
                                    "memory_bytes"};
    response.result.AddRow({table->name(), Cell(table->num_rows()),
                            Cell(static_cast<uint64_t>(
                                table->num_string_columns())),
                            Cell(static_cast<uint64_t>(snapshot.MemoryBytes()))});
    return response;
  }

  if (!table->has_string_column(request.column)) {
    return ErrorResponse(request.request_id, StatusCode::kFailedPrecondition,
                         "unknown string column: " + request.table + "." +
                             request.column);
  }
  const VersionedStringColumn& versioned =
      table->versioned_strings(request.column);
  const std::shared_ptr<const StringColumn> snapshot = versioned.Snapshot();
  deps->push_back({&versioned, snapshot->epoch()});
  const StringColumn& column = *snapshot;

  Response response;
  response.request_id = request.request_id;
  switch (request.kind) {
    case QueryKind::kCount:
    case QueryKind::kSelect: {
      std::vector<uint32_t> rows;
      uint64_t count = 0;
      if (request.op == PredicateOp::kContains) {
        rows = SelectRows(column, ContainsIds(column, request.value));
        count = rows.size();
      } else {
        IdRange range;
        switch (request.op) {
          case PredicateOp::kEq:
            range = EqIds(column, request.value);
            break;
          case PredicateOp::kPrefix:
            range = PrefixIds(column, request.value);
            break;
          case PredicateOp::kBetween:
            range = BetweenIds(column, request.value, request.value2);
            break;
          case PredicateOp::kContains:
            break;  // handled above
        }
        if (request.kind == QueryKind::kCount) {
          count = CountRows(column, range);
        } else {
          rows = SelectRows(column, range);
          count = rows.size();
        }
      }
      if (request.kind == QueryKind::kCount) {
        response.result.column_names = {"count"};
        response.result.AddRow({Cell(count)});
      } else {
        response.result.column_names = {"row", "value"};
        const uint64_t limit =
            std::min<uint64_t>(request.limit, rows.size());
        for (uint64_t i = 0; i < limit; ++i) {
          response.result.AddRow({Cell(static_cast<uint64_t>(rows[i])),
                                  column.GetValue(rows[i])});
        }
      }
      return response;
    }
    case QueryKind::kExtract: {
      if (request.row >= column.num_rows()) {
        return ErrorResponse(
            request.request_id, StatusCode::kFailedPrecondition,
            "row " + std::to_string(request.row) + " out of range (" +
                std::to_string(column.num_rows()) + " rows)");
      }
      response.result.column_names = {"value"};
      response.result.AddRow({column.GetValue(request.row)});
      return response;
    }
    case QueryKind::kLocate: {
      const LocateResult located = column.Locate(request.value);
      response.result.column_names = {"id", "found"};
      response.result.AddRow({Cell(static_cast<uint64_t>(located.id)),
                              located.found ? "1" : "0"});
      return response;
    }
    default:
      return ErrorResponse(request.request_id, StatusCode::kInternal,
                           "unhandled query kind");
  }
}

}  // namespace adict
