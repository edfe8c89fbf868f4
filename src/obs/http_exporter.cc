#include "obs/http_exporter.h"

#include <atomic>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/workload_profiler.h"
#include "util/net.h"

namespace adict {
namespace obs {
namespace {

// The served routes. Paths listed here, the handler dispatch below, and the
// "HTTP endpoints" table in docs/observability.md are kept in sync by
// tools/adict_lint.py (check `endpoints`), which reads the path literals
// between these markers.
// adict-lint: http-routes-begin
struct Route {
  std::string_view path;
  std::string_view method;
};
constexpr Route kRoutes[] = {
    {"/metrics", "GET"},        {"/decisions.json", "GET"},
    {"/spans.json", "GET"},     {"/profile.json", "GET"},
    {"/healthz", "GET"},        {"/trace/start", "POST"},
    {"/trace/stop", "POST"},
};
// adict-lint: http-routes-end

/// /spans.json returns at most this many events (the newest), so a scrape
/// of a long-running trace stays bounded.
constexpr size_t kMaxSpanEvents = 4096;

/// Request heads larger than this are rejected with 400.
constexpr size_t kMaxRequestBytes = 8192;

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  std::string allow;  // for 405
};

std::string_view ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 500:
      return "Internal Server Error";
    default:
      return "Unknown";
  }
}

std::string PercentDecode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '%' && i + 2 < in.size()) {
      const auto hex = [](char ch) -> int {
        if (ch >= '0' && ch <= '9') return ch - '0';
        if (ch >= 'a' && ch <= 'f') return ch - 'a' + 10;
        if (ch >= 'A' && ch <= 'F') return ch - 'A' + 10;
        return -1;
      };
      const int hi = hex(in[i + 1]), lo = hex(in[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(in[i] == '+' ? ' ' : in[i]);
  }
  return out;
}

/// Value of `key` in a query string ("a=1&b=2"), percent-decoded; empty
/// when absent.
std::string QueryParam(std::string_view query, std::string_view key) {
  while (!query.empty()) {
    const size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return PercentDecode(pair.substr(eq + 1));
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return "";
}

std::string SpansJson() {
  std::vector<TraceEvent> events = Trace().Snapshot();
  if (events.size() > kMaxSpanEvents) {
    events.erase(events.begin(),
                 events.end() - static_cast<ptrdiff_t>(kMaxSpanEvents));
  }
  return TraceToChromeJson(events);
}

HttpResponse HandleRequest(std::string_view method, std::string_view path,
                           std::string_view query) {
  HttpResponse response;
  const Route* route = nullptr;
  for (const Route& candidate : kRoutes) {
    if (candidate.path == path) {
      route = &candidate;
      break;
    }
  }
  if (route == nullptr) {
    response.status = 404;
    response.body = "not found\n";
    return response;
  }
  if (method != route->method) {
    response.status = 405;
    response.allow = std::string(route->method);
    response.body = "method not allowed\n";
    return response;
  }

  if (path == "/metrics") {
    // Fold every column's decayed heat into its gauge and sum the usage
    // records into the dict.* totals, so the scrape sees current values.
    Profiler().RefreshScrapeMetrics();
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = ExportPrometheusText(Metrics());
  } else if (path == "/decisions.json") {
    response.content_type = "application/json";
    response.body = DecisionLogToJson(Decisions());
  } else if (path == "/spans.json") {
    response.content_type = "application/json";
    response.body = SpansJson();
  } else if (path == "/profile.json") {
    response.content_type = "application/json";
    response.body = ProfileToJson(Profiler());
  } else if (path == "/healthz") {
    response.body = "ok\n";
  } else if (path == "/trace/start") {
    Trace().Clear();
    SetTraceEnabled(true);
    response.content_type = "application/json";
    response.body = "{\"tracing\":true}";
  } else if (path == "/trace/stop") {
    SetTraceEnabled(false);
    const std::string out_file = QueryParam(query, "out");
    if (out_file.empty()) {
      response.content_type = "application/json";
      response.body = SpansJson();
    } else {
      const std::string json = TraceToChromeJson();
      std::ofstream out(out_file, std::ios::binary | std::ios::trunc);
      out.write(json.data(), static_cast<std::streamsize>(json.size()));
      out.flush();
      if (out.good()) {
        response.content_type = "application/json";
        response.body = "{\"tracing\":false,\"out\":\"" + out_file + "\"}";
      } else {
        response.status = 500;
        response.body = "cannot write " + out_file + "\n";
      }
    }
  }
  return response;
}

void SendResponse(int fd, const HttpResponse& response,
                  const std::atomic<bool>& stop) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     std::string(ReasonPhrase(response.status)) + "\r\n";
  head += "Content-Type: " + response.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  if (!response.allow.empty()) head += "Allow: " + response.allow + "\r\n";
  head += "Connection: close\r\n\r\n";
  SendAll(fd, head, &stop);
  SendAll(fd, response.body, &stop);
}

/// The listener's serve handler: one request, one response.
void Serve(int fd, const std::atomic<bool>& stop) {
  ADICT_TRACE_SPAN("obs.http.request");
  Histogram* latency = nullptr;
  if (Enabled()) {
    static Counter* requests = Metrics().GetCounter(
        "obs.http.requests", "requests", "HTTP requests accepted");
    requests->Increment();
    static Histogram* histogram = Metrics().GetHistogram(
        "obs.http.request.us", {}, "us",
        "HTTP request handling latency (parse through response)");
    latency = histogram;
  }
  ScopedTimer timer(latency);

  // A stalled client holds its handler for at most RecvSome's 5 s idle
  // timeout, and not at all once Stop() is called.
  std::string request;
  bool complete = false;
  char buf[2048];
  while (request.size() < kMaxRequestBytes) {
    size_t got = 0;
    const RecvResult received = RecvSome(fd, buf, sizeof(buf), &got, &stop);
    if (received == RecvResult::kStopped) return;  // shutting down: no reply
    if (received != RecvResult::kOk) break;
    request.append(buf, got);
    if (request.find("\r\n\r\n") != std::string::npos) {
      complete = true;
      break;
    }
  }

  HttpResponse response;
  if (!complete) {
    response.status = 400;
    response.body = "bad request\n";
  } else {
    const size_t line_end = request.find("\r\n");
    const std::string_view line = std::string_view(request).substr(0, line_end);
    const size_t method_end = line.find(' ');
    const size_t target_end =
        method_end == std::string_view::npos
            ? std::string_view::npos
            : line.find(' ', method_end + 1);
    if (target_end == std::string_view::npos) {
      response.status = 400;
      response.body = "bad request\n";
    } else {
      const std::string_view method = line.substr(0, method_end);
      std::string_view target =
          line.substr(method_end + 1, target_end - method_end - 1);
      std::string_view query;
      const size_t question = target.find('?');
      if (question != std::string_view::npos) {
        query = target.substr(question + 1);
        target = target.substr(0, question);
      }
      response = HandleRequest(method, target, query);
    }
  }
  if (response.status >= 400 && Enabled()) {
    static Counter* errors = Metrics().GetCounter(
        "obs.http.errors", "responses",
        "HTTP responses with a 4xx or 5xx status");
    errors->Increment();
  }
  SendResponse(fd, response, stop);
}

}  // namespace

HttpExporter::HttpExporter(Options options)
    : listener_(std::move(options), kMaxHandlers, Serve) {}

}  // namespace obs
}  // namespace adict
