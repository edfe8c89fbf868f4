// HTTP exposition server and workload profiler tests: a loopback client
// exercises every route, the Prometheus exposition is checked for
// conformance (every histogram's +Inf bucket equals its _count within one
// scrape, even while a writer races the scrape), the JSON endpoints are
// validated with a small recursive-descent parser, and shutdown is proved
// clean under in-flight requests. The race cases at the bottom exist for
// the tsan CI job, which builds this binary with -fsanitize=thread.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dict/dictionary.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/workload_profiler.h"
#include "store/string_column.h"
#include "store/table.h"
#include "util/thread_pool.h"

namespace adict {
namespace {

class HttpExporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::ResetForTest();
  }
};

// ---------------------------------------------------------------------------
// Loopback HTTP/1.1 client (blocking, one request per connection — which is
// exactly the server's contract: Connection: close).

struct HttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lower-cased names
  std::string body;
};

HttpResponse Fetch(int port, const std::string& method,
                   const std::string& target) {
  HttpResponse response;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return response;  // status 0 = connection refused
  }
  const std::string request = method + " " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    raw.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);

  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return response;
  response.body = raw.substr(header_end + 4);
  const std::string head = raw.substr(0, header_end);
  size_t line_end = head.find("\r\n");
  const std::string status_line =
      head.substr(0, line_end == std::string::npos ? head.size() : line_end);
  // "HTTP/1.1 200 OK"
  const size_t space = status_line.find(' ');
  if (space != std::string::npos) {
    response.status = std::atoi(status_line.c_str() + space + 1);
  }
  size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t next = head.find("\r\n", pos);
    if (next == std::string::npos) next = head.size();
    const std::string line = head.substr(pos, next - pos);
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = line.substr(0, colon);
      for (char& ch : name) ch = static_cast<char>(std::tolower(ch));
      size_t value_begin = colon + 1;
      while (value_begin < line.size() && line[value_begin] == ' ') {
        ++value_begin;
      }
      response.headers[name] = line.substr(value_begin);
    }
    pos = next + 2;
  }
  return response;
}

/// Opens a loopback connection that sends nothing: a stalled client. Returns
/// the socket (the caller closes it), or -1.
int ConnectSilently(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---------------------------------------------------------------------------
// Minimal JSON validator: accepts exactly the RFC 8259 grammar (minus the
// full number/escape fine print) and rejects truncated or unbalanced
// output. Enough to prove the endpoints emit parseable JSON.

bool SkipJsonValue(const std::string& s, size_t* pos);

void SkipSpace(const std::string& s, size_t* pos) {
  while (*pos < s.size() && std::isspace(static_cast<unsigned char>(s[*pos]))) {
    ++*pos;
  }
}

bool SkipJsonString(const std::string& s, size_t* pos) {
  if (*pos >= s.size() || s[*pos] != '"') return false;
  ++*pos;
  while (*pos < s.size() && s[*pos] != '"') {
    if (s[*pos] == '\\') ++*pos;  // skip the escaped character
    ++*pos;
  }
  if (*pos >= s.size()) return false;
  ++*pos;  // closing quote
  return true;
}

bool SkipJsonValue(const std::string& s, size_t* pos) {
  SkipSpace(s, pos);
  if (*pos >= s.size()) return false;
  const char ch = s[*pos];
  if (ch == '"') return SkipJsonString(s, pos);
  if (ch == '{' || ch == '[') {
    const char close = ch == '{' ? '}' : ']';
    ++*pos;
    SkipSpace(s, pos);
    if (*pos < s.size() && s[*pos] == close) {
      ++*pos;
      return true;
    }
    while (true) {
      if (ch == '{') {
        SkipSpace(s, pos);
        if (!SkipJsonString(s, pos)) return false;
        SkipSpace(s, pos);
        if (*pos >= s.size() || s[*pos] != ':') return false;
        ++*pos;
      }
      if (!SkipJsonValue(s, pos)) return false;
      SkipSpace(s, pos);
      if (*pos >= s.size()) return false;
      if (s[*pos] == ',') {
        ++*pos;
        continue;
      }
      if (s[*pos] == close) {
        ++*pos;
        return true;
      }
      return false;
    }
  }
  // true / false / null / number: consume the token.
  const size_t begin = *pos;
  while (*pos < s.size() &&
         (std::isalnum(static_cast<unsigned char>(s[*pos])) || s[*pos] == '+' ||
          s[*pos] == '-' || s[*pos] == '.' || s[*pos] == 'e' ||
          s[*pos] == 'E')) {
    ++*pos;
  }
  return *pos > begin;
}

bool IsValidJson(const std::string& s) {
  size_t pos = 0;
  if (!SkipJsonValue(s, &pos)) return false;
  SkipSpace(s, &pos);
  return pos == s.size();
}

// ---------------------------------------------------------------------------
// Exposition conformance: within one scrape, every histogram's +Inf bucket
// must equal its _count (both derive from one snapshot).

void CheckHistogramConsistency(const std::string& exposition) {
  std::map<std::string, uint64_t> inf_buckets;
  std::map<std::string, uint64_t> counts;
  size_t pos = 0;
  while (pos < exposition.size()) {
    size_t end = exposition.find('\n', pos);
    if (end == std::string::npos) end = exposition.size();
    const std::string line = exposition.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t inf = line.find("_bucket{le=\"+Inf\"} ");
    if (inf != std::string::npos) {
      inf_buckets[line.substr(0, inf)] =
          std::strtoull(line.c_str() + inf + 19, nullptr, 10);
      continue;
    }
    const size_t count = line.find("_count ");
    if (count != std::string::npos) {
      counts[line.substr(0, count)] =
          std::strtoull(line.c_str() + count + 7, nullptr, 10);
    }
  }
  EXPECT_FALSE(inf_buckets.empty());
  for (const auto& [name, inf_value] : inf_buckets) {
    ASSERT_TRUE(counts.contains(name)) << name;
    EXPECT_EQ(inf_value, counts[name]) << name;
  }
}

// ---------------------------------------------------------------------------
// Routes.

TEST_F(HttpExporterTest, StartsOnEphemeralPortAndStops) {
  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());
  EXPECT_TRUE(exporter.running());
  EXPECT_GT(exporter.port(), 0);
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  exporter.Stop();  // idempotent
}

TEST_F(HttpExporterTest, HealthzServesOk) {
  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());
  const HttpResponse response = Fetch(exporter.port(), "GET", "/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");
  exporter.Stop();
}

// A client that connects and sends nothing holds only its own handler: at
// pool width 1, where a pool task runs inline on the submitting thread, a
// handler on the pool would block accepting for the 5 s receive timeout.
TEST_F(HttpExporterTest, SilentClientDoesNotBlockAcceptingAtPoolWidth1) {
  SetPoolParallelism(1);
  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());
  const int silent = ConnectSilently(exporter.port());
  ASSERT_GE(silent, 0);
  const auto start = std::chrono::steady_clock::now();
  const HttpResponse response = Fetch(exporter.port(), "GET", "/healthz");
  EXPECT_LT(SecondsSince(start), 1.0);
  EXPECT_EQ(response.status, 200);
  ::close(silent);
  exporter.Stop();
  SetPoolParallelism(DefaultPoolParallelism());
}

// At kMaxHandlers open connections the exporter accepts nothing more; the
// next request waits in the listen backlog until a handler ends.
TEST_F(HttpExporterTest, HandlersAreCappedAndTheBacklogWaits) {
  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());
  const int port = exporter.port();
  std::vector<int> silent;
  for (int i = 0; i < obs::HttpExporter::kMaxHandlers; ++i) {
    silent.push_back(ConnectSilently(port));
    ASSERT_GE(silent.back(), 0);
  }
  std::atomic<bool> answered{false};
  int status = 0;
  std::thread client([&] {
    status = Fetch(port, "GET", "/healthz").status;
    answered.store(true, std::memory_order_release);
  });
  // Every handler waits on a silent client, for up to the 5 s receive
  // timeout, so the request is still in the backlog.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(answered.load(std::memory_order_acquire));

  // Closing one silent client ends its handler, which frees a slot.
  ::close(silent.back());
  silent.pop_back();
  const auto closed = std::chrono::steady_clock::now();
  while (!answered.load(std::memory_order_acquire) &&
         SecondsSince(closed) < 3.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(answered.load(std::memory_order_acquire));
  EXPECT_LT(SecondsSince(closed), 3.0);
  client.join();
  EXPECT_EQ(status, 200);
  for (int fd : silent) ::close(fd);
  exporter.Stop();
}

TEST_F(HttpExporterTest, MetricsServesConformantExposition) {
  obs::RegisterProcessMetrics(kNumDictFormats);
  obs::Metrics().GetCounter("test.http.counter", "calls")->Increment(7);
  const std::vector<double> bounds = {1, 10, 100};
  obs::Histogram* histogram =
      obs::Metrics().GetHistogram("test.http.hist", bounds);
  for (int i = 0; i < 50; ++i) histogram->Observe(i);

  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());
  const HttpResponse response = Fetch(exporter.port(), "GET", "/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.headers.at("content-type").find("version=0.0.4"),
            std::string::npos);

  EXPECT_NE(response.body.find("test_http_counter 7"), std::string::npos);
  EXPECT_NE(response.body.find("adict_build_info{version=\"" +
                               std::string(obs::kBuildVersion) + "\",formats=\"" +
                               std::to_string(kNumDictFormats) + "\"} 1"),
            std::string::npos);
  EXPECT_NE(response.body.find("process_start_time_seconds"),
            std::string::npos);
  CheckHistogramConsistency(response.body);
  exporter.Stop();
}

TEST_F(HttpExporterTest, MetricsStaysConsistentUnderConcurrentObserves) {
  const std::vector<double> bounds = {1, 10, 100};
  obs::Histogram* histogram =
      obs::Metrics().GetHistogram("test.http.race_hist", bounds);
  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      histogram->Observe(static_cast<double>(i++ % 200));
    }
  });
  for (int scrape = 0; scrape < 20; ++scrape) {
    const HttpResponse response = Fetch(exporter.port(), "GET", "/metrics");
    ASSERT_EQ(response.status, 200);
    CheckHistogramConsistency(response.body);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  exporter.Stop();
}

TEST_F(HttpExporterTest, MetricsRefreshesHeatGaugesAtScrapeTime) {
  obs::ColumnHeat* slot = obs::Profiler().GetColumn("scrape.heat_column");
  slot->RecordOp(obs::ColumnOp::kExtract, 640, 0);

  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());
  const HttpResponse response = Fetch(exporter.port(), "GET", "/metrics");
  EXPECT_EQ(response.status, 200);
  // The 640 ops recorded above were never folded explicitly; the scrape did.
  EXPECT_NE(response.body.find("profiler_heat_scrape_heat_column 640"),
            std::string::npos);
  exporter.Stop();
}

TEST_F(HttpExporterTest, MetricsSumUsageRecordsIntoDictTotals) {
  obs::Profiler().GetColumn("sum.a")->RecordOp(obs::ColumnOp::kExtract, 3, 0);
  obs::Profiler().GetColumn("sum.b")->RecordOp(obs::ColumnOp::kExtract, 4, 0);
  obs::Profiler().GetColumn("sum.b")->RecordOp(obs::ColumnOp::kLocate, 5, 0);
  obs::Profiler().GetColumn("sum.b")->RecordOp(obs::ColumnOp::kScan, 6, 0);
  // Row scans and merges are no dictionary access.
  obs::Profiler().GetColumn("sum.b")->RecordOp(obs::ColumnOp::kRowScan, 7, 0);
  obs::Profiler().GetColumn("sum.b")->RecordOp(obs::ColumnOp::kMerge, 8, 0);

  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());
  const HttpResponse response = Fetch(exporter.port(), "GET", "/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\ndict_extract_count 7\n"), std::string::npos);
  EXPECT_NE(response.body.find("\ndict_locate_count 5\n"), std::string::npos);
  EXPECT_NE(response.body.find("\ndict_scan_entries 6\n"), std::string::npos);
  exporter.Stop();
}

TEST_F(HttpExporterTest, JsonEndpointsServeValidJson) {
  // Put something into each source so the bodies are not trivially empty.
  Table table("http");
  std::vector<std::string> values;
  for (int i = 0; i < 200; ++i) values.push_back("v" + std::to_string(i % 50));
  table.AddStringColumn("col",
                        StringColumn::FromValues(values, DictFormat::kArray));
  {
    obs::ScopedQueryProfile profile("test.query");
    const TableSnapshot snapshot = table.Snapshot();
    for (uint64_t row = 0; row < 100; ++row) {
      (void)snapshot.strings("col").GetValue(row);
    }
  }
  obs::Profiler().RecordSchedulerRanking({{"http.col", 1.5, 2.0, 4096, 3.0}});

  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());
  for (const char* target : {"/decisions.json", "/profile.json", "/spans.json"}) {
    const HttpResponse response = Fetch(exporter.port(), "GET", target);
    EXPECT_EQ(response.status, 200) << target;
    EXPECT_NE(response.headers.at("content-type").find("application/json"),
              std::string::npos)
        << target;
    EXPECT_TRUE(IsValidJson(response.body)) << target << "\n" << response.body;
  }
  const HttpResponse profile = Fetch(exporter.port(), "GET", "/profile.json");
  EXPECT_NE(profile.body.find("\"http.col\""), std::string::npos);
  for (int op = 0; op < obs::kNumColumnOps; ++op) {
    const std::string name(obs::ColumnOpName(static_cast<obs::ColumnOp>(op)));
    EXPECT_NE(profile.body.find("\"" + name + "\":{\"count\""),
              std::string::npos)
        << name;
  }
  EXPECT_NE(profile.body.find("\"test.query\""), std::string::npos);
  EXPECT_NE(profile.body.find("\"scheduler_ranking\""), std::string::npos);
  exporter.Stop();
}

TEST_F(HttpExporterTest, UnknownTargetIs404UnsupportedMethodIs405) {
  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());
  EXPECT_EQ(Fetch(exporter.port(), "GET", "/nope").status, 404);
  const HttpResponse post_metrics = Fetch(exporter.port(), "POST", "/metrics");
  EXPECT_EQ(post_metrics.status, 405);
  EXPECT_EQ(post_metrics.headers.at("allow"), "GET");
  const HttpResponse get_trace = Fetch(exporter.port(), "GET", "/trace/start");
  EXPECT_EQ(get_trace.status, 405);
  EXPECT_EQ(get_trace.headers.at("allow"), "POST");
  exporter.Stop();
}

TEST_F(HttpExporterTest, TraceTogglesAtRuntime) {
  obs::SetTraceEnabled(false);
  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());

  const HttpResponse start = Fetch(exporter.port(), "POST", "/trace/start");
  EXPECT_EQ(start.status, 200);
  EXPECT_NE(start.body.find("\"tracing\":true"), std::string::npos);
  EXPECT_TRUE(obs::TraceEnabled());
  { ADICT_TRACE_SPAN("obs.http.request"); }  // record something

  const std::string out =
      ::testing::TempDir() + "/adict_http_exporter_trace.json";
  std::remove(out.c_str());
  const HttpResponse stop =
      Fetch(exporter.port(), "POST", "/trace/stop?out=" + out);
  EXPECT_EQ(stop.status, 200);
  EXPECT_FALSE(obs::TraceEnabled());
  std::FILE* f = std::fopen(out.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string written;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    written.append(buffer, n);
  }
  std::fclose(f);
  std::remove(out.c_str());
  EXPECT_TRUE(IsValidJson(written)) << written;
  EXPECT_NE(written.find("obs.http.request"), std::string::npos);

  // Without ?out=, the trace JSON is the response body.
  (void)Fetch(exporter.port(), "POST", "/trace/start");
  const HttpResponse inline_stop = Fetch(exporter.port(), "POST", "/trace/stop");
  EXPECT_EQ(inline_stop.status, 200);
  EXPECT_TRUE(IsValidJson(inline_stop.body));
  exporter.Stop();
}

TEST_F(HttpExporterTest, FixedPortIsHonoredAndCollisionFailsCleanly) {
  obs::HttpExporter first;
  ASSERT_TRUE(first.Start().ok());
  obs::HttpExporter::Options options;
  options.port = first.port();
  obs::HttpExporter second(options);
  const Status status = second.Start();
  EXPECT_FALSE(status.ok());  // port in use: an error, never an abort
  EXPECT_FALSE(second.running());
  first.Stop();
}

TEST_F(HttpExporterTest, StopDrainsInFlightRequests) {
  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());
  const int port = exporter.port();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const HttpResponse response = Fetch(port, "GET", "/metrics");
        // During shutdown the connection may be refused (status 0); any
        // response that did come back must be complete and well-formed.
        if (response.status != 0) {
          EXPECT_EQ(response.status, 200);
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Let the hammering overlap the shutdown window.
  while (completed.load(std::memory_order_relaxed) < 8) {
    std::this_thread::yield();
  }
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  EXPECT_GE(completed.load(), 8u);
}

// A silent client's handler is waiting for a request when Stop() is called;
// its read gives up on stop instead of waiting out the 5 s idle timeout.
TEST_F(HttpExporterTest, StopIsPromptWithASilentClient) {
  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());
  const int silent = ConnectSilently(exporter.port());
  ASSERT_GE(silent, 0);
  // The handler counts the request as soon as it takes the connection.
  const obs::Counter* requests = obs::Metrics().GetCounter(
      "obs.http.requests", "requests", "HTTP requests accepted");
  const auto connected = std::chrono::steady_clock::now();
  while (requests->value() == 0 && SecondsSince(connected) < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(requests->value(), 1u);
  const auto start = std::chrono::steady_clock::now();
  exporter.Stop();
  EXPECT_LT(SecondsSince(start), 1.0);
  ::close(silent);
}

// ---------------------------------------------------------------------------
// Workload profiler semantics.

TEST_F(HttpExporterTest, DecayedHeatHalvesPerHalfLife) {
  obs::Profiler().set_half_life_seconds(30.0);
  obs::ColumnHeat* slot = obs::Profiler().GetColumn("decay.column");
  slot->RecordOp(obs::ColumnOp::kExtract, 1000, 0);
  EXPECT_NEAR(slot->DecayedHeat(), 1000.0, 1.0);
  slot->DecayForTest(30.0);  // one half-life
  EXPECT_NEAR(slot->DecayedHeat(), 500.0, 1.0);
  slot->DecayForTest(60.0);  // two more
  EXPECT_NEAR(slot->DecayedHeat(), 125.0, 1.0);
  // New traffic folds in at full weight on top of the decayed base.
  slot->RecordOp(obs::ColumnOp::kLocate, 1000, 0);
  EXPECT_NEAR(slot->DecayedHeat(), 1125.0, 1.5);
}

TEST_F(HttpExporterTest, SingletonLatencySamplingRepresentsAllOps) {
  obs::ColumnHeat* slot = obs::Profiler().GetColumn("sampling.column");
  constexpr int kCalls = 128;  // two full sample periods
  for (int i = 0; i < kCalls; ++i) {
    obs::ScopedColumnOp op(slot, obs::ColumnOp::kExtract);
    op.AddBytes(10);
  }
  const obs::ColumnHeat::OpTotals totals =
      slot->Totals(obs::ColumnOp::kExtract);
  EXPECT_EQ(totals.count, static_cast<uint64_t>(kCalls));
  EXPECT_EQ(totals.bytes, static_cast<uint64_t>(kCalls) * 10);
  // Calls 0 and 64 were timed; each observation stands for 64 ops.
  EXPECT_EQ(slot->latency(obs::ColumnOp::kExtract).count(), 2u);
  EXPECT_GT(totals.total_us, 0.0);

  // Batches are always timed exactly.
  { obs::ScopedColumnOp batch(slot, obs::ColumnOp::kScan, 500); }
  EXPECT_EQ(slot->latency(obs::ColumnOp::kScan).count(), 1u);
  EXPECT_EQ(slot->Totals(obs::ColumnOp::kScan).count, 500u);
}

TEST_F(HttpExporterTest, ScopedQueryProfileAttributesOnlyScopedWork) {
  obs::ColumnHeat* touched = obs::Profiler().GetColumn("attr.touched");
  obs::ColumnHeat* untouched = obs::Profiler().GetColumn("attr.untouched");
  untouched->RecordOp(obs::ColumnOp::kExtract, 99, 0);  // before the query
  {
    obs::ScopedQueryProfile profile("attributed.query");
    touched->RecordOp(obs::ColumnOp::kExtract, 42, 84);
  }
  const std::vector<obs::QueryAttribution> queries =
      obs::Profiler().RecentQueries();
  ASSERT_EQ(queries.size(), 1u);
  EXPECT_EQ(queries[0].query, "attributed.query");
  EXPECT_GT(queries[0].wall_us, 0.0);
  ASSERT_EQ(queries[0].columns.size(), 1u);  // untouched column: no diff
  EXPECT_EQ(queries[0].columns[0].column, "attr.touched");
  const auto extract_index = static_cast<size_t>(obs::ColumnOp::kExtract);
  EXPECT_EQ(queries[0].columns[0].ops[extract_index].count, 42u);
  EXPECT_EQ(queries[0].columns[0].ops[extract_index].bytes, 84u);
}

TEST_F(HttpExporterTest, QueryRingIsBounded) {
  obs::ColumnHeat* slot = obs::Profiler().GetColumn("ring.column");
  for (size_t i = 0; i < obs::WorkloadProfiler::kQueryRingCapacity + 10; ++i) {
    obs::ScopedQueryProfile profile("q" + std::to_string(i));
    slot->RecordOp(obs::ColumnOp::kExtract, 1, 0);
  }
  const std::vector<obs::QueryAttribution> queries =
      obs::Profiler().RecentQueries();
  EXPECT_EQ(queries.size(), obs::WorkloadProfiler::kQueryRingCapacity);
  EXPECT_EQ(obs::Profiler().total_queries(),
            obs::WorkloadProfiler::kQueryRingCapacity + 10);
  // Oldest entries were evicted; the newest survives.
  EXPECT_EQ(queries.back().query,
            "q" + std::to_string(obs::WorkloadProfiler::kQueryRingCapacity + 9));
}

TEST_F(HttpExporterTest, DisabledObservabilityMakesRecordingFree) {
  // With observability off only the count moves — format decisions and
  // eviction ranking read it. No bytes, and no clock read: the first call
  // on a fresh slot would be the timed sample.
  obs::ColumnHeat* slot = obs::Profiler().GetColumn("disabled.column");
  obs::SetEnabled(false);
  {
    obs::ScopedColumnOp op(slot, obs::ColumnOp::kExtract);
    op.AddBytes(100);
  }
  obs::SetEnabled(true);
  const obs::ColumnHeat::OpTotals totals =
      slot->Totals(obs::ColumnOp::kExtract);
  EXPECT_EQ(totals.count, 1u);
  EXPECT_EQ(totals.bytes, 0u);
  EXPECT_EQ(totals.total_us, 0.0);
  EXPECT_EQ(slot->latency(obs::ColumnOp::kExtract).count(), 0u);
  EXPECT_EQ(slot->TotalOps(), 1u);
}

// ---------------------------------------------------------------------------
// Races (the tsan CI job builds this binary with -fsanitize=thread).

TEST_F(HttpExporterTest, ProfilerUpdatesRaceScrapesCleanly) {
  obs::ColumnHeat* slot = obs::Profiler().GetColumn("race.column");
  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());
  const int port = exporter.port();

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        obs::ScopedColumnOp op(slot, obs::ColumnOp::kExtract);
        op.AddBytes(16);
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)slot->DecayedHeat();
      obs::ScopedQueryProfile profile("race.query");
      slot->RecordOp(obs::ColumnOp::kLocate, 1, 1);
    }
  });
  for (int scrape = 0; scrape < 10; ++scrape) {
    EXPECT_EQ(Fetch(port, "GET", "/metrics").status, 200);
    EXPECT_EQ(Fetch(port, "GET", "/profile.json").status, 200);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  exporter.Stop();
  EXPECT_GT(slot->TotalOps(), 0u);
}

}  // namespace
}  // namespace adict
