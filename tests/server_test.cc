// Query-server test battery: loopback protocol conformance for every query
// kind and every error path, result-cache semantics (hit/miss/LRU/epoch
// invalidation), admission control under saturation, clean shutdown drain,
// and N clients hammering the server while delta merges republish the
// column underneath them. The concurrency cases at the bottom exist for
// the tsan CI job, which builds this binary with -fsanitize=thread.
//
// The acceptance-critical property proved here: a cached result is never
// served across an epoch boundary. MergeInvalidatesCachedResult runs the
// identical query before and after a delta merge and shows the second
// answer is a fresh execution (no cache-hit flag, new counts), repeatedly.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/compression_manager.h"
#include "core/recompression_scheduler.h"
#include "engine/predicates.h"
#include "engine/scan.h"
#include "obs/obs.h"
#include "server/protocol.h"
#include "server/query_server.h"
#include "server/result_cache.h"
#include "store/delta.h"
#include "store/string_column.h"
#include "store/table.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "util/net.h"

namespace adict {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::ResetForTest();
  }
};

/// Spins until `pred` holds (the server noticed something asynchronously)
/// or five seconds pass.
bool WaitFor(const std::function<bool()>& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A raw loopback connection to `port`, or -1. A nonzero `receive_buffer`
/// sets SO_RCVBUF before the handshake, which fixes the window small: a
/// peer writing to a client that never reads then blocks within kilobytes.
int ConnectLoopback(int port, int receive_buffer = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (receive_buffer > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &receive_buffer,
                 sizeof(receive_buffer));
  }
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

/// Reads `n` bytes from `fd`, giving up after 5 s of silence; "" on failure.
std::string ReadBytes(int fd, size_t n) {
  std::string out(n, '\0');
  if (RecvExact(fd, out.data(), n, nullptr) != RecvResult::kOk) return "";
  return out;
}

/// Runs `stop` on a thread of its own and returns its seconds, or `limit`
/// if it has not returned by then. Either way it then calls `unblock`
/// (which releases whatever holds `stop` up) and joins, so a Stop() that
/// hangs fails the test instead of hanging it.
double TimeStop(const std::function<void()>& stop,
                const std::function<void()>& unblock, double limit = 5.0) {
  std::atomic<bool> done{false};
  const auto start = std::chrono::steady_clock::now();
  std::thread stopper([&] {
    stop();
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire) && SecondsSince(start) < limit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double seconds = SecondsSince(start);
  unblock();
  stopper.join();
  return seconds;
}

// ---------------------------------------------------------------------------
// Loopback binary-protocol client (blocking, multiple requests per
// connection — the server's protocol is persistent).

class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    // A test must fail, not hang, if the server never answers.
    timeval timeout{};
    timeout.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool SendBytes(const void* data, size_t size) {
    return SendAll(fd_, std::string_view(static_cast<const char*>(data),
                                         size));
  }
  bool SendFrame(const Request& request) {
    const std::vector<uint8_t> frame = EncodeRequest(request);
    return SendBytes(frame.data(), frame.size());
  }

  /// Reads one response frame; nullopt on EOF / timeout / undecodable.
  std::optional<Response> ReadResponse() {
    uint8_t prefix[sizeof(uint32_t)];
    if (!RecvAll(prefix, sizeof(prefix))) return std::nullopt;
    uint32_t length = 0;
    std::memcpy(&length, prefix, sizeof(length));
    if (length > kMaxFrameBytes) return std::nullopt;
    std::vector<uint8_t> body(length);
    if (length > 0 && !RecvAll(body.data(), body.size())) {
      return std::nullopt;
    }
    StatusOr<Response> decoded = DecodeResponseBody(body);
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    if (!decoded.ok()) return std::nullopt;
    return *std::move(decoded);
  }

  std::optional<Response> Roundtrip(const Request& request) {
    if (!SendFrame(request)) return std::nullopt;
    return ReadResponse();
  }

  /// True when the peer has closed (next read sees EOF).
  bool AtEof() {
    char byte;
    const ssize_t n = ::recv(fd_, &byte, 1, 0);
    return n == 0;
  }

 private:
  bool RecvAll(void* buf, size_t size) {
    size_t got = 0;
    while (got < size) {
      const ssize_t n =
          ::recv(fd_, static_cast<char*>(buf) + got, size - got, 0);
      if (n <= 0) return false;
      got += static_cast<size_t>(n);
    }
    return true;
  }

  int fd_ = -1;
};

// ---------------------------------------------------------------------------
// Request builders and a small reference table.

Request Ping(uint64_t id = 1) {
  Request request;
  request.request_id = id;
  request.kind = QueryKind::kPing;
  return request;
}

Request Count(const std::string& table, const std::string& column,
              PredicateOp op, const std::string& value,
              const std::string& value2 = "", uint64_t id = 1) {
  Request request;
  request.request_id = id;
  request.kind = QueryKind::kCount;
  request.table = table;
  request.column = column;
  request.op = op;
  request.value = value;
  request.value2 = value2;
  return request;
}

Request Select(const std::string& table, const std::string& column,
               PredicateOp op, const std::string& value, uint64_t limit,
               uint64_t id = 1) {
  Request request;
  request.request_id = id;
  request.kind = QueryKind::kSelect;
  request.table = table;
  request.column = column;
  request.op = op;
  request.value = value;
  request.limit = limit;
  return request;
}

std::vector<std::string> TestValues() {
  std::vector<std::string> values;
  for (int i = 0; i < 40; ++i) {
    values.push_back("alpha");
    values.push_back("beta");
    values.push_back("gamma");
    values.push_back("delta_" + std::to_string(i % 7));
  }
  return values;
}

Table MakeTestTable() {
  Table table("t");
  table.AddStringColumn("word", StringColumn::FromValues(TestValues()));
  return table;
}

uint64_t CountOf(const std::vector<std::string>& values,
                 const std::string& value) {
  uint64_t count = 0;
  for (const std::string& v : values) count += v == value;
  return count;
}

/// The count cell of an OK single-row response.
uint64_t CountCell(const Response& response) {
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.result.rows.size(), 1u);
  EXPECT_EQ(response.result.column_names, std::vector<std::string>{"count"});
  return std::stoull(response.result.rows.at(0).at(0));
}

// ---------------------------------------------------------------------------
// util/net.h helper error paths (the satellite fix: one shared socket
// setup for the HTTP exporter and the query server).

TEST(NetHelperTest, RejectsInvalidBindAddress) {
  ListenOptions options;
  options.bind_address = "not-an-address";
  const StatusOr<ListenSocket> socket = OpenListenSocket(options);
  ASSERT_FALSE(socket.ok());
  EXPECT_EQ(socket.status().code(), StatusCode::kIoError);
  EXPECT_NE(socket.status().message().find("invalid bind address"),
            std::string::npos);
}

TEST(NetHelperTest, ResolvesEphemeralPort) {
  const StatusOr<ListenSocket> socket = OpenListenSocket(ListenOptions{});
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  EXPECT_GT(socket->port, 0);
  ::close(socket->fd);
}

TEST(NetHelperTest, FailsOnBusyPort) {
  const StatusOr<ListenSocket> first = OpenListenSocket(ListenOptions{});
  ASSERT_TRUE(first.ok());
  ListenOptions options;
  options.port = first->port;
  const StatusOr<ListenSocket> second = OpenListenSocket(options);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kIoError);
  EXPECT_NE(second.status().message().find("bind"), std::string::npos);
  ::close(first->fd);
}

TEST(NetHelperTest, SendAllToClosedFdFailsCleanly) {
  const StatusOr<ListenSocket> socket = OpenListenSocket(ListenOptions{});
  ASSERT_TRUE(socket.ok());
  const int fd = socket->fd;
  ::close(fd);
  EXPECT_FALSE(SendAll(fd, "data"));
}

TEST(NetHelperTest, AcceptedSocketsHaveNoDelay) {
  const StatusOr<ListenSocket> listener = OpenListenSocket(ListenOptions{});
  ASSERT_TRUE(listener.ok());
  Client client(listener->port);
  ASSERT_TRUE(client.connected());
  const int server_fd = AcceptWithTimeout(listener->fd, 1000);
  ASSERT_GE(server_fd, 0);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(server_fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0);
  EXPECT_EQ(nodelay, 1);
  ::close(server_fd);
  ::close(listener->fd);
}

TEST(NetHelperTest, RecvExactHonorsStopFlag) {
  const StatusOr<ListenSocket> listener = OpenListenSocket(ListenOptions{});
  ASSERT_TRUE(listener.ok());
  Client client(listener->port);
  const int server_fd = AcceptWithTimeout(listener->fd, 1000);
  ASSERT_GE(server_fd, 0);
  std::atomic<bool> stop{false};
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    stop.store(true, std::memory_order_release);
  });
  char buf[16];
  // The client never sends, so only the stop flag can end the wait.
  EXPECT_EQ(RecvExact(server_fd, buf, sizeof(buf), &stop, 0),
            RecvResult::kStopped);
  stopper.join();
  ::close(server_fd);
  ::close(listener->fd);
}

TEST(NetHelperTest, SendAllGivesUpOnStop) {
  const StatusOr<ListenSocket> listener = OpenListenSocket(ListenOptions{});
  ASSERT_TRUE(listener.ok());
  const int client = ConnectLoopback(listener->port, /*receive_buffer=*/4096);
  ASSERT_GE(client, 0);
  const int server_fd = AcceptWithTimeout(listener->fd, 1000);
  ASSERT_GE(server_fd, 0);
  std::atomic<bool> stop{false};
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    stop.store(true, std::memory_order_release);
  });
  // The client never reads, so the socket fills long before 16 MiB, and
  // only the stop flag can end the wait.
  const std::string data(16u << 20, 'x');
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(SendAll(server_fd, data, &stop));
  EXPECT_LT(SecondsSince(start), 1.0);
  stopper.join();
  ::close(server_fd);
  ::close(client);
  ::close(listener->fd);
}

// ---------------------------------------------------------------------------
// util/net.h Listener: the one accept loop of both front ends.

/// A serve handler that greets the client, then holds its connection until
/// the client closes or the listener stops.
void GreetAndHold(int fd, const std::atomic<bool>& stop) {
  SendAll(fd, "hi", &stop);
  char byte;
  RecvExact(fd, &byte, 1, &stop, /*idle_timeout_ms=*/0);
}

TEST(ListenerTest, RefusesOverTheCapWithTheRefuseHandler) {
  Listener listener(ListenOptions{}, /*max_connections=*/1, GreetAndHold,
                    [](int fd, const std::atomic<bool>& stop) {
                      SendAll(fd, "full", &stop);
                    });
  ASSERT_TRUE(listener.Start().ok());
  const int first = ConnectLoopback(listener.port());
  ASSERT_GE(first, 0);
  EXPECT_EQ(ReadBytes(first, 2), "hi");

  const int second = ConnectLoopback(listener.port());
  ASSERT_GE(second, 0);
  EXPECT_EQ(ReadBytes(second, 4), "full");
  char byte;
  EXPECT_EQ(RecvExact(second, &byte, 1, nullptr), RecvResult::kClosed);
  ::close(second);

  // Closing the first connection frees its slot.
  ::close(first);
  ASSERT_TRUE(WaitFor([&] { return listener.active() == 0; }));
  const int third = ConnectLoopback(listener.port());
  ASSERT_GE(third, 0);
  EXPECT_EQ(ReadBytes(third, 2), "hi");
  ::close(third);
  listener.Stop();
}

TEST(ListenerTest, WaitsInTheBacklogAtTheCapWithoutARefuseHandler) {
  Listener listener(ListenOptions{}, /*max_connections=*/1, GreetAndHold);
  ASSERT_TRUE(listener.Start().ok());
  const int first = ConnectLoopback(listener.port());
  ASSERT_GE(first, 0);
  EXPECT_EQ(ReadBytes(first, 2), "hi");

  // The kernel completes the handshake, but the listener takes nothing.
  const int second = ConnectLoopback(listener.port());
  ASSERT_GE(second, 0);
  char byte;
  EXPECT_EQ(RecvExact(second, &byte, 1, nullptr, /*idle_timeout_ms=*/300),
            RecvResult::kTimeout);
  EXPECT_EQ(listener.active(), 1);

  ::close(first);
  EXPECT_EQ(ReadBytes(second, 2), "hi");
  ::close(second);
  listener.Stop();
}

TEST(ListenerTest, StopDrainsAnInFlightHandler) {
  std::atomic<bool> started{false};
  Listener listener(ListenOptions{}, /*max_connections=*/4,
                    [&](int fd, const std::atomic<bool>& stop) {
                      started.store(true, std::memory_order_release);
                      // Work that does not poll the stop flag.
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(300));
                      SendAll(fd, "done", &stop);
                    });
  ASSERT_TRUE(listener.Start().ok());
  const int client = ConnectLoopback(listener.port());
  ASSERT_GE(client, 0);
  ASSERT_TRUE(
      WaitFor([&] { return started.load(std::memory_order_acquire); }));
  listener.Stop();
  EXPECT_FALSE(listener.running());
  EXPECT_EQ(listener.active(), 0);
  // The handler finished before Stop() returned, and its reply arrived.
  EXPECT_EQ(ReadBytes(client, 4), "done");
  ::close(client);
}

// ---------------------------------------------------------------------------
// Protocol codec round trips (the fuzz test covers the adversarial side).

TEST(ProtocolTest, RequestRoundTripsEveryKind) {
  std::vector<Request> requests;
  requests.push_back(Ping(7));
  requests.push_back(Count("t", "word", PredicateOp::kEq, "alpha", "", 8));
  requests.push_back(
      Count("t", "word", PredicateOp::kBetween, "a", "m", 9));
  requests.push_back(Select("t", "word", PredicateOp::kPrefix, "de", 5, 10));
  Request extract;
  extract.request_id = 11;
  extract.kind = QueryKind::kExtract;
  extract.table = "t";
  extract.column = "word";
  extract.row = 42;
  requests.push_back(extract);
  Request locate;
  locate.request_id = 12;
  locate.kind = QueryKind::kLocate;
  locate.table = "t";
  locate.column = "word";
  locate.value = "beta";
  requests.push_back(locate);
  Request stats;
  stats.request_id = 13;
  stats.kind = QueryKind::kTableStats;
  stats.table = "t";
  requests.push_back(stats);
  Request tpch;
  tpch.request_id = 14;
  tpch.kind = QueryKind::kTpch;
  tpch.tpch_query = 6;
  requests.push_back(tpch);

  for (const Request& request : requests) {
    const std::vector<uint8_t> frame = EncodeRequest(request);
    ASSERT_GE(frame.size(), sizeof(uint32_t));
    uint32_t length = 0;
    std::memcpy(&length, frame.data(), sizeof(length));
    ASSERT_EQ(length, frame.size() - sizeof(uint32_t));
    const StatusOr<Request> decoded = DecodeRequestBody(
        std::span<const uint8_t>(frame).subspan(sizeof(uint32_t)));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->request_id, request.request_id);
    EXPECT_EQ(decoded->kind, request.kind);
    EXPECT_EQ(decoded->table, request.table);
    EXPECT_EQ(decoded->column, request.column);
    EXPECT_EQ(decoded->value, request.value);
    EXPECT_EQ(decoded->value2, request.value2);
    EXPECT_EQ(decoded->row, request.row);
    EXPECT_EQ(decoded->limit, request.limit);
    EXPECT_EQ(decoded->tpch_query, request.tpch_query);
  }
}

TEST(ProtocolTest, DigestIgnoresRequestIdButNotParams) {
  const Request a = Count("t", "word", PredicateOp::kEq, "alpha", "", 1);
  const Request b = Count("t", "word", PredicateOp::kEq, "alpha", "", 999);
  const Request c = Count("t", "word", PredicateOp::kEq, "beta", "", 1);
  EXPECT_EQ(RequestDigest(a), RequestDigest(b));
  EXPECT_NE(RequestDigest(a), RequestDigest(c));
}

TEST(ProtocolTest, ResponseRoundTripsResultAndError) {
  Response ok;
  ok.request_id = 21;
  ok.cache_hit = true;
  ok.result.column_names = {"row", "value"};
  ok.result.AddRow({"3", "alpha"});
  ok.result.AddRow({"9", "beta"});
  const std::vector<uint8_t> ok_frame = EncodeResponse(ok);
  const StatusOr<Response> ok_decoded = DecodeResponseBody(
      std::span<const uint8_t>(ok_frame).subspan(sizeof(uint32_t)));
  ASSERT_TRUE(ok_decoded.ok());
  EXPECT_EQ(ok_decoded->request_id, 21u);
  EXPECT_TRUE(ok_decoded->cache_hit);
  EXPECT_EQ(ok_decoded->result.column_names, ok.result.column_names);
  EXPECT_EQ(ok_decoded->result.rows, ok.result.rows);

  Response error;
  error.request_id = 22;
  error.status = StatusCode::kFailedPrecondition;
  error.error_message = "unknown table: x";
  const std::vector<uint8_t> error_frame = EncodeResponse(error);
  const StatusOr<Response> error_decoded = DecodeResponseBody(
      std::span<const uint8_t>(error_frame).subspan(sizeof(uint32_t)));
  ASSERT_TRUE(error_decoded.ok());
  EXPECT_EQ(error_decoded->status, StatusCode::kFailedPrecondition);
  EXPECT_EQ(error_decoded->error_message, "unknown table: x");
}

// ---------------------------------------------------------------------------
// Lifecycle.

TEST_F(ServerTest, StartStopLifecycle) {
  Table table = MakeTestTable();
  QueryServer server;
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST_F(ServerTest, StartFailsOnBusyPort) {
  QueryServer first;
  ASSERT_TRUE(first.Start().ok());
  QueryServer::Options options;
  options.port = first.port();
  QueryServer second(options);
  const Status status = second.Start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST_F(ServerTest, OptionsFromEnvReadsKnobs) {
  ::setenv("ADICT_SERVE_PORT", "0", 1);
  ::setenv("ADICT_SERVE_MAX_INFLIGHT", "7", 1);
  ::setenv("ADICT_CACHE_BYTES", "12345", 1);
  const QueryServer::Options options = QueryServer::OptionsFromEnv();
  EXPECT_EQ(options.port, 0);
  EXPECT_EQ(options.max_inflight, 7);
  EXPECT_EQ(options.cache_bytes, 12345u);
  ::unsetenv("ADICT_SERVE_PORT");
  ::unsetenv("ADICT_SERVE_MAX_INFLIGHT");
  ::unsetenv("ADICT_CACHE_BYTES");
}

// ---------------------------------------------------------------------------
// Conformance: every query kind against a reference computation.

TEST_F(ServerTest, PingRoundTrip) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  const std::optional<Response> response = client.Roundtrip(Ping(42));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->request_id, 42u);
  EXPECT_EQ(response->status, StatusCode::kOk);
  ASSERT_EQ(response->result.rows.size(), 1u);
  EXPECT_EQ(response->result.rows[0][0], obs::kBuildVersion);
}

TEST_F(ServerTest, CountMatchesReferenceForEveryOp) {
  const std::vector<std::string> values = TestValues();
  Table table = MakeTestTable();
  QueryServer server;
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  const std::optional<Response> eq =
      client.Roundtrip(Count("t", "word", PredicateOp::kEq, "alpha"));
  ASSERT_TRUE(eq.has_value());
  EXPECT_EQ(CountCell(*eq), CountOf(values, "alpha"));

  const std::optional<Response> prefix =
      client.Roundtrip(Count("t", "word", PredicateOp::kPrefix, "delta_"));
  ASSERT_TRUE(prefix.has_value());
  uint64_t prefix_expected = 0;
  for (const std::string& v : values) {
    prefix_expected += v.rfind("delta_", 0) == 0;
  }
  EXPECT_EQ(CountCell(*prefix), prefix_expected);

  const std::optional<Response> between = client.Roundtrip(
      Count("t", "word", PredicateOp::kBetween, "alpha", "beta"));
  ASSERT_TRUE(between.has_value());
  uint64_t between_expected = 0;
  for (const std::string& v : values) {
    between_expected += v >= "alpha" && v <= "beta";
  }
  EXPECT_EQ(CountCell(*between), between_expected);

  const std::optional<Response> contains =
      client.Roundtrip(Count("t", "word", PredicateOp::kContains, "amm"));
  ASSERT_TRUE(contains.has_value());
  EXPECT_EQ(CountCell(*contains), CountOf(values, "gamma"));
}

TEST_F(ServerTest, SelectReturnsRowsAndValuesUpToLimit) {
  const std::vector<std::string> values = TestValues();
  Table table = MakeTestTable();
  QueryServer server;
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  const std::optional<Response> response =
      client.Roundtrip(Select("t", "word", PredicateOp::kEq, "beta", 5));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  EXPECT_EQ(response->result.column_names,
            (std::vector<std::string>{"row", "value"}));
  ASSERT_EQ(response->result.rows.size(), 5u);
  for (const std::vector<std::string>& row : response->result.rows) {
    const uint64_t row_index = std::stoull(row.at(0));
    EXPECT_EQ(values.at(row_index), "beta");
    EXPECT_EQ(row.at(1), "beta");
  }
}

TEST_F(ServerTest, ExtractReturnsRowValue) {
  const std::vector<std::string> values = TestValues();
  Table table = MakeTestTable();
  QueryServer server;
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  Request request;
  request.request_id = 5;
  request.kind = QueryKind::kExtract;
  request.table = "t";
  request.column = "word";
  request.row = 17;
  const std::optional<Response> response = client.Roundtrip(request);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  ASSERT_EQ(response->result.rows.size(), 1u);
  EXPECT_EQ(response->result.rows[0][0], values.at(17));
}

TEST_F(ServerTest, ExtractOutOfRangeFails) {
  Table table = MakeTestTable();
  QueryServer server;
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  Request request;
  request.kind = QueryKind::kExtract;
  request.table = "t";
  request.column = "word";
  request.row = 1u << 30;
  const std::optional<Response> response = client.Roundtrip(request);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kFailedPrecondition);
  EXPECT_NE(response->error_message.find("out of range"), std::string::npos);
  EXPECT_EQ(server.stats().error_responses, 1u);
}

TEST_F(ServerTest, LocateFindsAndMisses) {
  Table table = MakeTestTable();
  QueryServer server;
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  Request request;
  request.kind = QueryKind::kLocate;
  request.table = "t";
  request.column = "word";
  request.value = "beta";
  const std::optional<Response> found = client.Roundtrip(request);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->status, StatusCode::kOk);
  EXPECT_EQ(found->result.rows.at(0).at(1), "1");

  request.value = "zzz-not-present";
  const std::optional<Response> missing = client.Roundtrip(request);
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, StatusCode::kOk);
  EXPECT_EQ(missing->result.rows.at(0).at(1), "0");
}

TEST_F(ServerTest, TableStatsReportsShape) {
  Table table = MakeTestTable();
  QueryServer server;
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  Request request;
  request.kind = QueryKind::kTableStats;
  request.table = "t";
  const std::optional<Response> response = client.Roundtrip(request);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kOk);
  ASSERT_EQ(response->result.rows.size(), 1u);
  EXPECT_EQ(response->result.rows[0][0], "t");
  EXPECT_EQ(std::stoull(response->result.rows[0][1]), table.num_rows());
  EXPECT_EQ(std::stoull(response->result.rows[0][2]), 1u);
  EXPECT_GT(std::stoull(response->result.rows[0][3]), 0u);
}

TEST_F(ServerTest, TpchMatchesDirectExecution) {
  TpchDatabase db = GenerateTpch(TpchOptions{});
  QueryServer server;
  server.ServeTpch(&db);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  Request request;
  request.kind = QueryKind::kTpch;
  request.tpch_query = 6;
  const std::optional<Response> response = client.Roundtrip(request);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, StatusCode::kOk);

  const QueryResult direct = RunTpchQuery(db, 6);
  EXPECT_EQ(response->result.column_names, direct.column_names);
  EXPECT_EQ(response->result.rows, direct.rows);
}

// ---------------------------------------------------------------------------
// Error paths.

TEST_F(ServerTest, TpchWithoutDatabaseFails) {
  Table table = MakeTestTable();
  QueryServer server;
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  Request request;
  request.kind = QueryKind::kTpch;
  request.tpch_query = 1;
  const std::optional<Response> response = client.Roundtrip(request);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kFailedPrecondition);
  EXPECT_NE(response->error_message.find("not enabled"), std::string::npos);
}

TEST_F(ServerTest, TpchQueryNumberOutOfRangeFails) {
  TpchDatabase db = GenerateTpch(TpchOptions{});
  QueryServer server;
  server.ServeTpch(&db);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  Request request;
  request.kind = QueryKind::kTpch;
  request.tpch_query = 23;
  const std::optional<Response> response = client.Roundtrip(request);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kFailedPrecondition);
  EXPECT_NE(response->error_message.find("out of range"), std::string::npos);
}

TEST_F(ServerTest, UnknownTableFails) {
  Table table = MakeTestTable();
  QueryServer server;
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  const std::optional<Response> response =
      client.Roundtrip(Count("nope", "word", PredicateOp::kEq, "alpha"));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kFailedPrecondition);
  EXPECT_NE(response->error_message.find("unknown table"), std::string::npos);
}

TEST_F(ServerTest, UnknownColumnFails) {
  Table table = MakeTestTable();
  QueryServer server;
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  const std::optional<Response> response =
      client.Roundtrip(Count("t", "nope", PredicateOp::kEq, "alpha"));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kFailedPrecondition);
  EXPECT_NE(response->error_message.find("unknown string column"),
            std::string::npos);
}

TEST_F(ServerTest, UnknownQueryKindFails) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  std::vector<uint8_t> frame = EncodeRequest(Ping(3));
  // The kind byte sits after the length prefix and the request id.
  frame[sizeof(uint32_t) + sizeof(uint64_t)] = 99;
  ASSERT_TRUE(client.SendBytes(frame.data(), frame.size()));
  const std::optional<Response> response = client.ReadResponse();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->request_id, 3u);
  EXPECT_EQ(response->status, StatusCode::kCorruption);
  EXPECT_NE(response->error_message.find("unknown query kind"),
            std::string::npos);
}

TEST_F(ServerTest, MalformedBodyKeepsConnectionUsable) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  // A well-framed body of garbage: framing stays trustworthy, so the
  // server answers with an error and keeps the connection.
  const std::vector<uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef};
  const uint32_t length = static_cast<uint32_t>(garbage.size());
  ASSERT_TRUE(client.SendBytes(&length, sizeof(length)));
  ASSERT_TRUE(client.SendBytes(garbage.data(), garbage.size()));
  const std::optional<Response> error = client.ReadResponse();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->status, StatusCode::kOk);

  const std::optional<Response> ping = client.Roundtrip(Ping(4));
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(ping->status, StatusCode::kOk);
  EXPECT_EQ(server.stats().frame_errors, 1u);
}

TEST_F(ServerTest, OversizedLengthPrefixRejectedAndClosed) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  const uint32_t lying_length = kMaxFrameBytes + 1;
  ASSERT_TRUE(client.SendBytes(&lying_length, sizeof(lying_length)));
  const std::optional<Response> response = client.ReadResponse();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kResourceExhausted);
  EXPECT_NE(response->error_message.find("exceeds limit"), std::string::npos);
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(server.stats().frame_errors, 1u);
}

TEST_F(ServerTest, TruncatedBodyDisconnectIsCounted) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  {
    Client client(server.port());
    const uint32_t promised = 100;
    ASSERT_TRUE(client.SendBytes(&promised, sizeof(promised)));
    const uint8_t partial[10] = {};
    ASSERT_TRUE(client.SendBytes(partial, sizeof(partial)));
    // Disconnect mid-request: the server must notice, count it, and move
    // on — never crash or leak the connection slot.
  }
  EXPECT_TRUE(WaitFor([&] { return server.stats().frame_errors == 1; }));
}

TEST_F(ServerTest, MidPrefixDisconnectIsCounted) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  {
    Client client(server.port());
    const uint8_t half_prefix[2] = {1, 0};
    ASSERT_TRUE(client.SendBytes(half_prefix, sizeof(half_prefix)));
  }
  EXPECT_TRUE(WaitFor([&] { return server.stats().frame_errors == 1; }));
}

TEST_F(ServerTest, CleanDisconnectWithoutRequestIsNotAnError) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  { Client client(server.port()); }
  EXPECT_TRUE(WaitFor([&] { return server.stats().connections == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(server.stats().frame_errors, 0u);
}

// ---------------------------------------------------------------------------
// Result cache semantics.

TEST_F(ServerTest, RepeatedQueryHitsCache) {
  Table table = MakeTestTable();
  QueryServer server;
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  const Request query = Count("t", "word", PredicateOp::kEq, "alpha", "", 1);
  const std::optional<Response> first = client.Roundtrip(query);
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->cache_hit);

  Request repeat = query;
  repeat.request_id = 2;  // different id, same query: digest must match
  const std::optional<Response> second = client.Roundtrip(repeat);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->request_id, 2u);
  EXPECT_EQ(second->result.rows, first->result.rows);

  const ResultCache::Stats stats = server.cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  // A cache hit skips the engine: only the first query executed.
  EXPECT_EQ(server.stats().executed, 1u);
}

TEST_F(ServerTest, DistinctQueriesMissCache) {
  Table table = MakeTestTable();
  QueryServer server;
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  ASSERT_TRUE(
      client.Roundtrip(Count("t", "word", PredicateOp::kEq, "alpha"))
          .has_value());
  const std::optional<Response> other =
      client.Roundtrip(Count("t", "word", PredicateOp::kEq, "beta"));
  ASSERT_TRUE(other.has_value());
  EXPECT_FALSE(other->cache_hit);
  EXPECT_EQ(server.cache().stats().hits, 0u);
}

TEST_F(ServerTest, CacheDisabledWithZeroBudget) {
  Table table = MakeTestTable();
  QueryServer::Options options;
  options.cache_bytes = 0;
  QueryServer server(options);
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  const Request query = Count("t", "word", PredicateOp::kEq, "alpha");
  ASSERT_TRUE(client.Roundtrip(query).has_value());
  const std::optional<Response> repeat = client.Roundtrip(query);
  ASSERT_TRUE(repeat.has_value());
  EXPECT_FALSE(repeat->cache_hit);
  EXPECT_EQ(server.stats().executed, 2u);
}

TEST_F(ServerTest, LruEvictionUnderTinyBudget) {
  Table table = MakeTestTable();
  QueryServer::Options options;
  // Room for roughly one count entry (payload ~50 B + overhead).
  options.cache_bytes = 200;
  QueryServer server(options);
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  const Request a = Count("t", "word", PredicateOp::kEq, "alpha");
  const Request b = Count("t", "word", PredicateOp::kEq, "beta");
  ASSERT_TRUE(client.Roundtrip(a).has_value());
  ASSERT_TRUE(client.Roundtrip(b).has_value());  // evicts a
  const std::optional<Response> again = client.Roundtrip(a);
  ASSERT_TRUE(again.has_value());
  EXPECT_FALSE(again->cache_hit);
  EXPECT_GE(server.cache().stats().lru_evictions, 1u);
}

// The acceptance-critical case: a delta merge between two identical
// queries forces a re-execution; the pre-merge result is provably never
// served once the epoch advanced.
TEST_F(ServerTest, MergeInvalidatesCachedResult) {
  const std::vector<std::string> values = TestValues();
  Table table = MakeTestTable();
  QueryServer server;
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  CompressionManager manager;

  uint64_t expected = CountOf(values, "alpha");
  for (int round = 1; round <= 3; ++round) {
    // Warm the cache and prove a repeat read hits it. (From round 2 on the
    // first read may already hit the entry the previous round's post-merge
    // execution inserted — that entry is fresh, so a hit is correct.)
    const Request query =
        Count("t", "word", PredicateOp::kEq, "alpha", "",
              static_cast<uint64_t>(round) * 10);
    const std::optional<Response> warm = client.Roundtrip(query);
    ASSERT_TRUE(warm.has_value());
    EXPECT_EQ(CountCell(*warm), expected);
    const std::optional<Response> hit = client.Roundtrip(query);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->cache_hit);
    EXPECT_EQ(CountCell(*hit), expected);

    // Merge a delta that adds `round` more qualifying rows and publish:
    // the column's epoch advances.
    DeltaColumn delta;
    for (int i = 0; i < round; ++i) delta.Append("alpha");
    const std::shared_ptr<const StringColumn> base =
        table.SnapshotStrings("word");
    table.PublishStrings(
        "word", MergeDeltaAdaptive(*base, delta, manager, 60.0, "t.word"));
    expected += static_cast<uint64_t>(round);

    // The identical query must now re-execute and see the merged rows.
    const std::optional<Response> fresh = client.Roundtrip(query);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_FALSE(fresh->cache_hit)
        << "stale result served across an epoch boundary";
    EXPECT_EQ(CountCell(*fresh), expected);
  }
  EXPECT_EQ(server.cache().stats().stale_evictions, 3u);
}

TEST_F(ServerTest, TpchCacheInvalidatedByAnyTableMerge) {
  TpchDatabase db = GenerateTpch(TpchOptions{});
  QueryServer server;
  server.ServeTpch(&db);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  CompressionManager manager;

  Request request;
  request.kind = QueryKind::kTpch;
  request.tpch_query = 6;
  ASSERT_TRUE(client.Roundtrip(request).has_value());
  const std::optional<Response> hit = client.Roundtrip(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->cache_hit);

  // Merge into one arbitrary string column of one table: the conservative
  // dependency set must invalidate the TPC-H entry.
  DeltaColumn delta;
  delta.Append("AFRICA2");
  const std::shared_ptr<const StringColumn> base =
      db.region.SnapshotStrings("R_NAME");
  db.region.PublishStrings(
      "R_NAME",
      MergeDeltaAdaptive(*base, delta, manager, 60.0, "region.R_NAME"));

  const std::optional<Response> fresh = client.Roundtrip(request);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_FALSE(fresh->cache_hit);
  EXPECT_EQ(server.cache().stats().stale_evictions, 1u);
}

// The pins are the dependencies: a snapshot taken before a publish keeps
// reading the old version at the old epoch, so a result cached from it is
// stale at the next lookup, and one cached from a snapshot taken after the
// publish is a hit.
TEST_F(ServerTest, CacheDependenciesAreTheSnapshotPins) {
  Table table = MakeTestTable();
  const TableSnapshot before = table.Snapshot();
  std::vector<std::string> renamed = TestValues();
  for (std::string& value : renamed) value = "z_" + value;
  table.PublishStrings("word", StringColumn::FromValues(renamed));
  const TableSnapshot after = table.Snapshot();

  EXPECT_EQ(before.strings("word").GetValue(0), "alpha");
  EXPECT_EQ(before.strings("word").epoch(), 0u);
  EXPECT_EQ(after.strings("word").GetValue(0), "z_alpha");
  EXPECT_EQ(after.strings("word").epoch(), 1u);

  ResultCache cache(ResultCache::Options{});
  std::vector<CacheDependency> old_deps;
  AddPinDependencies(before, &old_deps);
  cache.Insert(1, {1}, old_deps);
  EXPECT_FALSE(cache.Lookup(1).has_value());
  EXPECT_EQ(cache.stats().stale_evictions, 1u);

  std::vector<CacheDependency> new_deps;
  AddPinDependencies(after, &new_deps);
  cache.Insert(2, {2}, new_deps);
  EXPECT_TRUE(cache.Lookup(2).has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(ServerTest, PressureHookFlushesCache) {
  Table table = MakeTestTable();
  QueryServer server;
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  // Populate the cache.
  ASSERT_TRUE(
      client.Roundtrip(Count("t", "word", PredicateOp::kEq, "alpha"))
          .has_value());
  ASSERT_EQ(server.cache().stats().entries, 1u);

  // A synchronous scheduler fed urgent-pressure samples fires the hook.
  CompressionManager manager;
  RecompressionScheduler::Options options;
  options.synchronous = true;
  options.smoothing = 1.0;  // classify the first sample as-is
  RecompressionScheduler scheduler(&table, &manager, options);
  server.AttachPressureFlush(&scheduler);
  MemorySample sample;
  sample.used_bytes = 90;
  sample.total_bytes = 100;
  scheduler.OnSample(sample);
  EXPECT_EQ(scheduler.level(), PressureLevel::kUrgent);
  EXPECT_EQ(server.cache().stats().entries, 0u);
  EXPECT_GE(server.cache().stats().flushes, 1u);
  scheduler.Stop();
}

// ---------------------------------------------------------------------------
// Admission control.

TEST_F(ServerTest, InflightCapRejectsConcurrentRequest) {
  Table table = MakeTestTable();
  QueryServer::Options options;
  options.max_inflight = 1;
  options.execute_stall_ms = 500;
  options.cache_bytes = 0;  // every request must reach execution
  QueryServer server(options);
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());

  std::optional<Response> slow_response;
  std::thread slow([&] {
    Client client(server.port());
    slow_response =
        client.Roundtrip(Count("t", "word", PredicateOp::kEq, "alpha"));
  });
  // Give the first request time to occupy the in-flight slot.
  ASSERT_TRUE(WaitFor([&] { return server.stats().requests >= 1; }));
  Client client(server.port());
  const std::optional<Response> rejected =
      client.Roundtrip(Count("t", "word", PredicateOp::kEq, "beta"));
  slow.join();

  ASSERT_TRUE(slow_response.has_value());
  EXPECT_EQ(slow_response->status, StatusCode::kOk);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->status, StatusCode::kResourceExhausted);
  EXPECT_NE(rejected->error_message.find("in-flight"), std::string::npos);
  EXPECT_EQ(server.stats().rejected_requests, 1u);
}

TEST_F(ServerTest, PerConnectionRequestCapClosesAfterRejection) {
  QueryServer::Options options;
  options.max_requests_per_connection = 2;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());

  ASSERT_TRUE(client.Roundtrip(Ping(1)).has_value());
  ASSERT_TRUE(client.Roundtrip(Ping(2)).has_value());
  const std::optional<Response> rejected = client.Roundtrip(Ping(3));
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->status, StatusCode::kResourceExhausted);
  EXPECT_NE(rejected->error_message.find("request cap"), std::string::npos);
  EXPECT_TRUE(client.AtEof());
}

TEST_F(ServerTest, ConnectionCapRejectsExcessConnections) {
  QueryServer::Options options;
  options.max_connections = 1;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Client first(server.port());
  // A round trip guarantees the accept loop registered the connection.
  ASSERT_TRUE(first.Roundtrip(Ping(1)).has_value());

  Client second(server.port());
  const std::optional<Response> rejected = second.ReadResponse();
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->request_id, 0u);
  EXPECT_EQ(rejected->status, StatusCode::kResourceExhausted);
  EXPECT_NE(rejected->error_message.find("connection limit"),
            std::string::npos);
  EXPECT_TRUE(second.AtEof());
  EXPECT_EQ(server.stats().rejected_connections, 1u);

  // The slot frees when the first connection closes.
  first.Close();
  ASSERT_TRUE(WaitFor([&] {
    Client retry(server.port());
    const std::optional<Response> response = retry.Roundtrip(Ping(2));
    return response.has_value() && response->status == StatusCode::kOk;
  }));
}

// ---------------------------------------------------------------------------
// Shutdown.

TEST_F(ServerTest, StopDrainsInFlightRequest) {
  Table table = MakeTestTable();
  QueryServer::Options options;
  options.execute_stall_ms = 300;
  QueryServer server(options);
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());

  std::optional<Response> response;
  std::thread client_thread([&] {
    Client client(server.port());
    response = client.Roundtrip(Count("t", "word", PredicateOp::kEq, "alpha"));
  });
  ASSERT_TRUE(WaitFor([&] { return server.stats().requests >= 1; }));
  server.Stop();  // must drain: the stalled execution finishes first
  client_thread.join();

  ASSERT_TRUE(response.has_value())
      << "in-flight request dropped during shutdown";
  EXPECT_EQ(response->status, StatusCode::kOk);
}

TEST_F(ServerTest, StopWakesIdleConnections) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  Client idle(server.port());
  ASSERT_TRUE(idle.Roundtrip(Ping(1)).has_value());
  // The connection sits in RecvExact with no frame in flight; Stop() must
  // not hang waiting for it.
  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
}

// A client that pipelines requests and never reads the replies fills the
// socket buffers until the server blocks writing one. That write gives up
// on stop, so Stop() does not wait for the client to hang up.
TEST_F(ServerTest, StopIsPromptWhileAClientPipelinesAndNeverReads) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  const int client = ConnectLoopback(server.port(), /*receive_buffer=*/4096);
  ASSERT_GE(client, 0);
  std::string pings;
  for (uint64_t id = 0; id < 256; ++id) {
    const std::vector<uint8_t> frame = EncodeRequest(Ping(id));
    pings.append(reinterpret_cast<const char*>(frame.data()), frame.size());
  }
  // Pipeline until the server has taken nothing for 300 ms: it is blocked
  // writing a reply.
  size_t offset = 0;
  const auto start = std::chrono::steady_clock::now();
  auto progress = start;
  while (SecondsSince(progress) < 0.3 && SecondsSince(start) < 30.0) {
    const ssize_t n = ::send(client, pings.data() + offset,
                             pings.size() - offset,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      offset = (offset + static_cast<size_t>(n)) % pings.size();
      progress = std::chrono::steady_clock::now();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_GE(SecondsSince(progress), 0.3) << "the server never blocked";
  EXPECT_LT(TimeStop([&] { server.Stop(); }, [&] { ::close(client); }), 1.0);
}

// ---------------------------------------------------------------------------
// Concurrency (built with -fsanitize=thread in the tsan CI job).

// N clients hammer the same queries while a writer repeatedly merges
// qualifying rows into the column and publishes. Every response must be a
// count the store actually published — base + 5*m for some merge count m —
// and cached results must never lag behind an epoch the client could have
// observed the merge of.
TEST_F(ServerTest, ConcurrentClientsRacingMergesSeeOnlyPublishedCounts) {
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 40;
  constexpr int kMerges = 10;
  constexpr uint64_t kAlphaPerMerge = 5;

  const std::vector<std::string> values = TestValues();
  const uint64_t base = CountOf(values, "alpha");
  Table table = MakeTestTable();
  QueryServer server;
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  CompressionManager manager;

  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      if (!client.connected()) {
        failed.store(true);
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const std::optional<Response> response = client.Roundtrip(
            Count("t", "word", PredicateOp::kEq, "alpha", "",
                  static_cast<uint64_t>(c) * 1000 + i));
        if (!response.has_value() ||
            response->status != StatusCode::kOk) {
          failed.store(true);
          return;
        }
        const uint64_t count = std::stoull(response->result.rows[0][0]);
        // Only published states are visible: base + 5m, monotonically
        // bounded by the total number of merges.
        if (count < base || (count - base) % kAlphaPerMerge != 0 ||
            count > base + kMerges * kAlphaPerMerge) {
          failed.store(true);
          return;
        }
      }
    });
  }

  for (int m = 0; m < kMerges; ++m) {
    DeltaColumn delta;
    for (uint64_t i = 0; i < kAlphaPerMerge; ++i) delta.Append("alpha");
    delta.Append("noise_" + std::to_string(m));
    const std::shared_ptr<const StringColumn> snapshot =
        table.SnapshotStrings("word");
    table.PublishStrings(
        "word",
        MergeDeltaAdaptive(*snapshot, delta, manager, 60.0, "t.word"));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  for (std::thread& thread : clients) thread.join();
  EXPECT_FALSE(failed.load());

  // After the last merge settles, the next identical query must see the
  // final count (nothing stale survives).
  Client client(server.port());
  const std::optional<Response> final_response = client.Roundtrip(
      Count("t", "word", PredicateOp::kEq, "alpha", "", 999999));
  ASSERT_TRUE(final_response.has_value());
  EXPECT_EQ(CountCell(*final_response),
            base + kMerges * kAlphaPerMerge);
  server.Stop();
}

// A kTpch plan must read only the versions its snapshot pinned: a reference
// into the current version is freed by the next publish while the query
// still maps dictionaries through it (under TSan: ~FcInlineDict on the
// writer against FcInlineDict::Locate <- MapDictionary <- FkJoin on the
// reader). Join-heavy queries run from two clients with the cache off while
// a writer republishes part's string columns in alternating formats, as a
// delta merge or a pressure rebuild would. The values never change, so
// every answer must equal the direct execution; TSan is the second oracle.
TEST_F(ServerTest, TpchQueriesRacingRepublishReadTheirPins) {
  TpchOptions tpch;
  tpch.scale_factor = 0.01;
  TpchDatabase db = GenerateTpch(tpch);
  constexpr int kQueries[] = {2, 8, 9, 17, 20};
  constexpr int kClients = 2;
  constexpr int kRequestsPerClient = 10;
  std::map<int, QueryResult> expected;
  for (int q : kQueries) expected[q] = RunTpchQuery(db, q);

  QueryServer::Options options;
  options.cache_bytes = 0;
  QueryServer server(options);
  server.ServeTpch(&db);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    const DictFormat formats[] = {DictFormat::kArray, DictFormat::kFcInline};
    for (int round = 0; !stop.load(std::memory_order_acquire); ++round) {
      for (size_t i = 0; i < db.part.num_string_columns(); ++i) {
        const std::string& name = db.part.string_column_name(i);
        const std::shared_ptr<const StringColumn> base =
            db.part.SnapshotStrings(name);
        db.part.PublishStrings(
            name, MergeDelta(*base, DeltaColumn(), formats[round % 2]));
      }
    }
  });

  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      for (int i = 0; i < kRequestsPerClient; ++i) {
        Request request;
        request.request_id = static_cast<uint64_t>(c) * 1000 + i;
        request.kind = QueryKind::kTpch;
        request.tpch_query = kQueries[(c + i) % std::size(kQueries)];
        const std::optional<Response> response = client.Roundtrip(request);
        if (!response.has_value() || response->status != StatusCode::kOk ||
            response->result.rows !=
                expected.at(static_cast<int>(request.tpch_query)).rows) {
          failed.store(true);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  stop.store(true, std::memory_order_release);
  writer.join();
  server.Stop();
  EXPECT_FALSE(failed.load());
}

// Cache churn racing merges: many distinct digests under a small budget
// while the epoch advances — exercises Lookup/Insert/stale-eviction/LRU
// paths concurrently for TSan.
TEST_F(ServerTest, CacheChurnRacingMergesIsRaceFree) {
  Table table = MakeTestTable();
  QueryServer::Options options;
  options.cache_bytes = 4096;
  QueryServer server(options);
  server.RegisterTable(&table);
  ASSERT_TRUE(server.Start().ok());
  CompressionManager manager;

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      int i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::string needle = "delta_" + std::to_string((c + i) % 7);
        (void)client.Roundtrip(
            Count("t", "word", PredicateOp::kPrefix, needle));
        ++i;
      }
    });
  }
  for (int m = 0; m < 8; ++m) {
    DeltaColumn delta;
    delta.Append("delta_" + std::to_string(m % 7));
    const std::shared_ptr<const StringColumn> snapshot =
        table.SnapshotStrings("word");
    table.PublishStrings(
        "word",
        MergeDeltaAdaptive(*snapshot, delta, manager, 60.0, "t.word"));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : clients) thread.join();
  server.Stop();
  // No assertion beyond survival: TSan is the oracle here.
  SUCCEED();
}

}  // namespace
}  // namespace adict
