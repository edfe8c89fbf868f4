#include "load_gen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>

#include "bench_util.h"

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// How long a phase waits for answers still outstanding at its end.
constexpr int64_t kDrainNs = 2'000'000'000;

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

LoadGenerator::LoadGenerator(int port, int connections) {
  // ppoll wakes within a microsecond of its deadline instead of the
  // default 50 us timer slack; the open loop's send schedule depends on it.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  connected_ = true;
  for (int i = 0; i < connections; ++i) {
    Connection conn;
    conn.fd = Connect(port);
    if (conn.fd < 0) connected_ = false;
    conns_.push_back(std::move(conn));
  }
}

LoadGenerator::~LoadGenerator() {
  for (Connection& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

void LoadGenerator::Flush(Connection* conn) {
  while (!conn->dead && conn->out_offset < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_offset,
               conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      return;
    } else {
      conn->dead = true;
    }
  }
  conn->out.clear();
  conn->out_offset = 0;
}

void LoadGenerator::Receive(Connection* conn, RequestSource* source,
                            std::vector<Answer>* answers) {
  uint8_t buf[64 * 1024];
  while (!conn->dead) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.insert(conn->in.end(), buf, buf + n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      break;
    } else {
      conn->dead = true;
    }
  }
  size_t offset = 0;
  while (conn->in.size() - offset >= sizeof(uint32_t)) {
    uint32_t length = 0;
    std::memcpy(&length, conn->in.data() + offset, sizeof(length));
    if (conn->in.size() - offset - sizeof(uint32_t) < length) break;
    const uint8_t* body = conn->in.data() + offset + sizeof(uint32_t);
    offset += sizeof(uint32_t) + length;
    if (conn->pending.empty()) continue;  // unsolicited frame
    Answer answer;
    answer.request = conn->pending.front();
    conn->pending.pop_front();
    uint64_t request_id = 0;
    if (length >= 10) std::memcpy(&request_id, body, sizeof(request_id));
    if (length < 10 || request_id != answer.request.seq) {
      answer.wrong = true;  // answers must come back in order
    } else if (body[8] == 0) {
      answer.cache_hit = (body[9] & 1) != 0;
      if (source->Check(request_id,
                        std::span<const uint8_t>(body + 10, length - 10))) {
        answer.ok = true;
      } else {
        answer.wrong = true;
      }
    }
    answers->push_back(answer);
  }
  conn->in.erase(conn->in.begin(),
                 conn->in.begin() + static_cast<std::ptrdiff_t>(offset));
}

void LoadGenerator::Poll(int64_t timeout_ns) {
  std::vector<pollfd> fds;
  for (const Connection& conn : conns_) {
    if (conn.dead) continue;
    short events = POLLIN;
    if (conn.out_offset < conn.out.size()) events |= POLLOUT;
    fds.push_back({conn.fd, events, 0});
  }
  if (timeout_ns < 0) timeout_ns = 0;
  timespec timeout{static_cast<time_t>(timeout_ns / 1'000'000'000),
                   static_cast<long>(timeout_ns % 1'000'000'000)};
  ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
}

bool LoadGenerator::AnyPending() const {
  for (const Connection& conn : conns_) {
    if (!conn.dead && !conn.pending.empty()) return true;
  }
  return false;
}

PhaseStats LoadGenerator::RunOpenLoop(RequestSource* source, double rate,
                                      double seconds,
                                      double latency_limit_us) {
  PhaseStats stats;
  const uint64_t total = static_cast<uint64_t>(rate * seconds);
  const double interval_ns = 1e9 / rate;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<Answer> answers;
  auto record = [&](const std::vector<Answer>& batch, int64_t now) {
    for (const Answer& answer : batch) {
      const double latency =
          static_cast<double>(now - answer.request.scheduled_ns) / 1e3;
      if (answer.ok) {
        ++stats.ok;
        if (latency <= latency_limit_us) ++stats.within_limit;
        stats.latency_us.push_back(latency);
      } else {
        answer.wrong ? ++stats.wrong : ++stats.refused;
        stats.latency_us.push_back(kInf);
      }
      stats.at_s.push_back(
          static_cast<double>(answer.request.scheduled_ns - start) / 1e9);
      if (answer.cache_hit) ++stats.cache_hits;
    }
  };
  uint64_t next = 0;
  while (true) {
    int64_t now = NowNs();
    while (next < total &&
           start + static_cast<int64_t>(static_cast<double>(next) *
                                        interval_ns) <=
               now) {
      const int64_t scheduled =
          start + static_cast<int64_t>(static_cast<double>(next) * interval_ns);
      Connection& conn = conns_[next % conns_.size()];
      const uint64_t seq = next_seq_++;
      source->Encode(seq, &conn.out);
      conn.pending.push_back({seq, scheduled});
      stats.late_us.push_back(static_cast<double>(now - scheduled) / 1e3);
      ++stats.sent;
      ++next;
    }
    for (Connection& conn : conns_) Flush(&conn);
    if (next >= total && !AnyPending()) break;
    if (now > deadline + kDrainNs) break;
    const int64_t wake =
        next < total
            ? start + static_cast<int64_t>(static_cast<double>(next) *
                                           interval_ns)
            : now + 1'000'000;
    Poll(wake - NowNs());
    answers.clear();
    for (Connection& conn : conns_) Receive(&conn, source, &answers);
    now = NowNs();
    record(answers, now);
  }
  // Requests never answered (dead connection or drain timeout) failed.
  for (Connection& conn : conns_) {
    stats.refused += conn.pending.size();
    for (const Pending& pending : conn.pending) {
      stats.latency_us.push_back(kInf);
      stats.at_s.push_back(
          static_cast<double>(pending.scheduled_ns - start) / 1e9);
    }
    conn.pending.clear();
  }
  stats.seconds = seconds;
  return stats;
}

PhaseStats LoadGenerator::RunClosedLoop(RequestSource* source,
                                        double seconds) {
  PhaseStats stats;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  auto send_one = [&](Connection* conn) {
    const uint64_t seq = next_seq_++;
    source->Encode(seq, &conn->out);
    conn->pending.push_back({seq, NowNs()});
    ++stats.sent;
  };
  for (Connection& conn : conns_) send_one(&conn);
  std::vector<Answer> answers;
  while (true) {
    for (Connection& conn : conns_) Flush(&conn);
    const int64_t now = NowNs();
    if (!AnyPending() || now > deadline + kDrainNs) break;
    Poll(deadline > now ? deadline - now : 1'000'000);
    for (Connection& conn : conns_) {
      answers.clear();
      Receive(&conn, source, &answers);
      const int64_t received = NowNs();
      for (const Answer& answer : answers) {
        if (answer.ok) {
          if (received <= deadline) {
            ++stats.ok;
            stats.at_s.push_back(static_cast<double>(received - start) / 1e9);
          }
        } else {
          answer.wrong ? ++stats.wrong : ++stats.refused;
        }
        if (answer.cache_hit) ++stats.cache_hits;
        if (received <= deadline && !conn.dead) send_one(&conn);
      }
    }
  }
  for (Connection& conn : conns_) {
    stats.refused += conn.pending.size();
    conn.pending.clear();
  }
  stats.seconds = seconds;
  return stats;
}

}  // namespace perfbench
