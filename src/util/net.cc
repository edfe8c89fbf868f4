#include "util/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace adict {

StatusOr<ListenSocket> OpenListenSocket(const ListenOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::IoError("invalid bind address: " + options.bind_address);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, options.backlog) != 0) {
    const Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }

  ListenSocket socket;
  socket.fd = fd;
  socket.port = options.port;
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    socket.port = ntohs(bound.sin_port);
  }
  return socket;
}

int AcceptWithTimeout(int listen_fd, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = listen_fd;
  pfd.events = POLLIN;
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return -1;  // timeout or EINTR
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

namespace {

constexpr int kPollSliceMs = 100;  // cheap, yet Stop() is seen promptly

/// The one wait of every transfer, for when the socket has nothing: polls
/// `fd` in slices until it is ready for `events`, `stop` is set (checked
/// before each slice), `idle_timeout_ms` passes (0: never) or poll fails.
RecvResult WaitReady(int fd, short events, const std::atomic<bool>* stop,
                     int idle_timeout_ms) {
  for (int idle_ms = 0;;) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      return RecvResult::kStopped;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int ready = ::poll(&pfd, 1, kPollSliceMs);
    if (ready > 0) return RecvResult::kOk;
    if (ready < 0 && errno != EINTR) return RecvResult::kError;
    if (ready == 0) idle_ms += kPollSliceMs;
    if (idle_timeout_ms > 0 && idle_ms >= idle_timeout_ms) {
      return RecvResult::kTimeout;
    }
  }
}

}  // namespace

bool SendAll(int fd, std::string_view data, const std::atomic<bool>* stop) {
  while (!data.empty()) {
    const ssize_t n =
        ::send(fd, data.data(), data.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      data.remove_prefix(static_cast<size_t>(n));
    } else if (n < 0 && errno == EAGAIN) {
      if (WaitReady(fd, POLLOUT, stop, 0) != RecvResult::kOk) return false;
    } else if (n == 0 || errno != EINTR) {
      return false;
    }
  }
  return true;
}

RecvResult RecvSome(int fd, void* buf, size_t len, size_t* got,
                    const std::atomic<bool>* stop, int idle_timeout_ms) {
  *got = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, len, MSG_DONTWAIT);
    if (n > 0) {
      *got = static_cast<size_t>(n);
      return RecvResult::kOk;
    }
    if (n == 0) return RecvResult::kClosed;
    if (errno == EAGAIN) {
      const RecvResult ready = WaitReady(fd, POLLIN, stop, idle_timeout_ms);
      if (ready != RecvResult::kOk) return ready;
    } else if (errno != EINTR) {
      return RecvResult::kError;
    }
  }
}

RecvResult RecvExact(int fd, void* buf, size_t len,
                     const std::atomic<bool>* stop, int idle_timeout_ms) {
  for (size_t got = 0; got < len;) {
    size_t n = 0;
    const RecvResult result = RecvSome(fd, static_cast<char*>(buf) + got,
                                       len - got, &n, stop, idle_timeout_ms);
    if (result != RecvResult::kOk) {
      // EOF or a failed recv after part of the buffer is a broken frame.
      const bool broken =
          result == RecvResult::kClosed || result == RecvResult::kError;
      return got > 0 && broken ? RecvResult::kTruncated : result;
    }
    got += n;
  }
  return RecvResult::kOk;
}

Status Listener::Start() {
  if (running()) return Status::FailedPrecondition("listener already running");
  StatusOr<ListenSocket> socket = OpenListenSocket(options_);
  if (!socket.ok()) return socket.status();
  listen_fd_ = socket->fd;
  port_.store(socket->port, std::memory_order_release);
  stop_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Listener::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  {
    // Wakes an accept loop that waits at the cap.
    MutexLock lock(&mutex_);
    mutex_.NotifyAll();
  }
  accept_thread_.join();
  {
    // Drain: no transfer waits now, so each thread ends after its work.
    MutexLock lock(&mutex_);
    mutex_.Await([this]() ADICT_CV_PREDICATE { return live_.empty(); });
  }
  JoinFinished();
  ::close(listen_fd_);
}

void Listener::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    JoinFinished();
    if (!refuse_) {
      MutexLock lock(&mutex_);
      mutex_.Await([this]() ADICT_CV_PREDICATE {
        return static_cast<int>(live_.size()) < max_connections_ ||
               stop_.load(std::memory_order_acquire);
      });
    }
    const int fd = AcceptWithTimeout(listen_fd_, kPollSliceMs);
    if (fd < 0) continue;
    // Only this thread adds connections, so a count below the cap stays so.
    if (active() < max_connections_) {
      MutexLock lock(&mutex_);
      const Threads::iterator self = live_.emplace(live_.end());
      *self = std::thread([this, fd, self] { Serve(fd, self); });
      continue;
    }
    if (refuse_) refuse_(fd, stop_);  // else stopping at the cap
    ::close(fd);
  }
}

void Listener::Serve(int fd, Threads::iterator self) {
  serve_(fd, stop_);
  ::close(fd);
  MutexLock lock(&mutex_);
  finished_.splice(finished_.end(), live_, self);
  mutex_.NotifyAll();
}

void Listener::JoinFinished() {
  Threads finished;
  {
    MutexLock lock(&mutex_);
    finished.swap(finished_);
  }
  for (std::thread& thread : finished) thread.join();
}

}  // namespace adict
