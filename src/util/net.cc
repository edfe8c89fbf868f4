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

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

RecvResult RecvExact(int fd, void* buf, size_t len,
                     const std::atomic<bool>* stop, int idle_timeout_ms) {
  // Poll in 100 ms slices: long enough to be cheap, short enough that a
  // server Stop() drains its connection threads promptly.
  constexpr int kSliceMs = 100;
  size_t got = 0;
  int idle_ms = 0;
  while (got < len) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      return RecvResult::kStopped;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kSliceMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return RecvResult::kError;
    }
    if (ready == 0) {
      idle_ms += kSliceMs;
      if (idle_timeout_ms > 0 && idle_ms >= idle_timeout_ms) {
        return RecvResult::kTimeout;
      }
      continue;
    }
    const ssize_t n =
        ::recv(fd, static_cast<char*>(buf) + got, len - got, 0);
    if (n == 0) {
      return got == 0 ? RecvResult::kClosed : RecvResult::kTruncated;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return got == 0 ? RecvResult::kError : RecvResult::kTruncated;
    }
    got += static_cast<size_t>(n);
    idle_ms = 0;
  }
  return RecvResult::kOk;
}

}  // namespace adict
