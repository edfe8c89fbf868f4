// Shared POSIX socket plumbing for the serving surfaces.
//
// Both network front-ends — the observability HTTP exporter
// (obs/http_exporter.h) and the binary query server (server/query_server.h)
// — need the same listen-socket setup: IPv4 socket with CLOEXEC,
// SO_REUSEADDR (so a restart never trips over TIME_WAIT), a validated bind
// address, a bounded accept backlog, and an ephemeral-port readback for
// tests. This header is that setup, once, with a Status-based error path so
// a busy port can never take the store down. It also owns the two transfer
// loops the front-ends share: a full-buffer send that retries short writes
// and a stop-aware exact-length receive for framed protocols.
//
// Everything here is dependency-free raw POSIX; no third-party networking.
#ifndef ADICT_UTIL_NET_H_
#define ADICT_UTIL_NET_H_

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.h"

namespace adict {

struct ListenOptions {
  /// TCP port; 0 picks an ephemeral port (read it back from
  /// ListenSocket::port — tests use this to avoid collisions).
  int port = 0;
  /// Bind address. The default only accepts loopback connections; bind
  /// "0.0.0.0" deliberately to expose the service to the network.
  std::string bind_address = "127.0.0.1";
  /// Accept backlog passed to listen(2): connections the kernel queues
  /// before completing the handshake. Part of admission control — beyond
  /// it, connection attempts fail at the client instead of piling up.
  int backlog = 16;
};

/// An open, listening TCP socket. `port` is the bound port (resolved when
/// ListenOptions::port was 0). The caller owns `fd` and must ::close it.
struct ListenSocket {
  int fd = -1;
  int port = 0;
};

/// Opens an IPv4 listening socket per `options`: SOCK_CLOEXEC,
/// SO_REUSEADDR, validated bind address, bounded backlog. Fails (never
/// aborts) on socket errors.
StatusOr<ListenSocket> OpenListenSocket(const ListenOptions& options);

/// Accepts one connection, polling `listen_fd` for up to `timeout_ms`.
/// Returns the connected fd, or -1 on timeout / EINTR / accept failure —
/// callers loop, re-checking their stop flag each round. The connection has
/// TCP_NODELAY set: replies are small and each one would otherwise wait
/// (Nagle) for the ACK that rides on the client's next request.
int AcceptWithTimeout(int listen_fd, int timeout_ms);

/// Sends the whole buffer, retrying short writes (MSG_NOSIGNAL, so a dead
/// peer raises no signal); best effort — returns false if the peer hung up
/// mid-send.
bool SendAll(int fd, std::string_view data);

/// Outcome of RecvExact, ordered from benign to broken.
enum class RecvResult {
  kOk,         ///< `len` bytes read
  kClosed,     ///< clean EOF before the first byte (peer done; not an error)
  kTruncated,  ///< EOF or reset after a partial read (broken frame)
  kStopped,    ///< `stop` became true while waiting
  kTimeout,    ///< no data for `idle_timeout_ms`
  kError,      ///< recv(2) failed
};

/// Reads exactly `len` bytes into `buf`, polling in short slices so a set
/// `stop` flag (may be null) interrupts the wait promptly and a stalled
/// peer cannot pin the calling thread past `idle_timeout_ms`.
RecvResult RecvExact(int fd, void* buf, size_t len,
                     const std::atomic<bool>* stop,
                     int idle_timeout_ms = 5000);

}  // namespace adict

#endif  // ADICT_UTIL_NET_H_
