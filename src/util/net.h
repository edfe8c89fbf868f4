// Shared POSIX socket plumbing for the serving surfaces.
//
// Both network front-ends — the observability HTTP exporter
// (obs/http_exporter.h) and the binary query server (server/query_server.h)
// — run on one Listener: the listen socket (CLOEXEC, SO_REUSEADDR, a
// validated bind address, a bounded backlog, an ephemeral-port readback),
// the accept thread, a thread per connection up to a cap, the stop flag and
// the drain. A transfer waits, in one poll loop, only when the socket has
// nothing for it, and not once the stop flag is set: no client can hold up
// Stop(). Setup errors are a Status, so a busy port cannot take the store
// down. Raw POSIX only, and no event loop: the front ends serve a handful of
// connections, and a thread each keeps a slow client from blocking others.
#ifndef ADICT_UTIL_NET_H_
#define ADICT_UTIL_NET_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "util/status.h"
#include "util/thread_annotations.h"

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
/// peer raises no signal). A full socket is waited on in poll slices, and
/// not at all once `stop` (may be null) is set. Returns false if the peer
/// hung up or the send gave up on `stop`.
bool SendAll(int fd, std::string_view data,
             const std::atomic<bool>* stop = nullptr);

/// Outcome of RecvExact and RecvSome, ordered from benign to broken.
enum class RecvResult {
  kOk,         ///< `len` bytes read
  kClosed,     ///< clean EOF before the first byte (peer done; not an error)
  kTruncated,  ///< EOF or reset after a partial read (broken frame)
  kStopped,    ///< `stop` became true while waiting
  kTimeout,    ///< no data for `idle_timeout_ms`
  kError,      ///< recv(2) failed
};

/// Reads exactly `len` bytes into `buf`, waiting in poll slices so a set
/// `stop` flag (may be null) interrupts the wait promptly and a stalled
/// peer cannot pin the calling thread past `idle_timeout_ms` (0: no limit).
RecvResult RecvExact(int fd, void* buf, size_t len,
                     const std::atomic<bool>* stop,
                     int idle_timeout_ms = 5000);

/// Reads what has arrived, 1 to `len` bytes, into `buf` and the count into
/// `*got`; waits like RecvExact. For messages that end at a delimiter.
RecvResult RecvSome(int fd, void* buf, size_t len, size_t* got,
                    const std::atomic<bool>* stop,
                    int idle_timeout_ms = 5000);

/// The one accept loop of the network front ends: an accept thread and one
/// thread per connection, at most `max_connections` at once. Each runs
/// `serve(fd, stop)`, which passes `stop` to every transfer above, and then
/// the listener closes the fd. Over the cap, with `refuse` set, a connection
/// is accepted, handed to `refuse(fd, stop)` on the accept thread (to answer
/// "overloaded") and closed; without it, the listener accepts nothing until
/// a connection ends, and the listen backlog holds the rest.
class Listener {
 public:
  using Handler = std::function<void(int fd, const std::atomic<bool>& stop)>;

  Listener(ListenOptions options, int max_connections, Handler serve,
           Handler refuse = nullptr)
      : options_(std::move(options)),
        max_connections_(max_connections),
        serve_(std::move(serve)),
        refuse_(std::move(refuse)) {}
  /// Stops the listener if still running.
  ~Listener() { Stop(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds, listens and starts the accept thread.
  Status Start();

  /// Stops accepting, sets the stop flag, joins every connection thread once
  /// its in-flight work is done, closes the listen socket. Idempotent.
  void Stop();

  bool running() const { return !stop_.load(std::memory_order_acquire); }
  /// The bound port (resolved after Start() when the requested port was 0).
  int port() const { return port_.load(std::memory_order_acquire); }
  /// Connections being served right now.
  int active() const {
    MutexLock lock(&mutex_);
    return static_cast<int>(live_.size());
  }

 private:
  using Threads = std::list<std::thread>;

  void AcceptLoop();
  /// Runs on connection thread `*self`, then moves `self` to finished_.
  void Serve(int fd, Threads::iterator self);
  void JoinFinished();

  const ListenOptions options_;
  const int max_connections_;
  const Handler serve_;
  const Handler refuse_;

  std::atomic<bool> stop_{true};  // set whenever the listener is not running
  std::atomic<int> port_{0};
  int listen_fd_ = -1;

  // A connection thread splices its own node from live_ to finished_ when it
  // ends; the accept loop and Stop() join what has finished. The cap and the
  // drain wait on live_.
  mutable MutexCv mutex_{LockRank::kListenerDrain, "Listener.mutex_"};
  Threads live_ ADICT_GUARDED_BY(mutex_);
  Threads finished_ ADICT_GUARDED_BY(mutex_);

  std::thread accept_thread_;
};

}  // namespace adict

#endif  // ADICT_UTIL_NET_H_
