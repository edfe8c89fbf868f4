// Single-threaded load generator for the query server: one thread drives
// every connection through non-blocking sockets and ppoll, so an open loop
// can keep many requests outstanding (pipelined frames, answered in order
// per connection) without one client thread per connection.
#ifndef ADICT_PERFBENCH_LOAD_GEN_H_
#define ADICT_PERFBENCH_LOAD_GEN_H_

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

namespace perfbench {

/// Produces request frames and judges their answers. Request ids are the
/// generator's sequence numbers.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  /// Appends the full frame (length prefix included) of request `seq`.
  virtual void Encode(uint64_t seq, std::vector<uint8_t>* out) = 0;
  /// True when `payload`, the serialized result of an OK response, is a
  /// correct answer to request `seq`.
  virtual bool Check(uint64_t seq, std::span<const uint8_t> payload) = 0;
};

struct PhaseStats {
  double seconds = 0;
  uint64_t sent = 0;
  uint64_t ok = 0;            ///< correct OK responses
  uint64_t wrong = 0;         ///< OK responses with a wrong answer
  uint64_t refused = 0;       ///< non-OK responses, or never answered
  uint64_t within_limit = 0;  ///< correct and within the latency limit
  uint64_t cache_hits = 0;    ///< responses flagged as served from cache
  /// Open loop: per request, scheduled send to response, in microseconds;
  /// +infinity for a refused, failed or wrong request.
  std::vector<double> latency_us;
  /// Open loop, parallel to latency_us: scheduled send, seconds into the
  /// phase. Closed loop: arrival of each correct answer inside the window.
  std::vector<double> at_s;
  /// Open loop: how late each request was sent behind its schedule.
  std::vector<double> late_us;
};

class LoadGenerator {
 public:
  /// Opens `connections` loopback connections to `port`.
  LoadGenerator(int port, int connections);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  bool connected() const { return connected_; }

  /// Sends requests at a fixed `rate` for `seconds`, round-robin over the
  /// connections, then waits (bounded) for the outstanding answers.
  PhaseStats RunOpenLoop(RequestSource* source, double rate, double seconds,
                         double latency_limit_us);
  /// Keeps one request outstanding per connection for `seconds`;
  /// `ok` counts the correct answers received inside the window.
  PhaseStats RunClosedLoop(RequestSource* source, double seconds);

 private:
  struct Pending {
    uint64_t seq = 0;
    int64_t scheduled_ns = 0;
  };
  struct Connection {
    int fd = -1;
    bool dead = false;
    std::vector<uint8_t> out;
    size_t out_offset = 0;
    std::vector<uint8_t> in;
    std::deque<Pending> pending;
  };
  struct Answer {
    Pending request;
    bool ok = false;
    bool wrong = false;
    bool cache_hit = false;
  };

  void Flush(Connection* conn);
  /// Reads what is available and judges every complete response frame.
  void Receive(Connection* conn, RequestSource* source,
               std::vector<Answer>* answers);
  /// Waits up to `timeout_ns` for readability (and writability where
  /// output is queued).
  void Poll(int64_t timeout_ns);
  bool AnyPending() const;

  std::vector<Connection> conns_;
  bool connected_ = false;
  uint64_t next_seq_ = 1;
};

}  // namespace perfbench

#endif  // ADICT_PERFBENCH_LOAD_GEN_H_
