#pragma once

/// \file conn_engine.hpp
/// The wire's one connection engine: net::Server and router::Router both
/// accept and service their connections here, and each only says what a
/// frame means (ConnHandler).
///
/// The listener and every connection are watches on one exec::IoBridge, so
/// readiness becomes a task on the global executor and the engine owns no
/// thread. A service pass runs at most once per connection at a time
/// (oneshot watch plus the connection's mutex): read → decode whole frames
/// into the handler while it accepts them → the handler's pump → flush →
/// deadlines → re-arm (POLLIN while accepting, POLLOUT while bytes are
/// queued). An undecodable frame gets a typed ErrorReply; a fatal one (lost
/// framing, a version above the engine's) closes the connection once that
/// reply has flushed.
///
/// Deadlines ride one executor timer per connection, armed from accept and
/// only ever moved earlier (one that fires early finds nothing due and
/// re-arms); it is separate from any timer a handler keeps. They are: idle
/// (nothing in flight, queued or half-read), read (a partial frame that
/// stops growing), write (queued bytes the peer stops taking) and the
/// handler's own, returned by its pump.
///
/// stop() drains: the listener closes, connections with work finish it
/// (bounded by drain_timeout_ms) and close once quiet — each such close
/// wakes stop() to look again — then the rest are closed, the bridge stops
/// and the engine's exec::TaskGroup of deadline timers is waited out.

#include <sys/types.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "exec/io_bridge.hpp"
#include "exec/task_group.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace gns::net {

/// One encoded frame waiting for the socket. A request's terminal frame
/// carries enqueued_ns, so its flush can be charged to the request.
struct WriteItem {
  std::vector<std::uint8_t> bytes;
  bool terminal = false;
  std::uint64_t trace_id = 0;
  std::int64_t enqueued_ns = 0;  ///< obs::trace_now_ns() at enqueue
};

/// A nonblocking socket that speaks whole frames: in through a FrameBuffer,
/// out through a queue flushed as far as the socket takes it. Accepted
/// connections and the router's backend links are Channels. Not
/// thread-safe: its owner serializes.
struct Channel {
  using Clock = std::chrono::steady_clock;

  Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  ~Channel() { close(); }

  /// FrameBuffer::read_from on the socket.
  ssize_t read();
  /// Writes until the queue is empty or the socket would block. Returns the
  /// bytes written, or -1 when the peer errored; `sent` sees each item
  /// whose last byte has left.
  ssize_t flush(const std::function<void(const WriteItem&)>& sent = {});
  void push(std::vector<std::uint8_t> bytes) {
    wqueue.push_back(WriteItem{std::move(bytes)});
  }
  void close();  ///< closes the socket, drops both buffers

  int fd = -1;
  FrameBuffer rbuf;
  std::deque<WriteItem> wqueue;
  std::size_t woff = 0;  ///< bytes of wqueue.front() already written
  Clock::time_point last_activity = Clock::now();  ///< last byte in or out
  /// The last flush left bytes queued, with no write progress since
  /// stalled_since.
  bool stalled = false;
  Clock::time_point stalled_since{};
};

/// One accepted connection; handlers derive from it to carry their own
/// state (ConnHandler::make_conn). All of it is guarded by `m`.
struct Conn : Channel, std::enable_shared_from_this<Conn> {
  virtual ~Conn() = default;

  std::mutex m;
  std::uint8_t peer_version = kProtocolVersion;  ///< of the last good frame
  bool has_partial = false;
  Clock::time_point partial_since{};  ///< first byte of an incomplete frame
  bool close_after_flush = false;     ///< fatal decode error: drop politely
  bool failed = false;                ///< a flush failed: close this pass
  bool closed = false;

 private:
  friend class ConnEngine;
  std::uint64_t key_ = 0;
  int watch_ = -1;
  exec::Executor::TimerId timer_ = 0;  ///< deadline timer, 0 when none
  Clock::time_point timer_due_{};
};

/// What an engine's owner says about its connections. Every hook runs in a
/// service pass with the connection's mutex held.
class ConnHandler {
 public:
  using Clock = std::chrono::steady_clock;

  virtual ~ConnHandler() = default;
  virtual std::shared_ptr<Conn> make_conn() {
    return std::make_shared<Conn>();
  }
  /// One decoded frame; `buffered_ms` is how long it straddled reads.
  virtual void on_frame(Conn& conn, const FrameView& frame,
                        double buffered_ms) = 0;
  /// Work in flight: the connection is not idle, and a drain waits for it.
  virtual bool busy(const Conn& conn) const = 0;
  /// False leaves later frames in the buffer and the socket unread.
  virtual bool accepting(const Conn& /*conn*/) const { return true; }
  /// After decoding, before the flush. Returns the handler's next deadline,
  /// when a pass runs again.
  virtual Clock::time_point pump(Conn& /*conn*/) {
    return Clock::time_point::max();
  }
  /// The pass ended with the connection alive and re-armed.
  virtual void serviced(Conn& /*conn*/) {}
  /// The connection is closing: release what it holds.
  virtual void on_close(Conn& /*conn*/) {}
  /// A terminal WriteItem's last byte has left.
  virtual void on_sent(const WriteItem& /*item*/) {}
};

/// An engine's limits; a timeout <= 0 is off.
struct ConnLimits {
  int max_connections = 64;  ///< accepted beyond this are closed
  double idle_timeout_ms = 0.0;
  double read_timeout_ms = 0.0;
  double write_timeout_ms = 0.0;
  double drain_timeout_ms = 60'000.0;
  std::uint8_t max_version = kProtocolVersion;  ///< above: fatal BadVersion
  std::string metrics_prefix = "net";
};

class ConnEngine {
 public:
  using Clock = std::chrono::steady_clock;

  ConnEngine(ConnHandler& handler, ConnLimits limits);
  ~ConnEngine() { stop(); }

  ConnEngine(const ConnEngine&) = delete;
  ConnEngine& operator=(const ConnEngine&) = delete;

  /// Binds and starts accepting; false (errno set) when that fails.
  [[nodiscard]] bool start(const std::string& host, int port);
  /// Drains, closes every connection and quiesces. Idempotent.
  void stop();

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] int active() const { return active_.load(); }
  [[nodiscard]] bool draining() const { return draining_.load(); }
  /// The bridge connections are watched on; valid from start() on.
  [[nodiscard]] exec::IoBridge& bridge() { return *bridge_; }

  /// One service pass; `first` runs first, under the connection's lock
  /// (the router hands in backend events this way).
  void service(const std::shared_ptr<Conn>& conn, short revents,
               const std::function<void(Conn&)>& first = {});
  /// Queues one frame; a terminal one is stamped for on_sent.
  void push(Conn& conn, std::vector<std::uint8_t> bytes, bool terminal = true,
            std::uint64_t trace_id = 0);
  /// Queues a typed ErrorReply in the peer's version, counted per code.
  void push_error(Conn& conn, std::uint64_t request_id, NetError code,
                  const std::string& message);
  /// Answers a StatsRequest with a metrics + health snapshot; false (after
  /// a Malformed reply) when it does not decode.
  bool push_stats(Conn& conn, const FrameView& frame, double uptime_ms,
                  int inflight, int queue_depth);
  /// Flushes now, for handlers that stream between passes. False once the
  /// peer is gone (the pass then closes the connection).
  bool flush(Conn& conn);

 private:
  void accept_ready();
  void decode(Conn& conn);
  [[nodiscard]] bool quiet(const Conn& conn) const;
  /// Earliest idle/read/write deadline; max when none applies.
  [[nodiscard]] Clock::time_point timeout(const Conn& conn) const;
  void arm(const std::shared_ptr<Conn>& conn, Clock::time_point due);
  void close(Conn& conn);

  ConnHandler& handler_;
  const ConnLimits limits_;

  int listen_fd_ = -1;
  int port_ = 0;
  bool stopped_ = false;
  std::atomic<bool> draining_{false};
  std::atomic<int> active_{0};
  exec::TaskGroup timers_;  ///< connection deadline timers

  std::unique_ptr<exec::IoBridge> bridge_;
  int listen_watch_ = -1;
  /// Guards conns_ and listen_watch_; taken before a connection's mutex,
  /// never inside it.
  std::mutex conns_mutex_;
  /// Signalled, while draining, by each pass that closes a connection.
  std::condition_variable drained_;
  std::map<std::uint64_t, std::shared_ptr<Conn>> conns_;
  std::uint64_t next_key_ = 1;

  // <prefix>.* instruments (the registry owns them).
  obs::Counter& accepted_;
  obs::Counter& frames_rx_;
  obs::Counter& frames_tx_;
  obs::Counter& bytes_rx_;
  obs::Counter& bytes_tx_;
  obs::Counter& decode_errors_;
  obs::Counter& timeouts_;
  obs::Gauge& active_gauge_;
  /// `<prefix>.reject.<code>` by NetError value; [0] is unused.
  std::array<obs::Counter*, 10> reject_counters_{};
};

}  // namespace gns::net
