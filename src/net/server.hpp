#pragma once

/// \file server.hpp
/// TCP front-end of the rollout serving subsystem.
///
/// Threading model: the server owns no threads. It runs on the wire's one
/// connection engine (net/conn_engine.hpp), which accepts through an
/// exec::IoBridge and services every connection as tasks on the global
/// work-stealing executor — the same pool that runs the scheduler's
/// rollout chains and the per-step compute. The engine reads, decodes,
/// flushes and enforces the idle and read deadlines (armed from accept);
/// the server submits each decoded request to the serve::JobScheduler and
/// finds resolved futures with a per-connection pump timer (2 ms while
/// work is pending, 50 ms otherwise), encoding them into the write queue.
/// The pump timers belong to the server's exec::TaskGroup, which stop()
/// waits out after the engine has drained.
///
/// Backpressure is explicit and bounded everywhere: a request beyond the
/// per-connection or global in-flight cap — or one the scheduler rejects
/// with QueueFull — is answered with ErrorReply{Busy} immediately; the
/// server never queues unboundedly on behalf of a client (read buffers are
/// capped by the protocol's frame cap, write queues by the in-flight cap).
///
/// Deadlines propagate: a request's deadline_ms is re-based to the moment
/// the frame finished decoding, so time spent in the server's buffers
/// counts against the client's budget and an already-expired job is
/// rejected by the scheduler at submit time (DeadlineExceeded) instead of
/// occupying a batch slot.
///
/// Observability: every request's trace_id (protocol v2) is threaded from
/// decode through the scheduler to the final flush, so one Perfetto trace
/// shows the cross-layer life of a request; per-phase latency lands in the
/// scheduler's serve.phase.* histograms. kStatsRequest frames are answered
/// inline in the connection's service task with a metrics + health
/// snapshot (Prometheus or JSON), so a live server can be scraped without
/// queueing behind rollouts.
///
/// stop() drains gracefully: the listener closes, new requests get
/// ErrorReply{ShuttingDown}, in-flight jobs run to completion and their
/// replies are flushed, then connections close and the obs env files
/// (GNS_TRACE_FILE / GNS_METRICS_FILE) are flushed. No accepted job is
/// ever dropped by a drain.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>

#include "exec/task_group.hpp"
#include "net/conn_engine.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "serve/scheduler.hpp"

namespace gns::net {

struct ServerConfig {
  std::string host = "127.0.0.1";  ///< bind address
  int port = 0;                    ///< 0 picks an ephemeral port (see port())
  int max_connections = 64;        ///< accepted beyond this are closed
  /// In-flight (submitted, unresolved) request caps; exceeding either is a
  /// Busy reply, never a queue.
  int max_inflight_per_connection = 4;
  int max_inflight_global = 64;
  /// A connection with no traffic and no in-flight jobs for this long is
  /// closed. <= 0 disables.
  double idle_timeout_ms = 60'000.0;
  /// A partial frame that stops growing for this long closes the
  /// connection (slowloris guard). <= 0 disables.
  double read_timeout_ms = 10'000.0;
  /// Predicted frames per RolloutChunk when streaming a finished rollout.
  int chunk_frames = 8;
  /// stop() waits at most this long for in-flight jobs + flushes.
  double drain_timeout_ms = 60'000.0;
  std::string metrics_prefix = "net";  ///< net.* instrument prefix
  /// Highest protocol version this server admits; frames above it get a
  /// fatal BadVersion, exactly as a binary built before that version would
  /// answer. Defaults to current — lower it only in tests that pin the
  /// router's legacy-backend fallback against a real server.
  std::uint8_t max_protocol_version = kProtocolVersion;
};

/// TCP server bridging the wire protocol onto a JobScheduler. The
/// scheduler (and its registry) must outlive the server.
class Server : private ConnHandler {
 public:
  Server(serve::JobScheduler& scheduler, ServerConfig config = {});
  /// Calls stop() if still running.
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the connection engine. Returns false (with
  /// the OS error logged) when the socket setup fails.
  [[nodiscard]] bool start();

  /// Graceful drain: stop accepting, fail new requests with ShuttingDown,
  /// wait for in-flight jobs and flush their replies (bounded by
  /// drain_timeout_ms), close everything, then flush the obs env files.
  /// Idempotent and safe to call from a signal-watcher thread.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  /// The bound port (resolves port=0 to the ephemeral choice); 0 before
  /// start().
  [[nodiscard]] int port() const { return engine_.port(); }
  [[nodiscard]] int active_connections() const { return engine_.active(); }

 private:
  /// One submitted request whose future has not resolved yet.
  struct Pending {
    std::uint64_t request_id = 0;       ///< wire id, echoed in replies
    std::uint64_t job_id = 0;           ///< scheduler id, for cancel()
    std::future<serve::RolloutResult> future;
    Clock::time_point decoded;  ///< when the request finished decoding
    /// Protocol version of the request frame; replies are encoded in it so
    /// a v1 client never sees v2 fields.
    std::uint8_t version = kProtocolVersion;
  };

  /// A connection plus its in-flight requests and pump timer. Defined in
  /// server.cpp.
  struct ServerConn;

  // ConnHandler: what the engine asks of the server.
  std::shared_ptr<Conn> make_conn() override;
  void on_frame(Conn& conn, const FrameView& frame,
                double buffered_ms) override;
  bool busy(const Conn& conn) const override;
  /// Moves resolved futures into the write queue.
  Clock::time_point pump(Conn& conn) override;
  /// Arms the pump timer: futures are poll-checked, so a connection with
  /// work pending gets a 2 ms tick and an idle one a 50 ms tick.
  void serviced(Conn& conn) override;
  /// Cancels what the scheduler has not started and releases the slots.
  void on_close(Conn& conn) override;
  /// Charges the flush to the request's write phase.
  void on_sent(const WriteItem& item) override;

  /// `buffered_ms` is how long the frame straddled reads — it is charged
  /// against the request's deadline before submit.
  void handle_request(ServerConn& conn, const FrameView& frame,
                      double buffered_ms);
  /// Answers a kStatsRequest with a metrics + health snapshot. Runs in the
  /// connection's service task; touches only atomics, the scheduler's
  /// queue-depth accessor, and the metrics registry.
  void handle_stats(Conn& conn, const FrameView& frame);
  /// Answers a kHello with this backend's capability advertisement
  /// (protocol version, registry model names, in-flight capacity). Runs in
  /// the connection's service task, like handle_stats.
  void handle_hello(Conn& conn, const FrameView& frame);
  /// Streams one resolved result as RolloutChunks + a StatusReply.
  void enqueue_result(Conn& conn, const Pending& pending,
                      const serve::RolloutResult& result);

  serve::JobScheduler& scheduler_;
  ServerConfig config_;

  Clock::time_point started_{};  ///< start() time, for StatsReply uptime
  std::atomic<bool> running_{false};
  std::atomic<int> global_inflight_{0};
  std::once_flag stop_once_;
  /// Pump timers; stop() waits them out so no callback outlives the server.
  exec::TaskGroup pumps_;

  // net.* instruments the engine does not keep (cached handles; the
  // registry owns them, so decode_errors_ is the engine's counter too).
  obs::Counter& decode_errors_;
  obs::Counter& rejected_backpressure_;
  obs::Counter& stats_requests_;
  obs::Gauge& inflight_gauge_;
  obs::Gauge& queue_depth_gauge_;
  obs::HistogramMetric& request_ms_;

  ConnEngine engine_;  ///< declared last, so destroyed first
};

}  // namespace gns::net
