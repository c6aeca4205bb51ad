#pragma once

/// \file router.hpp
/// Front door of a rollout fleet: one process that speaks the same wire
/// protocol as `serve_rollouts --listen` and load-balances every
/// RolloutRequest across N backend servers.
///
/// Placement needs no config file: backends are given as host:port pairs
/// and everything else is learned over the wire. On first contact the
/// router sends a v3 HELLO; the backend answers with its protocol version,
/// loaded model names, and in-flight capacity. Work goes to the
/// least-in-flight healthy backend that serves the requested model and has
/// a free slot. Pre-v3 backends (which greet the HELLO with a fatal
/// BadVersion) are still usable under conservative defaults — see
/// backend.hpp.
///
/// Failure semantics, the contract the fault-injection suite pins:
///  - a backend that dies BEFORE its first chunk is evicted and the
///    request transparently retries on a sibling — rollouts are
///    idempotent, the client sees one clean stream, bitwise identical to a
///    direct rollout;
///  - a backend that dies AFTER streaming began cannot be retried without
///    duplicating frames: the client gets a typed ErrorReply{BackendLost}
///    (Internal with an explanatory message for pre-v3 clients);
///  - a Busy backend is skipped for a sibling; when every capable backend
///    is busy the Busy travels end-to-end so the client's backoff loop —
///    the fleet's real admission queue — takes over;
///  - trace_ids pass through both hops untouched, so one id greps across
///    client, router, and backend logs.
///
/// Health: every probe_interval_ms an executor timer probes each backend:
/// a HELLO handshake on a fresh link (a plain TCP connect for pre-v3
/// peers), due within probe_timeout_ms and checked by the next sweep. A
/// miss or an I/O failure — from the probe or from any proxied request —
/// evicts the backend: its pool closes and placement skips it. Eviction
/// starts an exponentially growing re-admission backoff; once due, the
/// next probe re-handshakes (the peer may have come back as a different
/// binary) and a success re-admits.
///
/// The router answers StatsRequest with its OWN metrics (router.* —
/// evictions, failovers, per-backend health) and HELLO with the aggregate
/// capability of its healthy fleet (union of models, summed capacity), so
/// routers stack behind routers.
///
/// Drain ordering for a whole fleet: drain the router FIRST (stop
/// admitting, finish proxied streams, close backend connections), then
/// drain the backends — the reverse order would drop the router's
/// in-flight work. Router::stop() implements the router half; no accepted
/// request is dropped.
///
/// Threading: none of its own. Client connections run on the connection
/// engine net::Server uses (net/conn_engine.hpp); backend links are
/// watches on its bridge, and deadlines ride the engine's timers. The probe
/// sweep is a timer of the router's exec::TaskGroup, which stop() waits
/// out before it drains the engine. A client connection proxies one
/// request at a time — placed, backend handshake, forwarded, streaming,
/// done or failed over — under its lock, driven by client and backend
/// events alike. The backend is read only once the client's write queue
/// has drained: a client that stops reading holds its stream back and is
/// closed after tuning.io_timeout_ms.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/task_group.hpp"
#include "net/conn_engine.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "router/backend.hpp"

namespace gns::router {

struct RouterConfig {
  std::string host = "127.0.0.1";  ///< bind address
  int port = 0;                    ///< 0 picks an ephemeral port
  std::vector<BackendAddress> backends;
  int max_connections = 64;  ///< accepted client conns beyond this close
  /// Probe cadence and reply deadline; a probe miss evicts the backend.
  double probe_interval_ms = 1000.0;
  double probe_timeout_ms = 1000.0;
  /// Placement attempts per request across distinct backends; <= 0 means
  /// one attempt per configured backend.
  int max_attempts = 0;
  /// A client connection with no traffic for this long closes. <= 0
  /// disables.
  double client_idle_timeout_ms = 60'000.0;
  /// stop() waits at most this long for in-flight proxied requests.
  double drain_timeout_ms = 30'000.0;
  BackendTuning tuning;  ///< timeouts, legacy capacity, eviction backoff
  std::string metrics_prefix = "router";
};

/// Point-in-time view of one backend, for operators and tests.
struct BackendSnapshot {
  BackendAddress address;
  BackendHealth health = BackendHealth::Unknown;
  BackendCapabilities capabilities;
  int inflight = 0;
};

class Router : private net::ConnHandler {
 public:
  explicit Router(RouterConfig config);
  ~Router() override;  ///< calls stop()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds, starts accepting and arms the probe timer. Does NOT wait for
  /// any backend: dead ones stay Unknown/Evicted until a probe reaches
  /// them, and requests simply avoid them.
  [[nodiscard]] bool start();

  /// Graceful drain: stop accepting, answer new requests with
  /// ShuttingDown, let in-flight proxied streams finish (bounded by
  /// drain_timeout_ms), close backend connections. Idempotent.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] int port() const { return engine_.port(); }
  [[nodiscard]] std::vector<BackendSnapshot> snapshot() const;

 private:
  enum class PickOutcome {
    Picked,
    NoBackendForModel,  ///< healthy backends exist; none serves the model
    AllBusy,            ///< capable backends exist; all at capacity
    AllDown             ///< nothing healthy at all
  };

  struct Proxy;       ///< the one request a client connection proxies
  struct ClientConn;  ///< a client connection and its Proxy
  struct Probe;       ///< one backend's health check

  // ConnHandler: what the engine asks of the router.
  std::shared_ptr<net::Conn> make_conn() override;
  void on_frame(net::Conn& conn, const net::FrameView& frame,
                double buffered_ms) override;
  bool busy(const net::Conn& conn) const override;
  /// One request at a time: later frames wait in the buffer.
  bool accepting(const net::Conn& conn) const override;
  /// Drives the request's backend link while the client keeps up.
  Clock::time_point pump(net::Conn& conn) override;
  void on_close(net::Conn& conn) override;

  void begin_proxy(ClientConn& conn, const net::FrameView& frame);
  /// Checks out a link on the least-loaded capable backend not yet tried,
  /// or answers the request when none is left.
  void place(ClientConn& conn);
  void on_reply(ClientConn& conn, const net::FrameView& frame);
  /// The backend failed: evict it, then fail over before the first chunk
  /// or answer BackendLost after it.
  void lost(ClientConn& conn, const std::string& why);
  /// Gives back the attempt's in-flight slot and its link (to the pool
  /// when `keep_link`, else closed).
  void release(Proxy& proxy, bool keep_link);
  void finish(ClientConn& conn, bool keep_link);
  /// Re-arms `link` on the bridge, or watches it afresh under a new
  /// `serial` (events of its owner's earlier watches carry an old one and
  /// are dropped). `make` builds the callback for a serial.
  void watch(Link& link, std::uint64_t& serial,
             const std::function<exec::IoBridge::Callback(std::uint64_t)>&
                 make);
  void unwatch(Link& link);

  /// Starts a probe on every backend without one in flight (checking the
  /// deadline of those with one), then arms the next sweep.
  void sweep();
  void schedule_sweep();  ///< under sweep_mutex_
  void drive_probe(std::size_t index, short revents);
  void end_probe(std::size_t index, const std::string& error);
  void stop_probes();

  void answer_hello(net::Conn& conn, const net::FrameView& frame);

  Backend* pick_backend(const std::string& model,
                        const std::vector<Backend*>& exclude,
                        PickOutcome& outcome);
  void evict_backend(Backend& backend, const std::string& why);
  void update_health_gauge();

  RouterConfig config_;
  std::vector<std::unique_ptr<Backend>> backends_;

  Clock::time_point started_{};
  std::atomic<bool> running_{false};
  std::atomic<int> inflight_{0};
  std::atomic<std::uint64_t> next_serial_{1};
  std::once_flag stop_once_;

  /// One per backend; a probe's state is guarded by its own mutex.
  std::vector<std::unique_ptr<Probe>> probes_;
  std::mutex sweep_mutex_;  ///< guards the two fields below
  bool sweep_stopped_ = false;
  exec::TaskGroup::TimerId sweep_timer_ = 0;
  /// The sweep timer, armed or firing; stop() waits it out.
  exec::TaskGroup sweeps_;

  // router.* instruments (cached handles; registry owns them).
  obs::Counter& requests_;
  obs::Counter& retries_;
  obs::Counter& failovers_;
  obs::Counter& evictions_;
  obs::Counter& readmissions_;
  obs::Counter& backend_lost_;
  obs::Counter& busy_rejected_;
  obs::Counter& probes_made_;
  obs::Gauge& backends_healthy_;
  obs::Gauge& inflight_gauge_;

  net::ConnEngine engine_;  ///< declared last, so destroyed first
};

}  // namespace gns::router
