#include "router/router.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <set>
#include <utility>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace gns::router {

namespace {

using Clock = std::chrono::steady_clock;

obs::Counter& counter(const std::string& prefix, const char* name) {
  return obs::MetricsRegistry::global().counter(prefix + name);
}

}  // namespace

/// Replies use the conn's peer_version: nothing else decodes meanwhile.
struct Router::Proxy {
  std::uint64_t client_id = 0;
  serve::RolloutRequest request;
  std::int64_t start_ns = 0;  ///< for the router.proxy span
  std::vector<Backend*> tried;
  PickOutcome outcome = PickOutcome::AllDown;
  bool saw_busy = false;
  bool saw_failure = false;
  bool saw_incapable = false;
  // The current attempt.
  Backend* backend = nullptr;
  std::unique_ptr<Link> link;
  std::uint64_t backend_id = 0;  ///< 0 until the request is forwarded
  bool streamed = false;         ///< a chunk reached the client
  /// The reply deadline restarts at the next wait: set by each forwarded
  /// request or frame, which a stalled client may hold back for a while.
  bool restart_deadline = false;
  std::uint64_t serial = 0;  ///< of the link's current watch
  short revents = 0;         ///< link events not yet handled
};

struct Router::ClientConn : net::Conn {
  std::unique_ptr<Proxy> proxy;
};

struct Router::Probe {
  std::mutex m;
  std::unique_ptr<Link> link;  ///< set while a probe is in flight
  Clock::time_point deadline{};
  std::uint64_t serial = 0;
};

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      requests_(counter(config_.metrics_prefix, ".requests")),
      retries_(counter(config_.metrics_prefix, ".retries")),
      failovers_(counter(config_.metrics_prefix, ".failovers")),
      evictions_(counter(config_.metrics_prefix, ".evictions")),
      readmissions_(counter(config_.metrics_prefix, ".readmissions")),
      backend_lost_(counter(config_.metrics_prefix, ".backend_lost")),
      busy_rejected_(counter(config_.metrics_prefix, ".busy_rejected")),
      probes_made_(counter(config_.metrics_prefix, ".probes")),
      backends_healthy_(obs::MetricsRegistry::global().gauge(
          config_.metrics_prefix + ".backends_healthy")),
      inflight_gauge_(obs::MetricsRegistry::global().gauge(
          config_.metrics_prefix + ".inflight")),
      engine_(*this, net::ConnLimits{config_.max_connections,
                                     config_.client_idle_timeout_ms,
                                     /*read_timeout_ms=*/0.0,
                                     config_.tuning.io_timeout_ms,
                                     config_.drain_timeout_ms,
                                     net::kProtocolVersion,
                                     config_.metrics_prefix}) {
  GNS_CHECK_MSG(!config_.backends.empty(),
                "Router needs at least one backend address");
  for (const BackendAddress& address : config_.backends) {
    backends_.push_back(std::make_unique<Backend>(address, config_.tuning));
    probes_.push_back(std::make_unique<Probe>());
  }
}

Router::~Router() { stop(); }

bool Router::start() {
  GNS_CHECK_MSG(!running_.load(), "Router::start called twice");
  started_ = Clock::now();  // before the first connection can read it
  if (!engine_.start(config_.host, config_.port)) {
    GNS_ERROR("router: listen on " << config_.host << ":" << config_.port
                                   << " failed: " << std::strerror(errno));
    return false;
  }
  running_.store(true, std::memory_order_release);
  // First sweep a full interval after start: placement is optimistic about
  // un-probed backends anyway, and a quiet startup keeps tests (and
  // operators' logs) deterministic.
  {
    std::lock_guard<std::mutex> lock(sweep_mutex_);
    schedule_sweep();
  }
  GNS_INFO("router: fronting " << backends_.size() << " backends on "
                               << config_.host << ":" << port());
  return true;
}

void Router::stop() {
  std::call_once(stop_once_, [this] {
    if (!running_.load(std::memory_order_acquire)) return;
    GNS_INFO("router: draining (stop admitting, finish proxied streams)");
    stop_probes();
    // Proxied streams finish; a client that asks meanwhile gets a typed
    // ShuttingDown, as from a draining server.
    engine_.stop();
    running_.store(false, std::memory_order_release);
    obs::flush_env_files();
    GNS_INFO("router: drained and stopped");
  });
}

std::vector<BackendSnapshot> Router::snapshot() const {
  std::vector<BackendSnapshot> out;
  out.reserve(backends_.size());
  for (const auto& backend : backends_) {
    BackendSnapshot snap;
    snap.address = backend->address();
    snap.health = backend->health();
    snap.capabilities = backend->capabilities();
    snap.inflight = backend->inflight();
    out.push_back(std::move(snap));
  }
  return out;
}

// ---- Client connections ----------------------------------------------------

std::shared_ptr<net::Conn> Router::make_conn() {
  return std::make_shared<ClientConn>();
}

bool Router::busy(const net::Conn& conn) const {
  return static_cast<const ClientConn&>(conn).proxy != nullptr;
}

bool Router::accepting(const net::Conn& conn) const { return !busy(conn); }

void Router::on_frame(net::Conn& conn, const net::FrameView& frame,
                      double /*buffered_ms*/) {
  switch (frame.type) {
    case net::MessageType::RolloutRequest:
      begin_proxy(static_cast<ClientConn&>(conn), frame);
      return;
    case net::MessageType::StatsRequest:
      // The router never queues (Busy is immediate): queue depth 0.
      engine_.push_stats(conn, frame, ms_since(started_, Clock::now()),
                         inflight_.load(std::memory_order_relaxed), 0);
      return;
    case net::MessageType::Hello:
      answer_hello(conn, frame);
      return;
    default:
      engine_.push_error(conn, frame.request_id, net::NetError::Malformed,
                         "unexpected message type from client");
  }
}

void Router::on_close(net::Conn& conn) {
  auto& c = static_cast<ClientConn&>(conn);
  // Nobody is left to stream to. Closing the backend link makes the server
  // cancel what it has not finished.
  if (c.proxy && c.proxy->backend != nullptr) release(*c.proxy, false);
  c.proxy.reset();
}

void Router::begin_proxy(ClientConn& c, const net::FrameView& frame) {
  if (engine_.draining()) {
    engine_.push_error(c, frame.request_id, net::NetError::ShuttingDown,
                       "router is draining");
    return;
  }
  auto proxy = std::make_unique<Proxy>();
  std::string parse_error;
  if (!net::decode_rollout_request(frame, proxy->request, parse_error)) {
    engine_.push_error(c, frame.request_id, net::NetError::Malformed,
                       parse_error);
    return;
  }
  requests_.add();
  proxy->client_id = frame.request_id;
  proxy->start_ns = obs::trace_now_ns();
  c.proxy = std::move(proxy);
  place(c);
}

void Router::place(ClientConn& c) {
  Proxy& p = *c.proxy;
  const int max_attempts = config_.max_attempts > 0
                               ? config_.max_attempts
                               : static_cast<int>(backends_.size());
  while (static_cast<int>(p.tried.size()) < max_attempts) {
    Backend* backend = pick_backend(p.request.model, p.tried, p.outcome);
    if (backend == nullptr) break;
    p.tried.push_back(backend);
    // Counted before the checkout, so a concurrent placement sees it.
    backend->add_inflight(1);
    inflight_gauge_.set(inflight_.fetch_add(1, std::memory_order_relaxed) +
                        1);
    p.backend = backend;
    std::string error;
    p.link = backend->checkout(error);
    if (p.link == nullptr) {
      evict_backend(*backend, error);
      release(p, false);
      failovers_.add();
      p.saw_failure = true;
      continue;
    }
    return;  // pump() drives the link from here
  }

  if ((p.outcome == PickOutcome::NoBackendForModel || p.saw_incapable) &&
      !p.saw_busy && !p.saw_failure) {
    // Mirror what a direct server answers, so clients have one code path.
    net::WireStatus status;
    status.status = serve::JobStatus::ModelNotFound;
    status.error = "no backend serves model '" + p.request.model + "'";
    status.trace_id = p.request.trace_id;
    engine_.push(c, net::encode_status_reply(p.client_id, status,
                                             c.peer_version));
  } else {
    busy_rejected_.add();
    engine_.push_error(c, p.client_id, net::NetError::Busy,
                       p.saw_busy ? "every capable backend is at capacity"
                       : p.saw_failure
                           ? "no backend could serve the request; retry"
                           : "no healthy backend available");
  }
  finish(c, false);
}

Clock::time_point Router::pump(net::Conn& conn) {
  auto& c = static_cast<ClientConn&>(conn);
  // A client that is not taking its stream holds the backend back: the
  // link is read only once the client's write queue has drained.
  while (c.proxy && c.wqueue.empty() && !c.failed) {
    Proxy& p = *c.proxy;
    Link& link = *p.link;
    Backend& backend = *p.backend;
    if (p.restart_deadline) {
      p.restart_deadline = false;
      link.deadline = after_ms(Clock::now(), config_.tuning.io_timeout_ms);
    }
    net::FrameView frame;
    std::string error;
    switch (backend.advance(link, std::exchange(p.revents, 0), frame,
                            error)) {
      case Backend::Io::Wait: {
        auto self = c.shared_from_this();
        watch(link, p.serial, [this, self](std::uint64_t serial) {
          return [this, self, serial](short re) {
            engine_.service(self, 0, [serial, re](net::Conn& x) {
              auto& cc = static_cast<ClientConn&>(x);
              if (cc.proxy && cc.proxy->serial == serial)
                cc.proxy->revents |= re;
            });
          };
        });
        return link.deadline;
      }
      case Backend::Io::Ready:
        // Placement on a never-contacted backend is optimistic; the
        // handshake has run now, so the model claim is checkable.
        if (!backend.serves(p.request.model)) {
          p.saw_incapable = true;
          release(p, true);
          place(c);
          break;
        }
        p.backend_id = link.next_request_id++;
        link.ch.push(net::encode_rollout_request(
            p.backend_id, p.request, backend.capabilities().wire_version));
        p.restart_deadline = true;
        break;
      case Backend::Io::Failed:
        lost(c, error);
        break;
      case Backend::Io::Frame:
        on_reply(c, frame);
        if (c.proxy) c.proxy->restart_deadline = true;
        engine_.flush(c);
        break;
    }
  }
  return Clock::time_point::max();
}

void Router::on_reply(ClientConn& c, const net::FrameView& frame) {
  Proxy& p = *c.proxy;
  std::string parse_error;
  net::WireChunk chunk;
  net::WireStatus status;
  net::WireError error;
  if (frame.request_id != p.backend_id)
    return lost(c, "backend answered an unknown request id");
  if (frame.type == net::MessageType::RolloutChunk &&
      net::decode_rollout_chunk(frame, chunk, parse_error)) {
    engine_.push(
        c, net::encode_rollout_chunk(p.client_id, chunk, c.peer_version),
        /*terminal=*/false);
    p.streamed = true;
    return;
  }
  if (frame.type == net::MessageType::StatusReply &&
      net::decode_status_reply(frame, status, parse_error)) {
    p.backend->mark_healthy();
    engine_.push(c, net::encode_status_reply(p.client_id, status,
                                             c.peer_version));
    return finish(c, true);
  }
  if (frame.type != net::MessageType::ErrorReply ||
      !net::decode_error_reply(frame, error, parse_error))
    return lost(c, "bad reply from backend: " + parse_error);
  if (!p.streamed && (error.code == net::NetError::Busy ||
                      error.code == net::NetError::ShuttingDown)) {
    // A Busy backend is alive, just full: keep the link, try a sibling, and
    // surface Busy only when everyone is. A draining one gets no more work.
    const bool busy = error.code == net::NetError::Busy;
    retries_.add();
    (busy ? p.saw_busy : p.saw_failure) = true;
    if (!busy) p.backend->set_draining(true);
    release(p, busy);
    return place(c);
  }
  // Any other backend-side rejection is this request's real answer.
  engine_.push(c,
               net::encode_error_reply(p.client_id, error, c.peer_version));
  finish(c, true);
}

void Router::lost(ClientConn& c, const std::string& why) {
  Proxy& p = *c.proxy;
  const std::string label = p.backend->label();
  evict_backend(*p.backend, why);
  release(p, false);
  if (!p.streamed) {
    // The failover everything above is for: the request never started
    // streaming, so a sibling serves it and the client never knows.
    failovers_.add();
    p.saw_failure = true;
    return place(c);
  }
  // Retrying elsewhere would duplicate the frames already delivered.
  // Pre-v3 clients do not know BackendLost; Internal with the story.
  backend_lost_.add();
  engine_.push_error(
      c, p.client_id,
      c.peer_version >= 3 ? net::NetError::BackendLost
                            : net::NetError::Internal,
      "backend " + label +
          " died after streaming began; do not retry blindly — partial "
          "frames were delivered");
  finish(c, false);
}

void Router::release(Proxy& p, bool keep_link) {
  p.backend->add_inflight(-1);
  inflight_gauge_.set(
      std::max(0, inflight_.fetch_sub(1, std::memory_order_relaxed) - 1));
  if (p.link != nullptr) {
    unwatch(*p.link);
    if (keep_link) p.backend->checkin(std::move(p.link));
    p.link.reset();
  }
  p.backend = nullptr;
  p.backend_id = 0;
  p.revents = 0;
}

void Router::finish(ClientConn& c, bool keep_link) {
  if (c.proxy->backend != nullptr) release(*c.proxy, keep_link);
  obs::record_manual_span("router.proxy", c.proxy->start_ns,
                          obs::trace_now_ns(), c.proxy->request.trace_id);
  c.proxy.reset();
}

void Router::watch(
    Link& link, std::uint64_t& serial,
    const std::function<exec::IoBridge::Callback(std::uint64_t)>& make) {
  if (link.watch >= 0 && !link.reconnected) {
    engine_.bridge().rearm(link.watch, link.events());
    return;
  }
  unwatch(link);
  link.reconnected = false;
  serial = next_serial_.fetch_add(1, std::memory_order_relaxed);
  link.watch = engine_.bridge().watch(link.ch.fd, link.events(), make(serial));
}

void Router::unwatch(Link& link) {
  if (link.watch >= 0) engine_.bridge().unwatch(link.watch);
  link.watch = -1;
}

// ---- Probes ----------------------------------------------------------------

void Router::sweep() {
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    Probe& p = *probes_[i];
    std::lock_guard<std::mutex> lk(p.m);
    if (p.link != nullptr) {
      // One probe per backend at a time: for one still in flight from an
      // earlier sweep, this one is the deadline check.
      if (Clock::now() >= p.deadline)
        end_probe(i, "no answer within the probe timeout");
      continue;
    }
    Backend& backend = *backends_[i];
    const bool readmit = backend.health() == BackendHealth::Evicted;
    if (readmit && !backend.readmit_due()) continue;
    if (!readmit) probes_made_.add();
    p.deadline = after_ms(Clock::now(), config_.probe_timeout_ms);
    std::string error;
    p.link = backend.connect(error);
    if (p.link == nullptr)
      end_probe(i, error);
    else
      drive_probe(i, 0);
  }
  update_health_gauge();
  std::lock_guard<std::mutex> lock(sweep_mutex_);
  sweep_timer_ = 0;
  if (!sweep_stopped_) schedule_sweep();
}

void Router::schedule_sweep() {
  sweep_timer_ =
      sweeps_.schedule_after(config_.probe_interval_ms, [this] { sweep(); });
}

void Router::drive_probe(std::size_t index, short revents) {
  Probe& p = *probes_[index];
  net::FrameView frame;
  std::string error;
  const Backend::Io io =
      backends_[index]->advance(*p.link, revents, frame, error);
  if (io != Backend::Io::Wait) {
    // Ready: the handshake answered, so the backend is alive.
    end_probe(index, io == Backend::Io::Ready   ? ""
                     : io == Backend::Io::Frame ? "unexpected frame"
                                                : error);
    return;
  }
  watch(*p.link, p.serial, [this, index](std::uint64_t serial) {
    return [this, index, serial](short re) {
      Probe& probe = *probes_[index];
      std::lock_guard<std::mutex> lk(probe.m);
      if (probe.link != nullptr && probe.serial == serial)
        drive_probe(index, re);
    };
  });
}

void Router::end_probe(std::size_t index, const std::string& error) {
  Probe& p = *probes_[index];
  Backend& backend = *backends_[index];
  const bool readmit = backend.health() == BackendHealth::Evicted;
  // Closed, not pooled: probe links would pile up idle in the pool.
  unwatch(*p.link);
  p.link.reset();
  if (error.empty()) {
    backend.mark_healthy();
    if (readmit) {
      readmissions_.add();
      GNS_INFO("router: re-admitted backend " << backend.label());
    }
  } else if (readmit) {
    backend.evict();  // extends the backoff; still one eviction event
  } else {
    evict_backend(backend, "probe: " + error);
  }
}

void Router::stop_probes() {
  {
    std::lock_guard<std::mutex> lock(sweep_mutex_);
    sweep_stopped_ = true;
    if (sweep_timer_ != 0) sweeps_.cancel(sweep_timer_);
  }
  sweeps_.wait();  // a sweep that won the race sees sweep_stopped_
  // No sweep runs any more; events of a probe still in flight find no link.
  for (const auto& probe : probes_) {
    std::lock_guard<std::mutex> lk(probe->m);
    if (probe->link != nullptr) unwatch(*probe->link);
    probe->link.reset();
  }
}

// ---- Placement and health --------------------------------------------------

Backend* Router::pick_backend(const std::string& model,
                              const std::vector<Backend*>& exclude,
                              PickOutcome& outcome) {
  Backend* best = nullptr;
  bool any_healthy = false;
  bool any_unavailable = false;  // capable but saturated or draining
  for (const auto& owned : backends_) {
    Backend* backend = owned.get();
    if (std::find(exclude.begin(), exclude.end(), backend) != exclude.end())
      continue;
    if (backend->health() == BackendHealth::Evicted) continue;
    any_healthy = true;
    if (backend->capabilities().draining) {
      any_unavailable = true;
      continue;
    }
    if (!backend->serves(model)) continue;
    if (backend->inflight() >= backend->placement_capacity()) {
      any_unavailable = true;
      continue;
    }
    if (best == nullptr || backend->inflight() < best->inflight())
      best = backend;
  }
  outcome = best != nullptr         ? PickOutcome::Picked
            : any_unavailable       ? PickOutcome::AllBusy
            : any_healthy           ? PickOutcome::NoBackendForModel
                                    : PickOutcome::AllDown;
  return best;
}

void Router::evict_backend(Backend& backend, const std::string& why) {
  // Repeated failures while already evicted extend the backoff but count
  // as one eviction event.
  const bool was_evicted = backend.health() == BackendHealth::Evicted;
  backend.evict();
  if (!was_evicted) {
    evictions_.add();
    GNS_WARN("router: evicting backend " << backend.label() << ": " << why);
  }
  update_health_gauge();
}

void Router::update_health_gauge() {
  int healthy = 0;
  for (const auto& backend : backends_)
    if (backend->health() != BackendHealth::Evicted) ++healthy;
  backends_healthy_.set(healthy);
}

// ---- Router-answered requests -----------------------------------------------

void Router::answer_hello(net::Conn& conn, const net::FrameView& frame) {
  net::WireHello hello;
  std::string parse_error;
  if (!net::decode_hello(frame, hello, parse_error)) {
    engine_.push_error(conn, frame.request_id, net::NetError::Malformed,
                       parse_error);
    return;
  }
  // Aggregate capability of the healthy fleet: union of models, summed
  // capacity. A router in front of routers works the same as one in front
  // of servers.
  net::WireHelloReply reply;
  reply.protocol_version = net::kProtocolVersion;
  reply.draining = engine_.draining() ? 1 : 0;
  std::set<std::string> models;
  long capacity = 0;
  long workers = 0;
  for (const auto& backend : backends_) {
    if (backend->health() == BackendHealth::Evicted) continue;
    const BackendCapabilities caps = backend->capabilities();
    for (const std::string& model : caps.models) models.insert(model);
    capacity += backend->placement_capacity();
    workers += caps.workers;
  }
  // A legacy backend serves an unknown model set: the aggregate lists only
  // what is known, and the capacity still counts its wildcard slots.
  reply.max_inflight = static_cast<std::uint32_t>(
      std::min<long>(capacity, 1L << 20));
  reply.current_inflight = static_cast<std::uint32_t>(
      std::max(0, inflight_.load(std::memory_order_relaxed)));
  reply.workers =
      static_cast<std::uint32_t>(std::min<long>(workers, 1L << 20));
  reply.models.assign(models.begin(), models.end());
  if (reply.models.size() > net::kMaxHelloModels)
    reply.models.resize(net::kMaxHelloModels);
  engine_.push(conn,
               net::encode_hello_reply(frame.request_id, reply, frame.version));
}

}  // namespace gns::router
