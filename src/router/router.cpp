#include "router/router.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <set>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace gns::router {

namespace {

constexpr std::size_t kReadChunkBytes = 64 * 1024;
constexpr std::size_t kCompactThreshold = 256 * 1024;
/// How long an idle session lingers once a drain begins. A client racing
/// the drain gets a typed ShuttingDown (same as against a draining
/// server) instead of a silent close; after the grace the session exits
/// so the drain itself stays fast.
constexpr double kDrainLingerMs = 250.0;

double ms_since(std::chrono::steady_clock::time_point then,
                std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - then).count();
}

bool send_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

timeval to_timeval(double ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>(
      (ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
  return tv;
}

}  // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      requests_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".requests")),
      retries_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".retries")),
      failovers_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".failovers")),
      evictions_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".evictions")),
      readmissions_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".readmissions")),
      backend_lost_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".backend_lost")),
      busy_rejected_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".busy_rejected")),
      probes_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".probes")),
      backends_healthy_(obs::MetricsRegistry::global().gauge(
          config_.metrics_prefix + ".backends_healthy")),
      inflight_gauge_(obs::MetricsRegistry::global().gauge(
          config_.metrics_prefix + ".inflight")),
      active_clients_gauge_(obs::MetricsRegistry::global().gauge(
          config_.metrics_prefix + ".active_connections")) {
  GNS_CHECK_MSG(!config_.backends.empty(),
                "Router needs at least one backend address");
  for (const BackendAddress& address : config_.backends)
    backends_.push_back(std::make_unique<Backend>(address, config_.tuning));
}

Router::~Router() { stop(); }

bool Router::start() {
  GNS_CHECK_MSG(!running_.load(), "Router::start called twice");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    GNS_ERROR("router: socket() failed: " << std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    GNS_ERROR("router: bad bind address '" << config_.host << "'");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 128) != 0) {
    GNS_ERROR("router: bind/listen on " << config_.host << ":" << config_.port
                                        << " failed: "
                                        << std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);
  // Non-blocking accepts: the acceptor drains the backlog after each poll
  // and must get EAGAIN (not block) when it is empty.
  ::fcntl(listen_fd_, F_SETFL,
          ::fcntl(listen_fd_, F_GETFL, 0) | O_NONBLOCK);

  started_ = Clock::now();
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
  prober_ = std::thread([this] { probe_loop(); });
  GNS_INFO("router: fronting " << backends_.size() << " backends on "
                               << config_.host << ":" << port_);
  return true;
}

void Router::stop() {
  std::call_once(stop_once_, [this] {
    if (!running_.load(std::memory_order_acquire)) return;
    GNS_INFO("router: draining (stop admitting, finish proxied streams)");
    draining_.store(true, std::memory_order_release);
    // 1. Stop accepting.
    if (acceptor_.joinable()) acceptor_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    // 2. Sessions observe draining_, answer queued requests with
    //    ShuttingDown, finish the stream they are proxying, then exit.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               config_.drain_timeout_ms));
    while (active_clients_.load(std::memory_order_acquire) > 0 &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      if (active_clients_.load(std::memory_order_acquire) > 0) {
        GNS_WARN("router: drain timeout, severing "
                 << active_clients_.load() << " client connections");
        for (const std::shared_ptr<Session>& session : sessions_) {
          const int fd = session->fd.load(std::memory_order_acquire);
          if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
        }
      }
    }
    if (prober_.joinable()) prober_.join();
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      threads.swap(session_threads_);
    }
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      sessions_.clear();
    }
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

void Router::accept_loop() {
  while (!draining_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0 || !(pfd.revents & POLLIN)) continue;
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;
      if (active_clients_.load(std::memory_order_relaxed) >=
          config_.max_connections) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      // Sends to the client are blocking; bound them so a dead peer cannot
      // wedge a session thread forever.
      const timeval tv = to_timeval(config_.tuning.io_timeout_ms);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
      auto session = std::make_shared<Session>();
      session->fd.store(fd, std::memory_order_release);
      active_clients_.fetch_add(1, std::memory_order_relaxed);
      active_clients_gauge_.set(
          active_clients_.load(std::memory_order_relaxed));
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      sessions_.push_back(session);
      session_threads_.emplace_back(
          [this, session] { serve_client(session); });
    }
  }
}

void Router::serve_client(std::shared_ptr<Session> session) {
  std::vector<std::uint8_t> rbuf;
  std::size_t consumed = 0;
  Clock::time_point last_activity = Clock::now();
  Clock::time_point drain_seen{};
  bool drain_observed = false;
  bool closing = false;

  while (!closing) {
    const int fd = session->fd.load(std::memory_order_acquire);
    if (fd < 0) break;

    // Decode and dispatch everything buffered.
    for (;;) {
      net::FrameView frame;
      net::DecodeError decode_error;
      const net::DecodeStatus status = net::try_decode_frame(
          rbuf.data() + consumed, rbuf.size() - consumed, frame,
          decode_error);
      if (status == net::DecodeStatus::NeedMore) break;
      if (status == net::DecodeStatus::Error) {
        send_error(*session, decode_error.request_id, net::kProtocolVersion,
                   decode_error.code, decode_error.message);
        if (decode_error.fatal) {
          closing = true;
          break;
        }
        consumed += decode_error.skip_bytes;
        continue;
      }
      if (!dispatch_frame(*session, frame)) {
        closing = true;
        break;
      }
      consumed += frame.frame_bytes;
      last_activity = Clock::now();
    }
    if (consumed == rbuf.size()) {
      rbuf.clear();
      consumed = 0;
    } else if (consumed > kCompactThreshold) {
      rbuf.erase(rbuf.begin(), rbuf.begin() +
                                   static_cast<std::ptrdiff_t>(consumed));
      consumed = 0;
    }
    if (closing) break;
    if (draining_.load(std::memory_order_acquire)) {
      if (!drain_observed) {
        drain_observed = true;
        drain_seen = Clock::now();
      }
      // Past the linger an idle draining session owes the client nothing.
      if (rbuf.size() == consumed &&
          ms_since(drain_seen, Clock::now()) > kDrainLingerMs)
        break;
    }

    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (rc < 0 && errno != EINTR) break;
    if (rc > 0 && (pfd.revents & POLLIN)) {
      std::uint8_t chunk[kReadChunkBytes];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n == 0) break;
      if (n < 0 &&
          !(errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
        break;
      if (n > 0) {
        rbuf.insert(rbuf.end(), chunk, chunk + n);
        last_activity = Clock::now();
      }
    } else if (rc > 0 &&
               (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
      break;
    }
    if (config_.client_idle_timeout_ms > 0 && rbuf.size() == consumed &&
        ms_since(last_activity, Clock::now()) >
            config_.client_idle_timeout_ms)
      break;
  }

  const int fd = session->fd.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
  active_clients_.fetch_sub(1, std::memory_order_acq_rel);
  active_clients_gauge_.set(
      std::max(0, active_clients_.load(std::memory_order_relaxed)));
}

bool Router::dispatch_frame(Session& session, const net::FrameView& frame) {
  switch (frame.type) {
    case net::MessageType::RolloutRequest:
      if (draining_.load(std::memory_order_acquire)) {
        send_error(session, frame.request_id, frame.version,
                   net::NetError::ShuttingDown, "router is draining");
        return true;
      }
      return proxy_rollout(session, frame);
    case net::MessageType::StatsRequest:
      answer_stats(session, frame);
      return true;
    case net::MessageType::Hello:
      answer_hello(session, frame);
      return true;
    default:
      send_error(session, frame.request_id, frame.version,
                 net::NetError::Malformed,
                 "unexpected message type from client");
      return true;
  }
}

bool Router::proxy_rollout(Session& session, const net::FrameView& frame) {
  serve::RolloutRequest request;
  std::string parse_error;
  if (!net::decode_rollout_request(frame, request, parse_error)) {
    send_error(session, frame.request_id, frame.version,
               net::NetError::Malformed, parse_error);
    return true;
  }
  requests_.add();
  GNS_TRACE_SCOPE_T("router.proxy", request.trace_id);

  const int max_attempts =
      config_.max_attempts > 0 ? config_.max_attempts
                               : static_cast<int>(backends_.size());
  std::vector<Backend*> tried;
  PickOutcome outcome = PickOutcome::AllDown;
  bool saw_busy = false;
  bool saw_failure = false;
  bool saw_incapable = false;

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Backend* backend = pick_backend(request.model, tried, outcome);
    if (backend == nullptr) break;
    tried.push_back(backend);
    backend->add_inflight(1);
    inflight_gauge_.set(inflight_.fetch_add(1, std::memory_order_relaxed) +
                        1);
    const ProxyOutcome result = proxy_once(
        session, frame.request_id, frame.version, request, *backend);
    backend->add_inflight(-1);
    inflight_gauge_.set(std::max(
        0, inflight_.fetch_sub(1, std::memory_order_relaxed) - 1));

    switch (result) {
      case ProxyOutcome::Done:
        return true;
      case ProxyOutcome::ClientLost:
        return false;
      case ProxyOutcome::RetryBusy:
        saw_busy = true;
        continue;
      case ProxyOutcome::RetryDraining:
        saw_failure = true;
        continue;
      case ProxyOutcome::RetryIncapable:
        saw_incapable = true;
        continue;
      case ProxyOutcome::RetryDead:
        // The failover everything above is for: the request never started
        // streaming, so a sibling serves it and the client never knows.
        failovers_.add();
        saw_failure = true;
        continue;
      case ProxyOutcome::FatalStreamLost:
        backend_lost_.add();
        if (frame.version >= 3) {
          send_error(session, frame.request_id, frame.version,
                     net::NetError::BackendLost,
                     "backend " + backend->label() +
                         " died after streaming began; do not retry "
                         "blindly — partial frames were delivered");
        } else {
          // Pre-v3 clients do not know the code; Internal with the story.
          send_error(session, frame.request_id, frame.version,
                     net::NetError::Internal,
                     "backend lost after streaming began");
        }
        return true;
    }
  }

  if ((outcome == PickOutcome::NoBackendForModel || saw_incapable) &&
      !saw_busy && !saw_failure) {
    // Mirror what a direct server answers, so clients have one code path.
    net::WireStatus status;
    status.status = serve::JobStatus::ModelNotFound;
    status.error = "no backend serves model '" + request.model + "'";
    status.trace_id = request.trace_id;
    if (!send_to_client(session,
                        net::encode_status_reply(frame.request_id, status,
                                                 frame.version)))
      return false;
    return true;
  }

  busy_rejected_.add();
  std::string reason = saw_busy ? "every capable backend is at capacity"
                       : saw_failure
                           ? "no backend could serve the request; retry"
                           : "no healthy backend available";
  send_error(session, frame.request_id, frame.version, net::NetError::Busy,
             reason);
  return true;
}

Router::ProxyOutcome Router::proxy_once(Session& session,
                                        std::uint64_t client_request_id,
                                        std::uint8_t client_version,
                                        const serve::RolloutRequest& request,
                                        Backend& backend) {
  std::string error;
  std::unique_ptr<BackendConn> conn = backend.checkout(error);
  if (conn == nullptr) {
    evict_backend(backend, error);
    return ProxyOutcome::RetryDead;
  }
  // Placement on a never-contacted backend is optimistic; the checkout
  // above ran the handshake, so the model claim is now checkable.
  if (!backend.serves(request.model)) {
    backend.checkin(std::move(conn));
    return ProxyOutcome::RetryIncapable;
  }
  const BackendCapabilities caps = backend.capabilities();
  const std::uint64_t backend_id = conn->next_request_id();
  if (!conn->send_frame(net::encode_rollout_request(backend_id, request,
                                                    caps.wire_version))) {
    evict_backend(backend, "send to " + backend.label() + " failed");
    return ProxyOutcome::RetryDead;
  }

  bool streamed = false;
  for (;;) {
    net::FrameView frame;
    std::string read_error;
    const BackendConn::ReadStatus status =
        conn->read_frame(frame, read_error, config_.tuning.io_timeout_ms);
    if (status != BackendConn::ReadStatus::Ok) {
      evict_backend(backend, read_error);
      return streamed ? ProxyOutcome::FatalStreamLost
                      : ProxyOutcome::RetryDead;
    }
    if (frame.request_id != backend_id) {
      conn->close();
      evict_backend(backend, "backend answered an unknown request id");
      return streamed ? ProxyOutcome::FatalStreamLost
                      : ProxyOutcome::RetryDead;
    }

    std::string parse_error;
    switch (frame.type) {
      case net::MessageType::RolloutChunk: {
        net::WireChunk chunk;
        if (!net::decode_rollout_chunk(frame, chunk, parse_error)) {
          conn->close();
          evict_backend(backend, "bad chunk: " + parse_error);
          return streamed ? ProxyOutcome::FatalStreamLost
                          : ProxyOutcome::RetryDead;
        }
        if (!send_to_client(session,
                            net::encode_rollout_chunk(
                                client_request_id, chunk, client_version))) {
          // Nobody left to stream to. Closing the backend connection makes
          // the server cancel what it has not finished.
          conn->close();
          return ProxyOutcome::ClientLost;
        }
        streamed = true;
        continue;
      }
      case net::MessageType::StatusReply: {
        net::WireStatus wire_status;
        if (!net::decode_status_reply(frame, wire_status, parse_error)) {
          conn->close();
          evict_backend(backend, "bad status reply: " + parse_error);
          return streamed ? ProxyOutcome::FatalStreamLost
                          : ProxyOutcome::RetryDead;
        }
        backend.mark_healthy();
        backend.checkin(std::move(conn));
        if (!send_to_client(session,
                            net::encode_status_reply(client_request_id,
                                                     wire_status,
                                                     client_version)))
          return ProxyOutcome::ClientLost;
        return ProxyOutcome::Done;
      }
      case net::MessageType::ErrorReply: {
        net::WireError wire_error;
        if (!net::decode_error_reply(frame, wire_error, parse_error)) {
          conn->close();
          evict_backend(backend, "bad error reply: " + parse_error);
          return streamed ? ProxyOutcome::FatalStreamLost
                          : ProxyOutcome::RetryDead;
        }
        if (wire_error.code == net::NetError::Busy && !streamed) {
          // The backend is alive, just full: keep the connection, try a
          // sibling, and only surface Busy when everyone is.
          backend.checkin(std::move(conn));
          retries_.add();
          return ProxyOutcome::RetryBusy;
        }
        if (wire_error.code == net::NetError::ShuttingDown && !streamed) {
          conn->close();
          backend.set_draining(true);
          retries_.add();
          return ProxyOutcome::RetryDraining;
        }
        // Any other backend-side rejection is this request's real answer.
        backend.checkin(std::move(conn));
        if (!send_to_client(session,
                            net::encode_error_reply(client_request_id,
                                                    wire_error,
                                                    client_version)))
          return ProxyOutcome::ClientLost;
        return ProxyOutcome::Done;
      }
      default:
        conn->close();
        evict_backend(backend, "unexpected frame type from backend");
        return streamed ? ProxyOutcome::FatalStreamLost
                        : ProxyOutcome::RetryDead;
    }
  }
}

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

void Router::probe_loop() {
  // First sweep a full interval after start: placement is optimistic
  // about un-probed backends anyway, and a quiet startup keeps tests (and
  // operators' logs) deterministic.
  double since_probe_ms = 0.0;
  Clock::time_point last = Clock::now();
  while (!draining_.load(std::memory_order_acquire)) {
    const Clock::time_point now = Clock::now();
    since_probe_ms += ms_since(last, now);
    last = now;
    if (since_probe_ms < config_.probe_interval_ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      continue;
    }
    since_probe_ms = 0.0;
    for (const auto& backend : backends_) {
      if (draining_.load(std::memory_order_acquire)) return;
      probe_backend(*backend);
    }
    update_health_gauge();
  }
}

void Router::probe_backend(Backend& backend) {
  std::string error;
  if (backend.health() == BackendHealth::Evicted) {
    if (!backend.readmit_due()) return;
    // Re-admission handshakes from scratch: the peer may have restarted as
    // a different binary with different models.
    std::unique_ptr<BackendConn> conn = backend.checkout(error);
    if (conn == nullptr) {
      backend.evict();  // extends the backoff; still one eviction event
      return;
    }
    backend.mark_healthy();
    backend.checkin(std::move(conn));
    readmissions_.add();
    GNS_INFO("router: re-admitted backend " << backend.label());
    return;
  }

  std::unique_ptr<BackendConn> conn = backend.checkout(error);
  if (conn == nullptr) {
    evict_backend(backend, "probe: " + error);
    return;
  }
  probes_.add();
  const BackendCapabilities caps = backend.capabilities();
  if (caps.wire_version >= 2) {
    // The real probe: a StatsRequest with a deadline. Beyond liveness it
    // refreshes the draining flag, so an independently draining backend
    // stops receiving placements within one probe interval.
    const std::uint64_t request_id = conn->next_request_id();
    net::WireStatsRequest stats_request;
    stats_request.format = net::WireStatsRequest::kJson;
    if (!conn->send_frame(net::encode_stats_request(
            request_id, stats_request, caps.wire_version))) {
      evict_backend(backend, "probe send failed");
      return;
    }
    net::FrameView frame;
    const BackendConn::ReadStatus status =
        conn->read_frame(frame, error, config_.probe_timeout_ms);
    net::WireStatsReply reply;
    std::string parse_error;
    if (status != BackendConn::ReadStatus::Ok ||
        frame.type != net::MessageType::StatsReply ||
        frame.request_id != request_id ||
        !net::decode_stats_reply(frame, reply, parse_error)) {
      conn->close();
      evict_backend(backend,
                    "probe: " + (error.empty() ? parse_error : error));
      return;
    }
    backend.set_draining(reply.draining != 0);
  }
  // v1 peers predate stats; the fresh TCP connect above was the probe.
  backend.mark_healthy();
  backend.checkin(std::move(conn));
}

void Router::answer_stats(Session& session, const net::FrameView& frame) {
  net::WireStatsRequest request;
  std::string parse_error;
  if (!net::decode_stats_request(frame, request, parse_error)) {
    send_error(session, frame.request_id, frame.version,
               net::NetError::Malformed, parse_error);
    return;
  }
  net::WireStatsReply reply;
  reply.uptime_ms = ms_since(started_, Clock::now());
  reply.inflight = static_cast<std::uint32_t>(
      std::max(0, inflight_.load(std::memory_order_relaxed)));
  reply.queue_depth = 0;  // the router never queues; Busy is immediate
  reply.active_connections = static_cast<std::uint32_t>(
      std::max(0, active_clients_.load(std::memory_order_relaxed)));
  reply.draining = draining_.load(std::memory_order_acquire) ? 1 : 0;
  reply.format = request.format;
  reply.body = request.format == net::WireStatsRequest::kPrometheus
                   ? obs::MetricsRegistry::global().to_prometheus()
                   : obs::MetricsRegistry::global().to_json();
  (void)send_to_client(
      session, net::encode_stats_reply(frame.request_id, reply,
                                       frame.version));
}

void Router::answer_hello(Session& session, const net::FrameView& frame) {
  net::WireHello hello;
  std::string parse_error;
  if (!net::decode_hello(frame, hello, parse_error)) {
    send_error(session, frame.request_id, frame.version,
               net::NetError::Malformed, parse_error);
    return;
  }
  // Aggregate capability of the healthy fleet: union of models, summed
  // capacity. A router in front of routers works the same as one in front
  // of servers.
  net::WireHelloReply reply;
  reply.protocol_version = net::kProtocolVersion;
  reply.draining = draining_.load(std::memory_order_acquire) ? 1 : 0;
  std::set<std::string> models;
  long capacity = 0;
  long workers = 0;
  bool any_wildcard = false;
  for (const auto& backend : backends_) {
    if (backend->health() == BackendHealth::Evicted) continue;
    const BackendCapabilities caps = backend->capabilities();
    if (caps.legacy) any_wildcard = true;
    for (const std::string& model : caps.models) models.insert(model);
    capacity += backend->placement_capacity();
    workers += caps.workers;
  }
  // A legacy backend serves an unknown model set; advertising nothing
  // would under-claim, so the aggregate only lists what is known and the
  // capacity still counts the wildcard slots.
  (void)any_wildcard;
  reply.max_inflight = static_cast<std::uint32_t>(
      std::min<long>(capacity, 1L << 20));
  reply.current_inflight = static_cast<std::uint32_t>(
      std::max(0, inflight_.load(std::memory_order_relaxed)));
  reply.workers =
      static_cast<std::uint32_t>(std::min<long>(workers, 1L << 20));
  reply.models.assign(models.begin(), models.end());
  if (reply.models.size() > net::kMaxHelloModels)
    reply.models.resize(net::kMaxHelloModels);
  (void)send_to_client(
      session, net::encode_hello_reply(frame.request_id, reply,
                                       frame.version));
}

bool Router::send_to_client(Session& session,
                            const std::vector<std::uint8_t>& frame) {
  const int fd = session.fd.load(std::memory_order_acquire);
  if (fd < 0) return false;
  return send_all(fd, frame.data(), frame.size());
}

void Router::send_error(Session& session, std::uint64_t request_id,
                        std::uint8_t version, net::NetError code,
                        const std::string& message) {
  (void)send_to_client(
      session,
      net::encode_error_reply(request_id, {code, message}, version));
}

}  // namespace gns::router
