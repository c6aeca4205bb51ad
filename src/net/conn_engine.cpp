#include "net/conn_engine.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace gns::net {

namespace {

using Clock = std::chrono::steady_clock;

obs::Counter& counter(const std::string& prefix, const std::string& name) {
  return obs::MetricsRegistry::global().counter(prefix + name);
}

}  // namespace

// ---- Channel ---------------------------------------------------------------

ssize_t Channel::read() {
  const ssize_t n = rbuf.read_from(fd);
  if (n > 0) last_activity = Clock::now();
  return n;
}

ssize_t Channel::flush(const std::function<void(const WriteItem&)>& sent) {
  ssize_t total = 0;
  while (!wqueue.empty()) {
    const WriteItem& front = wqueue.front();
    const ssize_t n = ::send(fd, front.bytes.data() + woff,
                             front.bytes.size() - woff, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return -1;
    if (n < 0) break;  // kernel buffer full: wait for POLLOUT
    woff += static_cast<std::size_t>(n);
    total += n;
    if (woff < front.bytes.size()) continue;
    if (sent) sent(front);
    wqueue.pop_front();
    woff = 0;
  }
  const Clock::time_point now = Clock::now();
  if (total > 0) last_activity = now;
  // A stall starts at the first flush that leaves bytes behind and
  // restarts at every write progress.
  if (total > 0 || !stalled) stalled_since = now;
  stalled = !wqueue.empty();
  return total;
}

void Channel::close() {
  if (fd >= 0) ::close(fd);
  fd = -1;
  rbuf.clear();
  wqueue.clear();
  woff = 0;
  stalled = false;
}

// ---- ConnEngine ------------------------------------------------------------

ConnEngine::ConnEngine(ConnHandler& handler, ConnLimits limits)
    : handler_(handler),
      limits_(std::move(limits)),
      accepted_(counter(limits_.metrics_prefix, ".accepted")),
      frames_rx_(counter(limits_.metrics_prefix, ".frames_rx")),
      frames_tx_(counter(limits_.metrics_prefix, ".frames_tx")),
      bytes_rx_(counter(limits_.metrics_prefix, ".bytes_rx")),
      bytes_tx_(counter(limits_.metrics_prefix, ".bytes_tx")),
      decode_errors_(counter(limits_.metrics_prefix, ".decode_errors")),
      timeouts_(counter(limits_.metrics_prefix, ".timeouts")),
      active_gauge_(obs::MetricsRegistry::global().gauge(
          limits_.metrics_prefix + ".active_connections")) {
  for (std::uint8_t code = static_cast<std::uint8_t>(NetError::Busy);
       code <= static_cast<std::uint8_t>(NetError::BackendLost); ++code) {
    reject_counters_[code] = &counter(
        limits_.metrics_prefix,
        ".reject." + std::string(to_string(static_cast<NetError>(code))));
  }
}

bool ConnEngine::start(const std::string& host, int port) {
  listen_fd_ = listen_tcp(host, port, port_);
  if (listen_fd_ < 0) return false;
  bridge_ = std::make_unique<exec::IoBridge>(exec::Executor::global());
  // The first accept task can run before watch() returns; it re-arms
  // through listen_watch_, which it reads under conns_mutex_.
  std::lock_guard<std::mutex> lock(conns_mutex_);
  listen_watch_ =
      bridge_->watch(listen_fd_, POLLIN, [this](short) { accept_ready(); });
  return true;
}

void ConnEngine::stop() {
  if (bridge_ == nullptr || stopped_) return;
  stopped_ = true;
  // 1. Stop accepting. The listener fd stays open until the bridge stops:
  //    an accept task already submitted may still be using it.
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    draining_.store(true, std::memory_order_release);
    bridge_->unwatch(listen_watch_);
  }
  // 2. Busy connections finish their work and close once quiet; quiet
  //    ones that see no event stay open (answering ShuttingDown) until 3.
  //    A connection closes in a service pass, which signals drained_.
  {
    std::unique_lock<std::mutex> lock(conns_mutex_);
    const auto all_quiet = [this] {
      return std::all_of(conns_.begin(), conns_.end(), [this](const auto& e) {
        std::lock_guard<std::mutex> lk(e.second->m);
        return quiet(*e.second);
      });
    };
    if (!drained_.wait_until(
            lock, after_ms(Clock::now(), limits_.drain_timeout_ms), all_quiet))
      GNS_WARN(limits_.metrics_prefix
               << ": drain timeout, closing busy connections");
  }
  // 3. Close what is left.
  std::map<std::uint64_t, std::shared_ptr<Conn>> rest;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    rest.swap(conns_);
  }
  for (const auto& entry : rest) {
    std::lock_guard<std::mutex> lk(entry.second->m);
    if (!entry.second->closed) close(*entry.second);
  }
  // 4. Quiesce: the bridge joins its poller and drains its callback tasks;
  //    deadline timers see closed connections and return.
  bridge_->stop();
  timers_.wait();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void ConnEngine::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;  // EAGAIN or a transient error: back to the poller
    if (active() >= limits_.max_connections || !set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    set_nodelay(fd);
    std::shared_ptr<Conn> conn = handler_.make_conn();
    conn->fd = fd;
    conn->peer_version = limits_.max_version;
    std::lock_guard<std::mutex> lock(conns_mutex_);
    if (draining()) return;  // refused: ~Channel closes fd
    accepted_.add();
    active_gauge_.set(active_.fetch_add(1, std::memory_order_relaxed) + 1);
    conn->key_ = next_key_++;
    conns_[conn->key_] = conn;
    // Registered under conn->m: the first event can run on another worker
    // before watch() returns, and it re-arms through watch_.
    std::lock_guard<std::mutex> lk(conn->m);
    conn->watch_ = bridge_->watch(
        fd, POLLIN, [this, conn](short re) { service(conn, re); });
    // The idle deadline runs from accept: a peer that never sends is
    // closed too.
    arm(conn, timeout(*conn));
  }
  std::lock_guard<std::mutex> lock(conns_mutex_);
  if (!draining()) bridge_->rearm(listen_watch_, POLLIN);
}

void ConnEngine::service(const std::shared_ptr<Conn>& conn, short revents,
                         const std::function<void(Conn&)>& first) {
  {
    std::lock_guard<std::mutex> lock(conn->m);
    Conn& c = *conn;
    if (c.closed) return;
    if (first) first(c);
    bool alive = (revents & (POLLERR | POLLHUP | POLLNVAL)) == 0;
    if (alive && (revents & POLLIN)) {
      GNS_TRACE_SCOPE("net.conn.read");
      const ssize_t n = c.read();
      if (n > 0) bytes_rx_.add(static_cast<std::uint64_t>(n));
      alive = n > 0 || (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
    }
    Clock::time_point due = Clock::time_point::max();
    while (alive) {
      decode(c);
      due = handler_.pump(c);
      const bool queued = !c.wqueue.empty();
      alive = flush(c);
      if (!alive || c.close_after_flush) break;
      // Go round again when the pump can: a handler holding frames back
      // streams on once its queue drains, and one that finished a request
      // takes the frames it held.
      if (handler_.accepting(c) ? c.has_partial || c.rbuf.unread() == 0
                                : !queued || !c.wqueue.empty())
        break;
    }
    if (alive && c.close_after_flush && c.wqueue.empty()) alive = false;

    // Drain exit: once quiet, a connection closes itself (stop() waits).
    if (alive && draining() && quiet(c)) alive = false;
    const Clock::time_point timeout_at = timeout(c);
    if (alive && Clock::now() >= timeout_at) {
      timeouts_.add();
      alive = false;
    }

    if (alive) {
      short events = handler_.accepting(c) ? POLLIN : 0;
      if (!c.wqueue.empty()) events |= POLLOUT;
      bridge_->rearm(c.watch_, events);
      arm(conn, std::min(due, timeout_at));
      handler_.serviced(c);
      return;
    }
    close(c);
  }
  // conn->m is released: conns_mutex_ never nests inside it.
  std::lock_guard<std::mutex> lock(conns_mutex_);
  conns_.erase(conn->key_);
  if (draining()) drained_.notify_all();
}

void ConnEngine::decode(Conn& c) {
  GNS_TRACE_SCOPE("net.conn.decode");
  while (!c.close_after_flush && handler_.accepting(c)) {
    if (c.rbuf.unread() == 0) {
      c.has_partial = false;
      return;
    }
    FrameView frame;
    DecodeError error;
    const DecodeStatus status = c.rbuf.next(frame, error);
    if (status == DecodeStatus::NeedMore) {
      if (!c.has_partial) {
        c.has_partial = true;
        c.partial_since = Clock::now();
      }
      return;
    }
    const double buffered_ms =
        c.has_partial ? ms_since(c.partial_since, Clock::now()) : 0.0;
    c.has_partial = false;
    if (status == DecodeStatus::Error) {
      decode_errors_.add();
      push_error(c, error.request_id, error.code, error.message);
      if (error.fatal) {
        // Framing is lost: discard the buffer, close once the reply is out.
        c.rbuf.skip(c.rbuf.unread());
        c.close_after_flush = true;
        return;
      }
      c.rbuf.skip(error.skip_bytes);
      continue;
    }
    // A frame above the admitted version is what an older binary would
    // call BadVersion: fatal. The reply goes out in the engine's own
    // version — the router reads that byte to learn what a backend speaks.
    if (frame.version > limits_.max_version) {
      decode_errors_.add();
      push_error(c, frame.request_id, NetError::BadVersion,
                 "unsupported protocol version " +
                     std::to_string(frame.version));
      c.rbuf.skip(c.rbuf.unread());
      c.close_after_flush = true;
      return;
    }
    frames_rx_.add();
    c.peer_version = frame.version;
    handler_.on_frame(c, frame, buffered_ms);
  }
}

void ConnEngine::push(Conn& conn, std::vector<std::uint8_t> bytes,
                      bool terminal, std::uint64_t trace_id) {
  WriteItem item;
  item.bytes = std::move(bytes);
  item.terminal = terminal;
  item.trace_id = trace_id;
  if (terminal) item.enqueued_ns = obs::trace_now_ns();
  conn.wqueue.push_back(std::move(item));
  frames_tx_.add();
}

void ConnEngine::push_error(Conn& conn, std::uint64_t request_id,
                            NetError code, const std::string& message) {
  const auto index = static_cast<std::size_t>(code);
  if (index < reject_counters_.size() && reject_counters_[index] != nullptr)
    reject_counters_[index]->add();
  push(conn, encode_error_reply(request_id, {code, message},
                                conn.peer_version));
}

bool ConnEngine::push_stats(Conn& conn, const FrameView& frame,
                            double uptime_ms, int inflight, int queue_depth) {
  WireStatsRequest request;
  std::string parse_error;
  if (!decode_stats_request(frame, request, parse_error)) {
    push_error(conn, frame.request_id, NetError::Malformed, parse_error);
    return false;
  }
  // Answered even while draining: watching a drain finish is exactly what
  // a live scrape is for.
  WireStatsReply reply;
  reply.uptime_ms = uptime_ms;
  reply.inflight = static_cast<std::uint32_t>(std::max(0, inflight));
  reply.queue_depth = static_cast<std::uint32_t>(std::max(0, queue_depth));
  reply.active_connections = static_cast<std::uint32_t>(std::max(0, active()));
  reply.draining = draining() ? 1 : 0;
  reply.format = request.format;
  reply.body = request.format == WireStatsRequest::kPrometheus
                   ? obs::MetricsRegistry::global().to_prometheus()
                   : obs::MetricsRegistry::global().to_json();
  push(conn, encode_stats_reply(frame.request_id, reply, frame.version));
  return true;
}

bool ConnEngine::flush(Conn& conn) {
  if (conn.wqueue.empty()) return !conn.failed;
  GNS_TRACE_SCOPE("net.conn.write");
  const ssize_t n = conn.flush([this](const WriteItem& item) {
    if (item.terminal && item.enqueued_ns > 0) handler_.on_sent(item);
  });
  if (n > 0) bytes_tx_.add(static_cast<std::uint64_t>(n));
  if (n < 0) conn.failed = true;
  return !conn.failed;
}

bool ConnEngine::quiet(const Conn& c) const {
  return !handler_.busy(c) && c.wqueue.empty();
}

ConnEngine::Clock::time_point ConnEngine::timeout(const Conn& c) const {
  Clock::time_point due = Clock::time_point::max();
  if (limits_.idle_timeout_ms > 0 && !c.has_partial && quiet(c))
    due = std::min(due, after_ms(c.last_activity, limits_.idle_timeout_ms));
  if (limits_.read_timeout_ms > 0 && c.has_partial)
    due = std::min(due, after_ms(c.partial_since, limits_.read_timeout_ms));
  if (limits_.write_timeout_ms > 0 && c.stalled)
    due = std::min(due, after_ms(c.stalled_since, limits_.write_timeout_ms));
  return due;
}

void ConnEngine::arm(const std::shared_ptr<Conn>& conn, Clock::time_point due) {
  if (due == Clock::time_point::max()) return;
  if (conn->timer_ != 0) {
    if (conn->timer_due_ <= due) return;  // fires first; its pass re-arms
    if (!timers_.cancel(conn->timer_)) return;  // firing: same
  }
  conn->timer_due_ = due;
  conn->timer_ = timers_.schedule_at(due, [this, conn] {
    {
      std::lock_guard<std::mutex> lk(conn->m);
      conn->timer_ = 0;
    }
    service(conn, 0);
  });
}

void ConnEngine::close(Conn& c) {
  c.closed = true;
  if (c.timer_ != 0) timers_.cancel(c.timer_);
  c.timer_ = 0;
  bridge_->unwatch(c.watch_);
  handler_.on_close(c);
  c.Channel::close();
  active_gauge_.set(
      std::max(0, active_.fetch_sub(1, std::memory_order_relaxed) - 1));
}

}  // namespace gns::net
