#include "router/backend.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/logging.hpp"
#include "util/timer.hpp"

namespace gns::router {

namespace {

using Clock = std::chrono::steady_clock;

/// Idle links kept per backend; more just close on checkin.
constexpr std::size_t kMaxIdleLinks = 8;

}  // namespace

bool parse_backend_address(const std::string& spec, BackendAddress& out) {
  std::string host = "127.0.0.1";
  std::string port_str = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) host = spec.substr(0, colon);
    port_str = spec.substr(colon + 1);
  }
  if (port_str.empty() || host.empty()) return false;
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port <= 0 || port > 65535)
    return false;
  out.host = host;
  out.port = static_cast<int>(port);
  return true;
}

// ---- Backend ---------------------------------------------------------------

Backend::Backend(BackendAddress address, BackendTuning tuning)
    : address_(std::move(address)),
      tuning_(tuning),
      backoff_ms_(tuning.readmit_backoff_ms) {}

std::unique_ptr<Link> Backend::checkout(std::string& error) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!idle_.empty()) {
      std::unique_ptr<Link> link = std::move(idle_.back());
      idle_.pop_back();
      return link;
    }
  }
  return connect(error);
}

std::unique_ptr<Link> Backend::connect(std::string& error) {
  auto link = std::make_unique<Link>();
  if (!connect(*link, error)) return nullptr;
  return link;
}

bool Backend::connect(Link& link, std::string& error) {
  int err = 0;
  link.ch.close();
  link.ch.fd = net::connect_tcp(address_.host, address_.port, err);
  link.stage = Link::Stage::Connecting;
  link.deadline = after_ms(Clock::now(), tuning_.connect_timeout_ms);
  link.reconnected = true;
  if (link.ch.fd < 0) error = "connect to " + label() + " failed";
  return link.ch.fd >= 0;
}

void Backend::checkin(std::unique_ptr<Link> link) {
  if (!link || link->ch.fd < 0 || link->stage != Link::Stage::Open ||
      link->ch.rbuf.unread() != 0 || !link->ch.wqueue.empty())
    return;
  link->watch = -1;
  link->pooled = true;
  std::lock_guard<std::mutex> lock(mutex_);
  // An eviction between checkout and checkin closed the pool; a stale
  // link must not outlive that decision.
  if (health_ == BackendHealth::Evicted) return;
  if (idle_.size() < kMaxIdleLinks) idle_.push_back(std::move(link));
}

Backend::Io Backend::advance(Link& link, short revents,
                             net::FrameView& frame, std::string& error) {
  if (link.pooled) {
    link.pooled = false;
    return Io::Ready;
  }
  if (link.stage == Link::Stage::Connecting &&
      (revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(link.ch.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      error = "connect to " + label() + " failed";
      return Io::Failed;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    // Legacy peers never get a HELLO: it would kill the link all over
    // again. Version upgrades happen through re-admission after an
    // eviction, which forgets the capabilities.
    if (caps_known_ && caps_.legacy) {
      link.stage = Link::Stage::Open;
      return Io::Ready;
    }
    lock.unlock();
    net::WireHello hello;
    hello.kind = net::WireHello::kRouter;
    link.ch.push(net::encode_hello(link.next_request_id++, hello));
    link.stage = Link::Stage::Hello;
    link.deadline = after_ms(Clock::now(), tuning_.hello_timeout_ms);
    revents = 0;
  }
  if (link.stage != Link::Stage::Connecting) {
    if (link.ch.flush() < 0) {
      error = "send to " + label() + " failed";
      return Io::Failed;
    }
    for (;;) {
      net::DecodeError decode_error;
      const net::DecodeStatus status = link.ch.rbuf.next(frame, decode_error);
      if (status == net::DecodeStatus::Error) {
        error = "protocol error from " + label() + ": " + decode_error.message;
        return Io::Failed;
      }
      if (status == net::DecodeStatus::Ok) {
        if (link.stage == Link::Stage::Open) return Io::Frame;
        const Io io = handshake(link, frame, error);
        if (io != Io::Wait) return io;
        break;  // a legacy peer: reconnecting
      }
      if ((revents & (POLLIN | POLLERR | POLLHUP)) == 0) break;
      revents = 0;
      const ssize_t n = link.ch.read();
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        error = n == 0 ? label() + " closed the connection"
                       : "recv from " + label() + " failed: " +
                             std::strerror(errno);
        return Io::Failed;
      }
    }
  }
  if (Clock::now() < link.deadline) return Io::Wait;
  error = link.stage == Link::Stage::Connecting
              ? "connect to " + label() + " timed out"
          : link.stage == Link::Stage::Hello
              ? "hello to " + label() + " got no reply"
              : "no reply frame from " + label() + " in time";
  return Io::Failed;
}

Backend::Io Backend::handshake(Link& link, const net::FrameView& frame,
                               std::string& error) {
  std::string parse_error;
  if (frame.type == net::MessageType::HelloReply) {
    net::WireHelloReply reply;
    if (!net::decode_hello_reply(frame, reply, parse_error)) {
      error = "bad hello reply from " + label() + ": " + parse_error;
      return Io::Failed;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    caps_.wire_version = static_cast<std::uint8_t>(
        std::min<int>(net::kProtocolVersion, reply.protocol_version));
    caps_.legacy = false;
    caps_.draining = reply.draining != 0;
    caps_.models.assign(reply.models.begin(), reply.models.end());
    caps_.capacity = static_cast<int>(
        std::min<std::uint32_t>(reply.max_inflight, 1u << 20));
    caps_.workers = static_cast<int>(reply.workers);
    caps_known_ = true;
    link.stage = Link::Stage::Open;
    return Io::Ready;
  }
  net::WireError wire_error;
  if (frame.type != net::MessageType::ErrorReply ||
      !net::decode_error_reply(frame, wire_error, parse_error) ||
      (wire_error.code != net::NetError::BadVersion &&
       wire_error.code != net::NetError::BadType)) {
    error = "hello to " + label() + " rejected: " +
            (frame.type == net::MessageType::ErrorReply ? wire_error.message
                                                        : "unexpected reply");
    return Io::Failed;
  }
  // A pre-v3 peer. The error frame's version byte is the newest protocol
  // it speaks (servers answer in their own version when the peer's is
  // unusable). BadVersion is fatal on the peer's side — it closed this
  // link — so reconnect, sans hello.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    caps_.wire_version = static_cast<std::uint8_t>(
        std::min<int>(net::kProtocolVersion, frame.version));
    caps_.legacy = true;
    caps_.draining = false;
    caps_.models.clear();
    caps_.capacity = std::max(1, tuning_.legacy_capacity);
    caps_.workers = 0;
    caps_known_ = true;
  }
  GNS_INFO("router: backend " << label() << " is pre-v3 (speaks v"
                              << static_cast<int>(frame.version)
                              << "); using conservative defaults");
  if (!connect(link, error)) return Io::Failed;
  return Io::Wait;
}

BackendCapabilities Backend::capabilities() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return caps_;
}

bool Backend::serves(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!caps_known_ || caps_.legacy) return true;  // optimistic wildcard
  return std::find(caps_.models.begin(), caps_.models.end(), model) !=
         caps_.models.end();
}

int Backend::placement_capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!caps_known_) return 1 << 20;  // effectively unlimited until known
  return std::max(1, caps_.capacity);
}

void Backend::set_draining(bool draining) {
  std::lock_guard<std::mutex> lock(mutex_);
  caps_.draining = draining;
}

BackendHealth Backend::health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return health_;
}

void Backend::mark_healthy() {
  std::lock_guard<std::mutex> lock(mutex_);
  health_ = BackendHealth::Healthy;
  backoff_ms_ = tuning_.readmit_backoff_ms;
}

void Backend::evict() {
  std::vector<std::unique_ptr<Link>> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    health_ = BackendHealth::Evicted;
    evicted_until_ = after_ms(Clock::now(), backoff_ms_);
    backoff_ms_ = std::min(backoff_ms_ * 2.0, tuning_.readmit_backoff_max_ms);
    // A fresh re-admission must also re-handshake: the peer may come back
    // as a different binary (new models, new version).
    caps_known_ = false;
    doomed.swap(idle_);
  }
  // Closed outside the lock; ~Link does the work.
}

bool Backend::readmit_due() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return health_ == BackendHealth::Evicted && Clock::now() >= evicted_until_;
}

}  // namespace gns::router
