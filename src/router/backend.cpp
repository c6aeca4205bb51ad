#include "router/backend.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/logging.hpp"

namespace gns::router {

namespace {

using Clock = std::chrono::steady_clock;

/// Idle connections kept per backend; more just close on checkin.
constexpr std::size_t kMaxIdleConns = 8;

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

std::unique_ptr<net::FrameConn> Backend::checkout(std::string& error) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!idle_.empty()) {
      std::unique_ptr<net::FrameConn> conn = std::move(idle_.back());
      idle_.pop_back();
      return conn;
    }
  }
  auto conn = std::make_unique<net::FrameConn>();
  if (!conn->connect(address_.host, address_.port,
                     tuning_.connect_timeout_ms)) {
    error = "connect to " + label() + " failed";
    return nullptr;
  }
  if (!handshake(conn, error)) return nullptr;
  return conn;
}

void Backend::checkin(std::unique_ptr<net::FrameConn> conn) {
  if (!conn || !conn->connected()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  // An eviction between checkout and checkin closed the pool; a stale
  // connection must not outlive that decision.
  if (health_ == BackendHealth::Evicted) return;
  if (idle_.size() < kMaxIdleConns) idle_.push_back(std::move(conn));
}

bool Backend::handshake(std::unique_ptr<net::FrameConn>& conn,
                        std::string& error) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Legacy peers never re-handshake: the HELLO would kill the fresh
    // connection all over again. Version upgrades happen via the probe
    // loop's re-admission path after an eviction.
    if (caps_known_ && caps_.legacy) return true;
  }

  net::WireHello hello;
  hello.kind = net::WireHello::kRouter;
  const std::uint64_t request_id = conn->next_request_id();
  if (!conn->send_frame(net::encode_hello(request_id, hello))) {
    error = "hello send to " + label() + " failed";
    return false;
  }
  net::FrameView frame;
  if (conn->read_frame(frame, error, tuning_.hello_timeout_ms) !=
      net::FrameConn::ReadStatus::Ok) {
    if (error.empty()) error = "hello to " + label() + " got no reply";
    return false;
  }

  std::string parse_error;
  if (frame.type == net::MessageType::HelloReply) {
    net::WireHelloReply reply;
    if (!net::decode_hello_reply(frame, reply, parse_error)) {
      error = "bad hello reply from " + label() + ": " + parse_error;
      return false;
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
    return true;
  }
  if (frame.type == net::MessageType::ErrorReply) {
    net::WireError wire_error;
    if (net::decode_error_reply(frame, wire_error, parse_error) &&
        (wire_error.code == net::NetError::BadVersion ||
         wire_error.code == net::NetError::BadType)) {
      // A pre-v3 peer. The error frame's version byte is the newest
      // protocol it speaks (servers answer in their own version when the
      // peer's is unusable). BadVersion is fatal on the peer's side — it
      // closed this connection — so reconnect silently, sans hello.
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
      if (!conn->connect(address_.host, address_.port,
                         tuning_.connect_timeout_ms)) {
        error = "reconnect to legacy backend " + label() + " failed";
        return false;
      }
      return true;
    }
    error = "hello to " + label() + " rejected: " + wire_error.message;
    return false;
  }
  error = "unexpected reply type to hello from " + label();
  return false;
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
  std::vector<std::unique_ptr<net::FrameConn>> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    health_ = BackendHealth::Evicted;
    evicted_until_ =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               backoff_ms_));
    backoff_ms_ = std::min(backoff_ms_ * 2.0, tuning_.readmit_backoff_max_ms);
    // A fresh re-admission must also re-handshake: the peer may come back
    // as a different binary (new models, new version).
    caps_known_ = false;
    doomed.swap(idle_);
  }
  // Closed outside the lock; ~FrameConn does the work.
}

bool Backend::readmit_due() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return health_ == BackendHealth::Evicted && Clock::now() >= evicted_until_;
}

}  // namespace gns::router
