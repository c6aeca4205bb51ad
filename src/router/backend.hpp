#pragma once

/// \file backend.hpp
/// One backend of a rollout fleet, as the router sees it.
///
/// A Backend owns three things:
///  - its capability record, learned from the v3 HELLO handshake the first
///    time a link comes up (protocol version, served models, in-flight
///    capacity). A pre-v3 backend answers the HELLO with a fatal
///    BadVersion error encoded in its own version; the handshake reads
///    that version byte and falls back to conservative defaults
///    (legacy_capacity slots, wildcard model match), and the owner opens a
///    fresh link without a HELLO — so an old binary is still usable, just
///    never preferred;
///  - a pool of idle links (nonblocking, exclusively checked out) so
///    concurrent proxied requests each get their own connection without a
///    per-request TCP + HELLO round trip;
///  - its health state: Healthy until an I/O failure or probe timeout
///    evicts it, then Evicted with an exponentially growing re-admission
///    backoff until a probe handshake succeeds again.
///
/// Links never block: connect, HELLO, writes and reads advance one step
/// per readiness event of the link's socket (advance()), on the router's
/// executor. Every public method of Backend is thread-safe; a checked-out
/// Link is owned by one proxied request or probe and is not.

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/conn_engine.hpp"
#include "net/protocol.hpp"

namespace gns::router {

struct BackendAddress {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Parses "host:port" (host defaulting to 127.0.0.1 for a bare ":port" or
/// "port" spec). Returns false on a malformed spec.
[[nodiscard]] bool parse_backend_address(const std::string& spec,
                                         BackendAddress& out);

/// Knobs shared by every Backend of one router.
struct BackendTuning {
  double connect_timeout_ms = 2000.0;  ///< per TCP connect attempt
  double hello_timeout_ms = 2000.0;    ///< handshake reply deadline
  /// Per-frame read deadline while proxying a rollout, and how long a
  /// client may leave its stream unread before it is closed. Generous: a
  /// cold backend may legitimately compute for a long time before chunk
  /// one.
  double io_timeout_ms = 120'000.0;
  /// In-flight slots granted to a pre-v3 backend that cannot advertise
  /// its capacity. Deliberately small: old binaries get correctness, new
  /// ones get throughput.
  int legacy_capacity = 1;
  /// Eviction backoff: first re-admission attempt after readmit_backoff_ms,
  /// doubling per consecutive failure up to readmit_backoff_max_ms.
  double readmit_backoff_ms = 250.0;
  double readmit_backoff_max_ms = 5000.0;
};

/// What the HELLO handshake (or its legacy fallback) learned.
struct BackendCapabilities {
  std::uint8_t wire_version = net::kProtocolVersion;  ///< version we speak
  bool legacy = false;    ///< pre-v3 peer: defaults below, wildcard models
  bool draining = false;  ///< peer said it is draining (HELLO or probe)
  std::vector<std::string> models;  ///< served models; empty+legacy = any
  int capacity = 0;                 ///< max in-flight the router will place
  int workers = 0;                  ///< peer's scheduler workers (hint)
};

enum class BackendHealth : std::uint8_t {
  Unknown,  ///< never handshaked yet; optimistically placeable
  Healthy,
  Evicted,
};

/// One nonblocking connection to a backend.
struct Link {
  enum class Stage : std::uint8_t {
    Connecting,  ///< TCP connect in flight
    Hello,       ///< HELLO sent, its reply awaited
    Open,        ///< ready for requests
  };

  [[nodiscard]] short events() const {  ///< what the watch waits for
    if (stage == Stage::Connecting) return POLLOUT;
    return static_cast<short>(POLLIN | (ch.wqueue.empty() ? 0 : POLLOUT));
  }

  net::Channel ch;
  Stage stage = Stage::Connecting;
  std::uint64_t next_request_id = 1;  ///< the wire scopes ids per connection
  /// The current step fails once this passes: the connect or HELLO
  /// timeout, or the owner's reply deadline once Open.
  std::chrono::steady_clock::time_point deadline{};
  int watch = -1;  ///< the owner's bridge watch; -1 when none
  /// A new socket since the owner last watched: it must watch afresh.
  bool reconnected = false;
  bool pooled = false;  ///< from the pool: the next advance() says Ready
};

class Backend {
 public:
  /// What advance() made of a link's readiness.
  enum class Io {
    Wait,    ///< nothing more until the next event or the deadline
    Ready,   ///< the link is Open and idle: send a request
    Frame,   ///< a reply frame arrived
    Failed,  ///< socket error, bad handshake or deadline; `error` says why
  };

  Backend(BackendAddress address, BackendTuning tuning);

  [[nodiscard]] const BackendAddress& address() const { return address_; }
  [[nodiscard]] std::string label() const {
    return address_.host + ":" + std::to_string(address_.port);
  }

  /// An idle pooled link (Open), or a fresh one whose connect is under
  /// way (a HELLO follows unless the peer is known pre-v3). nullptr with
  /// `error` set when the connect fails at once — the caller decides
  /// whether that evicts.
  [[nodiscard]] std::unique_ptr<Link> checkout(std::string& error);
  /// Always a fresh link, as checkout() makes when the pool is empty.
  [[nodiscard]] std::unique_ptr<Link> connect(std::string& error);
  /// Returns an unwatched link to the pool; one not at a clean frame
  /// boundary is closed instead.
  void checkin(std::unique_ptr<Link> link);
  /// Drives `link` after `revents` (0 for none): completes its connect,
  /// runs the HELLO (reconnecting without one to a pre-v3 peer, which
  /// closes on it), writes what is queued and reads. Ready comes once per
  /// checkout, when the link can take a request; a Frame borrows the
  /// link's buffer until the next call.
  [[nodiscard]] Io advance(Link& link, short revents, net::FrameView& frame,
                           std::string& error);

  [[nodiscard]] BackendCapabilities capabilities() const;
  /// Least-in-flight placement asks this: does the backend serve `model`?
  /// True for any model while capabilities are unknown or legacy (the
  /// request itself is the probe that finds out).
  [[nodiscard]] bool serves(const std::string& model) const;
  /// Capacity for placement: advertised max_inflight, legacy_capacity for
  /// legacy peers, unlimited while unknown.
  [[nodiscard]] int placement_capacity() const;
  void set_draining(bool draining);

  [[nodiscard]] int inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  void add_inflight(int delta) {
    inflight_.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] BackendHealth health() const;
  /// Probe handshake succeeded (or a proxied request completed): resets
  /// the eviction backoff.
  void mark_healthy();
  /// I/O failure or probe timeout: close the idle pool, extend the
  /// re-admission backoff.
  void evict();
  /// Evicted and past the backoff deadline — a probe should try a
  /// re-admission handshake now.
  [[nodiscard]] bool readmit_due() const;

 private:
  /// (Re)connects `link` from scratch, nonblocking.
  [[nodiscard]] bool connect(Link& link, std::string& error);
  /// The HELLO's answer: capabilities, or the legacy fallback.
  [[nodiscard]] Io handshake(Link& link, const net::FrameView& frame,
                             std::string& error);

  const BackendAddress address_;
  const BackendTuning tuning_;

  mutable std::mutex mutex_;
  BackendCapabilities caps_;
  bool caps_known_ = false;
  BackendHealth health_ = BackendHealth::Unknown;
  double backoff_ms_;
  std::chrono::steady_clock::time_point evicted_until_{};
  std::vector<std::unique_ptr<Link>> idle_;

  std::atomic<int> inflight_{0};
};

}  // namespace gns::router
