#pragma once

/// \file backend.hpp
/// One backend of a rollout fleet, as the router sees it.
///
/// A Backend owns three things:
///  - its capability record, learned from the v3 HELLO handshake the first
///    time a connection comes up (protocol version, served models,
///    in-flight capacity). A pre-v3 backend answers the HELLO with a fatal
///    BadVersion error encoded in its own version; the handshake reads
///    that version byte, reconnects, and falls back to conservative
///    defaults (legacy_capacity slots, wildcard model match) — so an old
///    binary is still usable, just never preferred;
///  - a pool of idle connections (blocking net::FrameConns, exclusively
///    checked out) so concurrent proxied requests each get their own
///    connection without a per-request TCP + HELLO round trip;
///  - its health state: Healthy until an I/O failure or probe timeout
///    evicts it, then Evicted with an exponentially growing re-admission
///    backoff until a probe handshake succeeds again.
///
/// Thread safety: every public method is safe to call from any router
/// thread. A checked-out connection is exclusively owned by its caller and
/// is NOT thread-safe itself.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"

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
  /// Per-frame read deadline while proxying a rollout. Generous: a cold
  /// backend may legitimately compute for a long time before chunk one.
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

[[nodiscard]] inline const char* to_string(BackendHealth h) {
  switch (h) {
    case BackendHealth::Unknown: return "unknown";
    case BackendHealth::Healthy: return "healthy";
    case BackendHealth::Evicted: return "evicted";
  }
  return "?";
}

class Backend {
 public:
  Backend(BackendAddress address, BackendTuning tuning);

  [[nodiscard]] const BackendAddress& address() const { return address_; }
  [[nodiscard]] std::string label() const {
    return address_.host + ":" + std::to_string(address_.port);
  }

  /// Checks out an exclusive connection: an idle pooled one, or a fresh
  /// connect (+ HELLO handshake when capabilities are not yet known).
  /// nullptr with `error` set on failure — the caller decides whether that
  /// evicts. Never blocks longer than connect+hello timeouts.
  [[nodiscard]] std::unique_ptr<net::FrameConn> checkout(std::string& error);
  /// Returns a connection that is still in a clean frame boundary (a
  /// half-read stream must be closed instead, not checked in).
  void checkin(std::unique_ptr<net::FrameConn> conn);

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
  /// Evicted and past the backoff deadline — the probe loop should try a
  /// re-admission handshake now.
  [[nodiscard]] bool readmit_due() const;

 private:
  /// HELLO on a fresh connection; fills caps under mutex_. On a legacy
  /// BadVersion answer, reconnects (the peer closed) without a hello.
  [[nodiscard]] bool handshake(std::unique_ptr<net::FrameConn>& conn,
                               std::string& error);

  const BackendAddress address_;
  const BackendTuning tuning_;

  mutable std::mutex mutex_;
  BackendCapabilities caps_;
  bool caps_known_ = false;
  BackendHealth health_ = BackendHealth::Unknown;
  double backoff_ms_;
  std::chrono::steady_clock::time_point evicted_until_{};
  std::vector<std::unique_ptr<net::FrameConn>> idle_;

  std::atomic<int> inflight_{0};
};

}  // namespace gns::router
