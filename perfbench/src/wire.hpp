#pragma once

/// \file wire.hpp
/// The benchmark's own load generator: one poll()-driven thread over at
/// most four nonblocking loopback connections, speaking the wire protocol
/// through net/protocol's encoders and decoders (not net::Client), so it
/// can see when each RolloutChunk arrives.
///
/// Open loop: requests are sent when due, whatever is outstanding, and
/// timed from their due time. Closed loop: each connection is one caller
/// that sends its next request as soon as the previous reply is complete.
///
/// Replies are checked as they stream: chunk order and frame sizes,
/// finite and in-domain coordinates, and an FNV-1a digest of the frame
/// bytes that the output gate later compares with a direct in-process
/// rollout of the same request.

#include <cstdint>
#include <functional>
#include <vector>

#include "harness.hpp"
#include "net/protocol.hpp"
#include "util/hash.hpp"

namespace perfbench {

/// One request of the workload's pool, pre-encoded with request id 0.
struct PooledRequest {
  std::vector<std::uint8_t> frame;  ///< encoded kRolloutRequest
  int steps = 0;
  int particles = 0;
  double limit_ms = 0.0;
};

struct WireOutcome {
  Outcome timing;  ///< ok stays false until the output gate passes
  int pool_index = -1;
  bool transport_ok = false;
  bool is_net_error = false;
  gns::net::NetError net_error = gns::net::NetError::Internal;
  gns::serve::JobStatus status = gns::serve::JobStatus::ExecutionError;
  gns::serve::CacheOutcome cache_outcome = gns::serve::CacheOutcome::None;
  gns::serve::PhaseTimeline phases;
  bool stream_ok = true;  ///< chunk order, sizes, finite, in-domain
  gns::Fnv1a digest;  ///< running digest of the streamed frame bytes
  std::vector<double> chunk_gaps_ms;
};

/// Feature domain a served coordinate must stay inside: the model's
/// [domain_lo, domain_hi] box widened by half a connectivity radius, the
/// slack within which the rollout cell list still indexes a particle and
/// the boundary features still describe it.
struct Domain {
  double lo[2] = {0.0, 0.0};
  double hi[2] = {1.0, 0.5};
  [[nodiscard]] bool contains(const double* xy, std::size_t n) const;
};

class WireLoad {
 public:
  WireLoad(int port, int connections, const std::vector<PooledRequest>& pool,
           Domain domain);
  ~WireLoad();
  WireLoad(const WireLoad&) = delete;
  WireLoad& operator=(const WireLoad&) = delete;

  /// Opens the connections; false when any connect fails.
  [[nodiscard]] bool connect();

  /// Sends pool[requests[i]] at due[i] (open loop) and waits for every
  /// reply, up to `drain_s` after the last due time.
  std::vector<WireOutcome> run_open(const std::vector<std::int64_t>& due,
                                    const std::vector<int>& requests,
                                    double drain_s = 30.0);

  /// Closed loop: every connection is one caller; caller c sends
  /// next(c) until `seconds` have passed, then the outstanding replies
  /// drain. Requests are timed from when they were sent.
  std::vector<WireOutcome> run_closed(double seconds,
                                      const std::function<int(int)>& next,
                                      double drain_s = 30.0);

 private:
  struct Conn;
  /// Shared poll loop. `due`/`requests` drive the open loop; `next` the
  /// closed one.
  std::vector<WireOutcome> run(const std::vector<std::int64_t>* due,
                               const std::vector<int>* requests,
                               const std::function<int(int)>* next,
                               std::int64_t stop_sending_ns, double drain_s);

  int port_;
  const std::vector<PooledRequest>& pool_;
  Domain domain_;
  std::vector<Conn> conns_;
};

}  // namespace perfbench
