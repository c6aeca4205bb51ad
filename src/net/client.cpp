#include "net/client.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/timer.hpp"

namespace gns::net {

namespace {

/// Splitmix64 over a monotonic-clock sample and a process-wide counter:
/// ids are unique within a process and overwhelmingly unlikely to collide
/// across clients. Never returns 0 (the wire's "unset" sentinel).
std::uint64_t generate_trace_id() {
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t x = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  x += 0x9E3779B97F4A7C15ull *
       (counter.fetch_add(1, std::memory_order_relaxed) + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x != 0 ? x : 1;
}

}  // namespace

Client::Client(ClientConfig config) : config_(std::move(config)) {}

Client::~Client() { close(); }

bool Client::connect() {
  return conn_.connect(config_.host, config_.port, config_.connect_timeout_ms);
}

void Client::close() { conn_.close(); }

std::string Client::connect_error() const {
  const int err = conn_.connect_errno();
  return "connect to " + config_.host + ":" + std::to_string(config_.port) +
         " failed" + (err != 0 ? std::string(": ") + std::strerror(err)
                               : std::string());
}

ClientResult Client::rollout(const serve::RolloutRequest& request) {
  if (request.trace_id != 0) return run_rollout(request);
  // The copy is taken only on this path; callers that manage their own
  // trace ids pay nothing.
  serve::RolloutRequest traced = request;
  traced.trace_id = generate_trace_id();
  return run_rollout(traced);
}

ClientResult Client::run_rollout(const serve::RolloutRequest& request) {
  ClientResult result;
  double backoff_ms = config_.busy_backoff_ms;
  int busy_retries = 0;
  int connect_retries = 0;
  Timer rtt;
  for (;;) {
    result = exchange(request);
    result.busy_retries = busy_retries;
    result.connect_retries = connect_retries;
    const bool busy = result.transport_ok && result.is_net_error &&
                      result.net_error == NetError::Busy;
    // ECONNREFUSED: nothing listening *yet* (server still binding, or
    // restarting). ECONNRESET: the kernel dropped us from an overflowing
    // listen backlog. Both are the transient shapes of "server busy
    // coming up", so they share the Busy backoff policy; anything else
    // (unreachable host, bad address) fails immediately.
    const bool transient_connect =
        !result.transport_ok &&
        ((result.connect_failed &&
          (conn_.connect_errno() == ECONNREFUSED ||
           conn_.connect_errno() == ECONNRESET)) ||
         // A reply-less connection death is a stale or restarting backend;
         // the idempotent request is resent on a fresh connection.
         result.lost_before_reply);
    if (busy) {
      if (busy_retries >= config_.busy_max_retries) break;
      ++busy_retries;
    } else if (transient_connect) {
      if (connect_retries >= config_.busy_max_retries) break;
      ++connect_retries;
    } else {
      break;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2.0, config_.busy_backoff_max_ms);
  }
  result.rtt_ms = rtt.millis();
  return result;
}

Client::StatsResult Client::stats(std::uint8_t format) {
  StatsResult result;
  Timer rtt;
  if (!conn_.connected() && !connect()) {
    result.transport_error = connect_error();
    result.rtt_ms = rtt.millis();
    return result;
  }

  const std::uint64_t request_id = conn_.next_request_id();
  WireStatsRequest stats_request;
  stats_request.format = format;
  const std::vector<std::uint8_t> wire =
      encode_stats_request(request_id, stats_request);
  if (!conn_.send_frame(wire)) {
    result.transport_error =
        std::string("send failed: ") + std::strerror(errno);
    close();
    result.rtt_ms = rtt.millis();
    return result;
  }

  for (;;) {
    FrameView frame;
    std::string read_error;
    if (conn_.read_frame(frame, read_error, config_.recv_timeout_ms) !=
        FrameConn::ReadStatus::Ok) {
      result.transport_error = read_error;
      close();
      break;
    }
    if (frame.request_id != request_id) {
      result.transport_error = "reply for unexpected request id " +
                               std::to_string(frame.request_id);
      close();
      break;
    }
    std::string parse_error;
    if (frame.type == MessageType::StatsReply) {
      if (!decode_stats_reply(frame, result.reply, parse_error)) {
        result.transport_error = "bad stats reply: " + parse_error;
        close();
        break;
      }
      result.transport_ok = true;
      break;
    }
    if (frame.type == MessageType::ErrorReply) {
      WireError error;
      if (!decode_error_reply(frame, error, parse_error)) {
        result.transport_error = "bad error reply: " + parse_error;
        close();
        break;
      }
      result.transport_ok = true;
      result.is_net_error = true;
      result.net_error = error.code;
      result.error = error.message;
      break;
    }
    result.transport_error = "unexpected reply type to a stats request";
    close();
    break;
  }
  result.rtt_ms = rtt.millis();
  return result;
}

ClientResult Client::exchange(const serve::RolloutRequest& request) {
  ClientResult result;
  result.trace_id = request.trace_id;
  if (!conn_.connected() && !connect()) {
    result.connect_failed = true;
    result.transport_error = connect_error();
    return result;
  }

  const std::uint64_t request_id = conn_.next_request_id();
  const std::vector<std::uint8_t> wire =
      encode_rollout_request(request_id, request);
  if (!conn_.send_frame(wire)) {
    result.transport_error = std::string("send failed: ") +
                             std::strerror(errno);
    result.lost_before_reply = true;
    close();
    return result;
  }

  // Collect chunks until the terminal frame for our request id. The server
  // may interleave replies to other ids on a shared connection; those are
  // impossible here (one outstanding request per Client) and are treated
  // as a protocol error to fail loudly rather than mis-assemble frames.
  std::size_t expected_next_frame = 0;
  bool reply_started = false;
  for (;;) {
    FrameView frame;
    std::string read_error;
    const FrameConn::ReadStatus read =
        conn_.read_frame(frame, read_error, config_.recv_timeout_ms);
    if (read != FrameConn::ReadStatus::Ok) {
      result.transport_error = read_error;
      // A timeout or a dead socket is the stale-connection shape; a
      // protocol violation is not, and is never resent.
      result.lost_before_reply =
          read != FrameConn::ReadStatus::Protocol && !reply_started;
      close();
      return result;
    }
    reply_started = true;
    if (frame.request_id != request_id) {
      result.transport_error = "reply for unexpected request id " +
                               std::to_string(frame.request_id);
      close();
      return result;
    }

    std::string parse_error;
    switch (frame.type) {
      case MessageType::RolloutChunk: {
        WireChunk chunk;
        if (!decode_rollout_chunk(frame, chunk, parse_error)) {
          result.transport_error = "bad chunk: " + parse_error;
          close();
          return result;
        }
        if (chunk.first_frame != expected_next_frame) {
          result.transport_error = "chunk out of order";
          close();
          return result;
        }
        for (std::uint32_t f = 0; f < chunk.num_frames(); ++f) {
          const auto begin =
              chunk.data.begin() +
              static_cast<std::ptrdiff_t>(f) * chunk.frame_len;
          result.frames.emplace_back(begin, begin + chunk.frame_len);
        }
        expected_next_frame += chunk.num_frames();
        continue;
      }
      case MessageType::StatusReply: {
        WireStatus status;
        if (!decode_status_reply(frame, status, parse_error)) {
          result.transport_error = "bad status reply: " + parse_error;
          close();
          return result;
        }
        if (status.total_frames != result.frames.size()) {
          result.transport_error = "status frame count mismatch";
          close();
          return result;
        }
        result.transport_ok = true;
        result.status = status.status;
        result.error = status.error;
        result.queue_ms = status.queue_ms;
        result.exec_ms = status.exec_ms;
        result.total_ms = status.total_ms;
        result.cached = status.cached;
        result.cache_outcome = status.cache_outcome;
        result.phases = status.phases;
        return result;
      }
      case MessageType::ErrorReply: {
        WireError error;
        if (!decode_error_reply(frame, error, parse_error)) {
          result.transport_error = "bad error reply: " + parse_error;
          close();
          return result;
        }
        result.transport_ok = true;
        result.is_net_error = true;
        result.net_error = error.code;
        result.error = error.message;
        result.frames.clear();
        return result;
      }
      case MessageType::RolloutRequest:
        result.transport_error = "server sent a request frame";
        close();
        return result;
      default:
        result.transport_error = "unexpected reply type to a rollout request";
        close();
        return result;
    }
  }
}

}  // namespace gns::net
