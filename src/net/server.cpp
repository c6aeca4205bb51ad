#include "net/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace gns::net {

struct Server::ServerConn : Conn {
  std::vector<Pending> inflight;
  exec::TaskGroup::TimerId pump_timer = 0;  ///< 0 when none is armed
};

Server::Server(serve::JobScheduler& scheduler, ServerConfig config)
    : scheduler_(scheduler),
      config_(std::move(config)),
      decode_errors_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".decode_errors")),
      rejected_backpressure_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".rejected_backpressure")),
      stats_requests_(obs::MetricsRegistry::global().counter(
          config_.metrics_prefix + ".stats_requests")),
      inflight_gauge_(obs::MetricsRegistry::global().gauge(
          config_.metrics_prefix + ".inflight")),
      queue_depth_gauge_(obs::MetricsRegistry::global().gauge(
          config_.metrics_prefix + ".scheduler_queue_depth")),
      request_ms_(obs::MetricsRegistry::global().histogram(
          config_.metrics_prefix + ".request_ms")),
      engine_(*this, ConnLimits{config_.max_connections,
                                config_.idle_timeout_ms,
                                config_.read_timeout_ms,
                                /*write_timeout_ms=*/0.0,
                                config_.drain_timeout_ms,
                                config_.max_protocol_version,
                                config_.metrics_prefix}) {
  GNS_CHECK_MSG(config_.max_inflight_per_connection >= 1 &&
                    config_.max_inflight_global >= 1,
                "Server in-flight caps must be >= 1");
  GNS_CHECK_MSG(config_.chunk_frames >= 1,
                "Server chunk_frames must be >= 1");
  GNS_CHECK_MSG(config_.max_protocol_version >= kMinProtocolVersion &&
                    config_.max_protocol_version <= kProtocolVersion,
                "Server max_protocol_version out of supported range");
}

Server::~Server() { stop(); }

bool Server::start() {
  GNS_CHECK_MSG(!running_.load(), "Server::start called twice");
  started_ = Clock::now();  // before the first connection can read it
  if (!engine_.start(config_.host, config_.port)) {
    GNS_ERROR("net: listen on " << config_.host << ":" << config_.port
                                << " failed: " << std::strerror(errno));
    return false;
  }
  running_.store(true, std::memory_order_release);
  GNS_INFO("net: serving on " << config_.host << ":" << port() << " ("
                              << exec::Executor::global().workers()
                              << " shared executor workers)");
  return true;
}

void Server::stop() {
  std::call_once(stop_once_, [this] {
    if (!running_.load(std::memory_order_acquire)) return;
    GNS_INFO("net: draining (stop accepting, flush in-flight)");
    engine_.stop();
    // Pump timers that fired late see closed connections and return.
    pumps_.wait();
    running_.store(false, std::memory_order_release);
    obs::flush_env_files();
    GNS_INFO("net: drained and stopped");
  });
}

std::shared_ptr<Conn> Server::make_conn() {
  return std::make_shared<ServerConn>();
}

void Server::on_frame(Conn& conn, const FrameView& frame,
                      double buffered_ms) {
  if (frame.type == MessageType::RolloutRequest) {
    handle_request(static_cast<ServerConn&>(conn), frame, buffered_ms);
  } else if (frame.type == MessageType::StatsRequest) {
    handle_stats(conn, frame);
  } else if (frame.type == MessageType::Hello) {
    handle_hello(conn, frame);
  } else {
    // Reply types flowing client->server are framing-correct but
    // semantically invalid; answer and keep the stream.
    decode_errors_.add();
    engine_.push_error(conn, frame.request_id, NetError::Malformed,
                       "unexpected message type from client");
  }
}

bool Server::busy(const Conn& conn) const {
  return !static_cast<const ServerConn&>(conn).inflight.empty();
}

void Server::handle_request(ServerConn& conn, const FrameView& frame,
                            double buffered_ms) {
  serve::RolloutRequest request;
  std::string parse_error;
  Timer decode_timer;
  if (!decode_rollout_request(frame, request, parse_error)) {
    decode_errors_.add();
    engine_.push_error(conn, frame.request_id, NetError::Malformed, parse_error);
    return;
  }
  request.decode_us = decode_timer.millis() * 1e3;
  GNS_TRACE_SCOPE_T("net.conn.submit", request.trace_id);
  if (engine_.draining()) {
    engine_.push_error(conn, frame.request_id, NetError::ShuttingDown,
                  "server is draining");
    return;
  }
  if (static_cast<int>(conn.inflight.size()) >=
          config_.max_inflight_per_connection ||
      global_inflight_.load(std::memory_order_relaxed) >=
          config_.max_inflight_global) {
    rejected_backpressure_.add();
    engine_.push_error(conn, frame.request_id, NetError::Busy,
                  "in-flight request cap reached; retry with backoff");
    return;
  }

  // Deadline propagation: time the request spent straddling reads already
  // counts against its budget, so a deadline that died in the read buffer
  // reaches the scheduler as expired (<= 0) and is rejected at submit
  // instead of occupying a batch slot.
  if (request.deadline_ms > 0.0) {
    request.deadline_ms -= buffered_ms;
    if (request.deadline_ms == 0.0) request.deadline_ms = -1.0;  // 0 = none
  }

  serve::JobTicket ticket = scheduler_.submit(std::move(request));
  // The scheduler resolves rejections (QueueFull / expired deadline /
  // ShutDown) immediately; pump() translates them. QueueFull is
  // additionally counted as backpressure when it surfaces there.
  Pending pending;
  pending.request_id = frame.request_id;
  pending.job_id = ticket.id;
  pending.future = std::move(ticket.result);
  pending.decoded = Clock::now();
  pending.version = frame.version;
  conn.inflight.push_back(std::move(pending));
  const int inflight =
      global_inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  inflight_gauge_.set(inflight);
  queue_depth_gauge_.set(scheduler_.queue_depth());
}

void Server::handle_stats(Conn& conn, const FrameView& frame) {
  GNS_TRACE_SCOPE("net.conn.stats");
  const int queue_depth = scheduler_.queue_depth();
  queue_depth_gauge_.set(queue_depth);
  if (engine_.push_stats(conn, frame, ms_since(started_, Clock::now()),
                         global_inflight_.load(std::memory_order_relaxed),
                         queue_depth))
    stats_requests_.add();
  else
    decode_errors_.add();
}

void Server::handle_hello(Conn& conn, const FrameView& frame) {
  GNS_TRACE_SCOPE("net.conn.hello");
  WireHello hello;
  std::string parse_error;
  if (!decode_hello(frame, hello, parse_error)) {
    decode_errors_.add();
    engine_.push_error(conn, frame.request_id, NetError::Malformed, parse_error);
    return;
  }
  WireHelloReply reply;
  reply.protocol_version = config_.max_protocol_version;
  reply.draining = engine_.draining() ? 1 : 0;
  reply.max_inflight =
      static_cast<std::uint32_t>(std::max(1, config_.max_inflight_global));
  reply.current_inflight = static_cast<std::uint32_t>(
      std::max(0, global_inflight_.load(std::memory_order_relaxed)));
  reply.workers =
      static_cast<std::uint32_t>(std::max(0, scheduler_.workers()));
  reply.models = scheduler_.registry()->names();
  if (reply.models.size() > kMaxHelloModels)
    reply.models.resize(kMaxHelloModels);
  engine_.push(conn, encode_hello_reply(frame.request_id, reply, frame.version));
}

ConnHandler::Clock::time_point Server::pump(Conn& c) {
  auto& conn = static_cast<ServerConn&>(c);
  for (std::size_t i = 0; i < conn.inflight.size();) {
    Pending& pending = conn.inflight[i];
    if (pending.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++i;
      continue;
    }
    const serve::RolloutResult result = pending.future.get();
    request_ms_.add(ms_since(pending.decoded, Clock::now()));
    enqueue_result(conn, pending, result);
    conn.inflight.erase(conn.inflight.begin() +
                        static_cast<std::ptrdiff_t>(i));
    const int inflight =
        global_inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
    inflight_gauge_.set(std::max(0, inflight));
  }
  return Clock::time_point::max();
}

void Server::serviced(Conn& c) {
  auto& conn = static_cast<ServerConn&>(c);
  if (conn.pump_timer != 0) return;
  const bool busy = !conn.inflight.empty() || !conn.wqueue.empty() ||
                    conn.has_partial || engine_.draining();
  auto self = std::static_pointer_cast<ServerConn>(conn.shared_from_this());
  conn.pump_timer = pumps_.schedule_after(busy ? 2.0 : 50.0, [this, self] {
    {
      std::lock_guard<std::mutex> lk(self->m);
      self->pump_timer = 0;
    }
    engine_.service(self, 0);
  });
}

void Server::on_close(Conn& c) {
  auto& conn = static_cast<ServerConn&>(c);
  if (conn.pump_timer != 0) pumps_.cancel(conn.pump_timer);
  conn.pump_timer = 0;
  // The peer is gone: nobody will read these results. Cancel what the
  // scheduler has not started and release the in-flight slots.
  for (Pending& pending : conn.inflight) {
    scheduler_.cancel(pending.job_id);
    global_inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
  inflight_gauge_.set(
      std::max(0, global_inflight_.load(std::memory_order_relaxed)));
  conn.inflight.clear();
}

void Server::on_sent(const WriteItem& item) {
  // The request's terminal frame left the socket: everything queued
  // behind it for this request (its chunks ran first, FIFO) is out, so
  // enqueue -> now is the request's write/flush phase.
  const std::int64_t now_ns = obs::trace_now_ns();
  scheduler_.stats().on_write(
      static_cast<double>(now_ns - item.enqueued_ns) * 1e-3);
  obs::record_manual_span("net.conn.flush", item.enqueued_ns, now_ns,
                          item.trace_id);
}

void Server::enqueue_result(Conn& conn, const Pending& pending,
                            const serve::RolloutResult& result) {
  GNS_TRACE_SCOPE_T("net.conn.encode", result.trace_id);
  const std::uint64_t request_id = pending.request_id;
  if (result.status == serve::JobStatus::QueueFull) {
    // Scheduler-level backpressure surfaces as Busy, same as the server's
    // own in-flight caps: clients have one retry path.
    rejected_backpressure_.add();
    engine_.push_error(conn, request_id, NetError::Busy, "scheduler queue full");
    return;
  }

  Timer serialize_timer;
  // Stream the predicted frames (even a partial prefix from a deadline or
  // cancellation) as chunks, then the terminal status.
  const std::size_t total = result.frames.size();
  for (std::size_t first = 0; first < total;
       first += static_cast<std::size_t>(config_.chunk_frames)) {
    const std::size_t count = std::min(
        static_cast<std::size_t>(config_.chunk_frames), total - first);
    WireChunk chunk;
    chunk.first_frame = static_cast<std::uint32_t>(first);
    chunk.frame_len =
        static_cast<std::uint32_t>(result.frames[first].size());
    chunk.data.reserve(count * chunk.frame_len);
    for (std::size_t f = first; f < first + count; ++f) {
      GNS_CHECK_MSG(result.frames[f].size() == chunk.frame_len,
                    "rollout frames differ in length");
      chunk.data.insert(chunk.data.end(), result.frames[f].begin(),
                        result.frames[f].end());
    }
    engine_.push(conn, encode_rollout_chunk(request_id, chunk, pending.version),
                 /*terminal=*/false, result.trace_id);
  }

  WireStatus status;
  status.status = result.status;
  status.total_frames = static_cast<std::uint32_t>(total);
  status.queue_ms = result.queue_ms;
  status.exec_ms = result.exec_ms;
  status.total_ms = result.total_ms;
  status.error = result.error;
  status.trace_id = result.trace_id;
  status.cached = result.cached;
  status.cache_outcome = result.cache_outcome;
  status.phases = result.phases;
  // The serialize phase covers the chunk encoding above; the status frame
  // itself is header-sized and cheap, so charging it as already-elapsed
  // time keeps the wire value honest without encoding twice. write_us is
  // unknowable until the flush — it stays 0 on the wire and lands in the
  // serve.phase.write_us histogram instead.
  status.phases.serialize_us = serialize_timer.millis() * 1e3;
  engine_.push(conn, encode_status_reply(request_id, status, pending.version),
               /*terminal=*/true, result.trace_id);
  scheduler_.stats().on_serialize(status.phases.serialize_us);
}

}  // namespace gns::net
