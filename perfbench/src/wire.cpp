#include "wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <string>

namespace perfbench {

using namespace gns;

bool Domain::contains(const double* xy, std::size_t n) const {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = xy[i];
    if (!std::isfinite(v) || v < lo[i % 2] || v > hi[i % 2]) return false;
  }
  return true;
}

struct WireLoad::Conn {
  int fd = -1;
  std::vector<std::uint8_t> rbuf;
  std::deque<std::vector<std::uint8_t>> wqueue;
  std::size_t woff = 0;
  /// wire request id -> index into the outcome vector
  std::map<std::uint64_t, std::size_t> inflight;
  /// request id -> time its previous chunk arrived
  std::map<std::uint64_t, std::int64_t> last_chunk_ns;
};

WireLoad::WireLoad(int port, int connections,
                   const std::vector<PooledRequest>& pool, Domain domain)
    : port_(port), pool_(pool), domain_(domain), conns_(connections) {}

WireLoad::~WireLoad() {
  for (Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
}

bool WireLoad::connect() {
  for (Conn& c : conns_) {
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0)
      return false;
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
  }
  return true;
}

std::vector<WireOutcome> WireLoad::run_open(
    const std::vector<std::int64_t>& due, const std::vector<int>& requests,
    double drain_s) {
  return run(&due, &requests, nullptr, due.empty() ? 0 : due.back(), drain_s);
}

std::vector<WireOutcome> WireLoad::run_closed(
    double seconds, const std::function<int(int)>& next, double drain_s) {
  const std::int64_t stop =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  return run(nullptr, nullptr, &next, stop, drain_s);
}

std::vector<WireOutcome> WireLoad::run(const std::vector<std::int64_t>* due,
                                       const std::vector<int>* requests,
                                       const std::function<int(int)>* next,
                                       std::int64_t stop_sending_ns,
                                       double drain_s) {
  std::vector<WireOutcome> out;
  out.reserve(due ? due->size() : 1024);
  std::uint64_t next_id = 1;
  std::size_t next_due = 0;
  std::size_t outstanding = 0;
  const int nconn = static_cast<int>(conns_.size());

  auto send = [&](int ci, int pool_index, std::int64_t due_ns) {
    Conn& c = conns_[static_cast<std::size_t>(ci)];
    std::vector<std::uint8_t> frame = pool_[pool_index].frame;
    const std::uint64_t id = next_id++;
    std::memcpy(frame.data() + 8, &id, sizeof(id));  // little-endian id
    WireOutcome o;
    o.pool_index = pool_index;
    o.timing.due_ns = due_ns;
    o.timing.sent_ns = now_ns();
    o.timing.limit_ms = pool_[pool_index].limit_ms;
    c.inflight[id] = out.size();
    out.push_back(std::move(o));
    c.wqueue.push_back(std::move(frame));
    ++outstanding;
  };
  auto least_loaded = [&] {
    int best = 0;
    for (int i = 1; i < nconn; ++i) {
      const Conn& ci = conns_[i];
      const Conn& cb = conns_[best];
      if (cb.fd < 0 || (ci.fd >= 0 && ci.inflight.size() < cb.inflight.size()))
        best = i;
    }
    return best;
  };
  auto finish = [&](Conn& c, std::uint64_t id) -> WireOutcome* {
    auto it = c.inflight.find(id);
    if (it == c.inflight.end()) return nullptr;
    WireOutcome* o = &out[it->second];
    c.inflight.erase(it);
    c.last_chunk_ns.erase(id);
    --outstanding;
    return o;
  };

  if (next != nullptr)
    for (int ci = 0; ci < nconn; ++ci) send(ci, (*next)(ci), now_ns());

  const std::int64_t give_up =
      stop_sending_ns + static_cast<std::int64_t>(drain_s * 1e9);
  std::vector<pollfd> fds(conns_.size());
  std::uint8_t buf[1 << 16];
  while (true) {
    std::int64_t now = now_ns();
    if (due != nullptr) {
      while (next_due < due->size() && (*due)[next_due] <= now) {
        send(least_loaded(), (*requests)[next_due], (*due)[next_due]);
        ++next_due;
      }
    }
    const bool sending_done =
        due != nullptr ? next_due >= due->size() : now >= stop_sending_ns;
    if (sending_done && outstanding == 0) break;
    if (now > give_up) break;

    // Flush queued writes.
    for (Conn& c : conns_) {
      while (!c.wqueue.empty()) {
        const auto& f = c.wqueue.front();
        const ssize_t n = ::send(c.fd, f.data() + c.woff, f.size() - c.woff,
                                 MSG_NOSIGNAL);
        if (n < 0) break;  // EAGAIN: wait for POLLOUT
        c.woff += static_cast<std::size_t>(n);
        if (c.woff == f.size()) {
          c.wqueue.pop_front();
          c.woff = 0;
        }
      }
    }

    int timeout_ms = 20;
    if (due != nullptr && next_due < due->size()) {
      const std::int64_t wait = (*due)[next_due] - now_ns();
      timeout_ms = static_cast<int>(
          std::clamp<std::int64_t>(wait / 1'000'000, 0, 20));
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = POLLIN | (conns_[i].wqueue.empty() ? 0 : POLLOUT);
      fds[i].revents = 0;
    }
    // A due time inside the next millisecond is spun on rather than slept
    // through, so the open loop stays on schedule.
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR)
      break;

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns_[i];
      while (true) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.rbuf.insert(c.rbuf.end(), buf, buf + n);
          continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          // Peer closed: everything in flight on it is lost.
          for (auto& [id, idx] : c.inflight) {
            out[idx].transport_ok = false;
            --outstanding;
          }
          c.inflight.clear();
          ::close(c.fd);
          c.fd = -1;
        }
        break;
      }
      const std::int64_t t = now_ns();
      std::size_t consumed = 0;
      while (true) {
        net::FrameView view;
        net::DecodeError derr;
        const auto st = net::try_decode_frame(
            c.rbuf.data() + consumed, c.rbuf.size() - consumed, view, derr);
        if (st != net::DecodeStatus::Ok) break;
        consumed += view.frame_bytes;
        auto it = c.inflight.find(view.request_id);
        if (it == c.inflight.end()) continue;
        WireOutcome& o = out[it->second];
        std::string err;
        if (view.type == net::MessageType::RolloutChunk) {
          net::WireChunk chunk;
          const PooledRequest& req = pool_[o.pool_index];
          if (!net::decode_rollout_chunk(view, chunk, err) ||
              chunk.first_frame != static_cast<std::uint32_t>(o.timing.frames) ||
              chunk.frame_len !=
                  static_cast<std::uint32_t>(req.particles * 2) ||
              !domain_.contains(chunk.data.data(), chunk.data.size())) {
            o.stream_ok = false;
          }
          o.digest.update(chunk.data.data(),
                          chunk.data.size() * sizeof(double));
          o.timing.frames += static_cast<int>(chunk.num_frames());
          auto last = c.last_chunk_ns.find(view.request_id);
          if (last == c.last_chunk_ns.end()) {
            o.timing.first_ns = t;
          } else {
            o.chunk_gaps_ms.push_back(
                static_cast<double>(t - last->second) * 1e-6);
          }
          c.last_chunk_ns[view.request_id] = t;
        } else if (view.type == net::MessageType::StatusReply) {
          net::WireStatus status;
          WireOutcome* done = finish(c, view.request_id);
          done->timing.done_ns = t;
          done->transport_ok = true;
          if (net::decode_status_reply(view, status, err)) {
            done->status = status.status;
            done->cache_outcome = status.cache_outcome;
            done->phases = status.phases;
            if (status.total_frames !=
                static_cast<std::uint32_t>(done->timing.frames))
              done->stream_ok = false;
          } else {
            done->stream_ok = false;
          }
          if (done->timing.first_ns == 0) done->timing.first_ns = t;
          if (next != nullptr && t < stop_sending_ns)
            send(static_cast<int>(i), (*next)(static_cast<int>(i)), now_ns());
        } else if (view.type == net::MessageType::ErrorReply) {
          net::WireError werr;
          WireOutcome* done = finish(c, view.request_id);
          done->timing.done_ns = t;
          done->transport_ok = true;
          done->is_net_error = true;
          if (net::decode_error_reply(view, werr, err))
            done->net_error = werr.code;
          if (next != nullptr && t < stop_sending_ns)
            send(static_cast<int>(i), (*next)(static_cast<int>(i)), now_ns());
        }
      }
      c.rbuf.erase(c.rbuf.begin(),
                   c.rbuf.begin() + static_cast<std::ptrdiff_t>(consumed));
    }
  }
  return out;
}

}  // namespace perfbench
