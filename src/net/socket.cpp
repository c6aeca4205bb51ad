#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/timer.hpp"

namespace gns::net {

namespace {

using Clock = std::chrono::steady_clock;

/// One recv() asks for at most this much; a full read means the kernel
/// may hold more, so read_from() goes round again.
constexpr std::size_t kReadChunkBytes = 64 * 1024;
/// Compact the buffer once this many decoded bytes sit at its front.
constexpr std::size_t kCompactThreshold = 256 * 1024;

}  // namespace

int listen_tcp(const std::string& host, int port, int& bound_port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  // Nonblocking: acceptors drain the backlog after each readiness event
  // and must get EAGAIN, not block, once it is empty.
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0 || !set_nonblocking(fd) ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
          0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  bound_port = ntohs(bound.sin_port);
  return fd;
}

int connect_tcp(const std::string& host, int port, int& error) {
  error = 0;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &results) != 0)
    return -1;  // unresolvable host: not a syscall failure, errno 0
  int fd = -1;
  for (addrinfo* ai = results; ai != nullptr && fd < 0; ai = ai->ai_next) {
    const int s = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (s < 0) {
      error = errno;
      continue;
    }
    set_nodelay(s);
    if (set_nonblocking(s) &&
        (::connect(s, ai->ai_addr, ai->ai_addrlen) == 0 ||
         errno == EINPROGRESS)) {
      fd = s;
      error = 0;
    } else {
      error = errno;  // kept before close() can clobber it
      ::close(s);
    }
  }
  ::freeaddrinfo(results);
  return fd;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_send_timeout(int fd, double timeout_ms) {
  if (timeout_ms <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>(
      (timeout_ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
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

// ---- FrameBuffer -----------------------------------------------------------

ssize_t FrameBuffer::read_from(int fd) {
  // Views handed out earlier die here, so this is where the decoded
  // prefix may move: dropped for free when everything was decoded,
  // memmoved only once a big prefix has built up.
  if (consumed_ == bytes_.size()) {
    bytes_.clear();
    consumed_ = 0;
  } else if (consumed_ > kCompactThreshold) {
    bytes_.erase(bytes_.begin(),
                 bytes_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  ssize_t total = 0;
  for (;;) {
    const std::size_t old_size = bytes_.size();
    bytes_.resize(old_size + kReadChunkBytes);
    const ssize_t n = ::recv(fd, bytes_.data() + old_size, kReadChunkBytes,
                             MSG_DONTWAIT);
    const int err = errno;
    bytes_.resize(old_size + static_cast<std::size_t>(std::max<ssize_t>(n, 0)));
    if (n > 0) {
      total += n;
      if (static_cast<std::size_t>(n) == kReadChunkBytes) continue;
      return total;
    }
    if (n < 0 && err == EINTR) continue;
    // Bytes already read are delivered now; a close or error behind them
    // shows up on the next call.
    if (total > 0) return total;
    errno = err;
    return n;
  }
}

DecodeStatus FrameBuffer::next(FrameView& frame, DecodeError& error) {
  const DecodeStatus status = try_decode_frame(
      bytes_.data() + consumed_, unread(), frame, error);
  if (status == DecodeStatus::Ok) consumed_ += frame.frame_bytes;
  return status;
}

void FrameBuffer::skip(std::size_t bytes) {
  consumed_ += std::min(bytes, unread());
}

void FrameBuffer::clear() {
  bytes_.clear();
  consumed_ = 0;
}

// ---- FrameConn -------------------------------------------------------------

FrameConn::~FrameConn() { close(); }

bool FrameConn::connect(const std::string& host, int port,
                        double timeout_ms) {
  close();
  const int fd = connect_tcp(host, port, connect_errno_);
  if (fd < 0) return false;
  pollfd pfd{fd, POLLOUT, 0};
  const int wait_ms = timeout_ms > 0.0 ? static_cast<int>(timeout_ms) + 1 : -1;
  int rc;
  while ((rc = ::poll(&pfd, 1, wait_ms)) < 0 && errno == EINTR) {
  }
  socklen_t len = sizeof(connect_errno_);
  if (rc <= 0) {
    connect_errno_ = rc == 0 ? ETIMEDOUT : errno;
  } else if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &connect_errno_, &len) !=
             0) {
    connect_errno_ = errno;
  }
  // Callers retry on ECONNREFUSED and ECONNRESET only, so the errno is
  // kept as the peer reported it.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (connect_errno_ != 0 || flags < 0 ||
      ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    if (connect_errno_ == 0) connect_errno_ = errno;
    ::close(fd);
    return false;
  }
  set_send_timeout(fd, timeout_ms);
  fd_ = fd;
  return true;
}

void FrameConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

bool FrameConn::send_frame(const std::vector<std::uint8_t>& frame) {
  return send_all(fd_, frame.data(), frame.size());
}

FrameConn::ReadStatus FrameConn::read_frame(FrameView& frame,
                                            std::string& error,
                                            double timeout_ms) {
  const Clock::time_point deadline =
      after_ms(Clock::now(), std::max(0.0, timeout_ms));
  for (;;) {
    DecodeError decode_error;
    const DecodeStatus status = buf_.next(frame, decode_error);
    if (status == DecodeStatus::Ok) return ReadStatus::Ok;
    if (status == DecodeStatus::Error) {
      error = "protocol error from peer: " + decode_error.message;
      return ReadStatus::Protocol;
    }

    int wait_ms = 1000;
    if (timeout_ms > 0.0) {
      const double remaining = ms_since(Clock::now(), deadline);
      if (remaining <= 0.0) {
        error = "no reply frame within " +
                std::to_string(static_cast<long>(timeout_ms)) + " ms";
        return ReadStatus::Timeout;
      }
      wait_ms = static_cast<int>(std::min(remaining, 1000.0)) + 1;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      error = std::string("poll failed: ") + std::strerror(errno);
      return ReadStatus::IoError;
    }
    if (rc == 0) continue;  // tick; the deadline is re-checked above
    const ssize_t n = buf_.read_from(fd_);
    if (n == 0) {
      error = "peer closed the connection";
      return ReadStatus::Closed;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      error = std::string("recv failed: ") + std::strerror(errno);
      return ReadStatus::IoError;
    }
  }
}

}  // namespace gns::net
