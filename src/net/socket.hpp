#pragma once

/// \file socket.hpp
/// The wire's socket layer: the one place that listens, connects, sends,
/// receives, and buffers bytes until they form whole frames.
///
///   listen_tcp  — nonblocking listener (SO_REUSEADDR, backlog 128);
///   FrameBuffer — a receive buffer with a consumed offset: recv() lands
///                 straight in it, the next frame decodes in place, and the
///                 decoded prefix is compacted lazily;
///   connect_tcp — fresh-resolve nonblocking connect;
///   FrameConn   — one blocking client connection over a FrameBuffer:
///                 bounded connect, whole-frame send, and a framed read with
///                 a poll deadline.
///
/// net::Client is a FrameConn. The connection engine (conn_engine.hpp)
/// reads the server's and router's accepted connections, and the router's
/// backend links, through FrameBuffers.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hpp"

namespace gns::net {

/// Binds a nonblocking TCP listener on host:port (an IPv4 literal; port 0
/// picks an ephemeral port, reported in `bound_port`). Returns the fd, or
/// -1 with errno set (EINVAL for an unparsable host).
[[nodiscard]] int listen_tcp(const std::string& host, int port,
                             int& bound_port);

/// Resolves host:port afresh (never a cached lookup: a peer restarted
/// behind the same name must be reached by the very next attempt) and
/// starts a nonblocking connect, TCP_NODELAY on. Returns the fd (the
/// connect may still be in progress: wait for POLLOUT, then read
/// SO_ERROR), or -1 with `error` set to the failing syscall's errno (0 when
/// the host did not resolve).
[[nodiscard]] int connect_tcp(const std::string& host, int port, int& error);
/// O_NONBLOCK on; false when fcntl fails.
[[nodiscard]] bool set_nonblocking(int fd);
/// TCP_NODELAY on: frames are written whole, so Nagle only adds latency.
void set_nodelay(int fd);
/// Bounds each blocking send (and a blocking connect) on fd; <= 0 means
/// no bound.
void set_send_timeout(int fd, double timeout_ms);
/// Sends all `len` bytes on a blocking fd (EINTR retried, no SIGPIPE).
/// False with errno set on failure.
[[nodiscard]] bool send_all(int fd, const std::uint8_t* data,
                            std::size_t len);

/// Receive buffer of one connection: bytes read from the socket, of which
/// a prefix has already been decoded.
class FrameBuffer {
 public:
  /// Reads what the socket holds right now (never blocks, even on a
  /// blocking fd) into the buffer's tail. Returns the bytes read (> 0),
  /// 0 when the peer closed, or -1 with errno set (EAGAIN: nothing ready).
  /// Invalidates every FrameView handed out before.
  ssize_t read_from(int fd);

  /// Decodes the next frame from the unread bytes. On Ok the frame counts
  /// as read and `frame` borrows the buffer until the next read_from() or
  /// clear(). On Error nothing is consumed: the caller skip()s
  /// error.skip_bytes or drops the connection.
  [[nodiscard]] DecodeStatus next(FrameView& frame, DecodeError& error);

  /// Marks up to `bytes` unread bytes as read.
  void skip(std::size_t bytes);
  [[nodiscard]] std::size_t unread() const { return bytes_.size() - consumed_; }
  void clear();

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t consumed_ = 0;  ///< decoded prefix, compacted lazily
};

/// One blocking TCP connection that speaks whole frames. Not thread-safe.
class FrameConn {
 public:
  enum class ReadStatus { Ok, Closed, Timeout, Protocol, IoError };

  FrameConn() = default;
  ~FrameConn();
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  /// Closes any current connection and connects afresh (connect_tcp).
  /// timeout_ms bounds the connect and every later send. On failure
  /// connect_errno() keeps the failing errno (0 when the host did not
  /// resolve).
  [[nodiscard]] bool connect(const std::string& host, int port,
                             double timeout_ms);
  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  [[nodiscard]] int connect_errno() const { return connect_errno_; }
  void close();

  /// Sends one encoded frame whole. False with errno set on failure.
  [[nodiscard]] bool send_frame(const std::vector<std::uint8_t>& frame);

  /// Blocks until one whole frame is buffered or timeout_ms passes (<= 0:
  /// no deadline). The FrameView borrows this connection's buffer: valid
  /// until the next read_frame() or close(). On anything but Ok, `error`
  /// says why; the connection is left open for the caller to close.
  [[nodiscard]] ReadStatus read_frame(FrameView& frame, std::string& error,
                                      double timeout_ms);

  /// Request ids are per-connection (the wire scopes them that way).
  [[nodiscard]] std::uint64_t next_request_id() { return next_request_id_++; }

 private:
  int fd_ = -1;
  int connect_errno_ = 0;
  std::uint64_t next_request_id_ = 1;
  FrameBuffer buf_;
};

}  // namespace gns::net
