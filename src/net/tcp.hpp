// Real-socket transport: nonblocking TCP framing + readiness event loop.
//
// channel.hpp models what a link *costs* in simulated time; this layer
// moves actual bytes between attestd and remote provers. Three pieces:
//
//  - TcpChannel: one nonblocking connection carrying wire.hpp frames, with
//    explicit partial-I/O state (an outgoing byte queue drained as the
//    socket allows, a FrameDecoder fed from whatever read() produced).
//    Blocking conveniences exist for simple clients (sacha_cli --connect);
//    the server and the load generator use the nonblocking surface.
//  - SocketListener: bound + listening socket, ephemeral-port aware
//    (bind to port 0, read the kernel's choice back for ctest).
//  - EventLoop: level-triggered epoll(7) readiness multiplexing. The
//    service is Linux-only (epoll, accept4, SO_REUSEPORT, fork), so there
//    is no second multiplexer.
//
// All sockets are CLOEXEC and use MSG_NOSIGNAL (a peer reset must surface
// as an error return, never SIGPIPE, with thousands of connections).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "net/wire.hpp"

namespace sacha::net {

/// RAII file descriptor (move-only).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close_fd(); }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close_fd();

 private:
  int fd_ = -1;
};

/// Raises the RLIMIT_NOFILE soft limit toward `want` (capped at the hard
/// limit; best-effort). A 1000-connection bench needs more than the
/// classic 1024 default.
void raise_nofile_limit(std::uint64_t want);

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "HOST:PORT" (the CLI --listen/--connect syntax).
Result<HostPort> parse_host_port(const std::string& spec);

/// One framed, nonblocking TCP connection.
class TcpChannel {
 public:
  TcpChannel() = default;
  /// Takes ownership; sets nonblocking + TCP_NODELAY (command/response
  /// rounds are latency-bound small frames — Nagle would serialise the
  /// pipeline).
  explicit TcpChannel(Socket socket);

  /// Starts a nonblocking connect. The connection may still be in flight
  /// on return (EINPROGRESS) — wait for writability, then check
  /// finish_connect().
  static Result<TcpChannel> connect(const std::string& host,
                                    std::uint16_t port);

  /// After the socket polls writable post-connect: ok() when established,
  /// error when the connect failed (SO_ERROR).
  Status finish_connect();

  int fd() const { return socket_.fd(); }
  bool open() const { return socket_.valid(); }
  void close() { socket_.close_fd(); }

  /// Queues a frame and drains as much of the outgoing buffer as the
  /// socket accepts right now. Error = fatal socket error (peer gone).
  Status send_frame(const Frame& frame);
  Status send(FrameKind kind, Bytes payload);
  /// Queues unframed bytes (the HTTP answers of the operability endpoints
  /// ride the same partial-write machinery as the framed traffic).
  Status send_raw(ByteSpan data);

  /// Drains the outgoing buffer as far as EAGAIN allows.
  Status flush_some();
  /// Bytes are queued but not yet written — poll for writability.
  bool want_write() const { return out_consumed_ < out_.size(); }

  /// Reads whatever is available into the frame decoder. Sets *closed on
  /// orderly EOF or peer reset; other socket errors return error().
  Status read_some(bool* closed);
  /// Next complete frame; nullopt = need more bytes; error = stream
  /// poisoned (undecodable — tear the connection down).
  Result<std::optional<Frame>> next_frame() { return decoder_.next(); }

  // Blocking conveniences for simple clients: poll + retry until the
  // frame is fully sent / a frame arrives (timeout_ms < 0 = forever).
  Status send_frame_blocking(const Frame& frame, int timeout_ms = -1);
  Result<Frame> recv_frame_blocking(int timeout_ms = -1);

 private:
  Socket socket_;
  Bytes out_;
  std::size_t out_consumed_ = 0;
  FrameDecoder decoder_;
};

/// Bound, listening, nonblocking server socket.
class SocketListener {
 public:
  SocketListener() = default;

  /// Binds and listens. port 0 = kernel-assigned ephemeral port (read it
  /// back via bound_port()). With `reuseport`, SO_REUSEPORT is set before
  /// the bind so several processes can accept on one port and the kernel
  /// load-balances connections across them (shards sharing a front door);
  /// every listener on the port must set it.
  static Result<SocketListener> listen(const std::string& host,
                                       std::uint16_t port, int backlog = 1024,
                                       bool reuseport = false);

  int fd() const { return socket_.fd(); }
  std::uint16_t bound_port() const { return port_; }
  void close() { socket_.close_fd(); }

  /// Accepts one pending connection (nonblocking, CLOEXEC): nullopt when
  /// none pending, error on fatal accept failure.
  Result<std::optional<Socket>> accept_one();

 private:
  Socket socket_;
  std::uint16_t port_ = 0;
};

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;  // EPOLLERR/EPOLLHUP (read() will surface the cause)
};

/// Level-triggered epoll readiness multiplexer.
class EventLoop {
 public:
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Status add(int fd, bool want_read, bool want_write);
  Status modify(int fd, bool want_read, bool want_write);
  void remove(int fd);

  /// Blocks up to timeout_ms (-1 = forever) and fills `events` with every
  /// ready descriptor.
  Status wait(std::vector<PollEvent>& events, int timeout_ms);

 private:
  struct Interest {
    bool read = false;
    bool write = false;
  };
  int epfd_ = -1;
  std::unordered_map<int, Interest> interest_;
};

}  // namespace sacha::net
