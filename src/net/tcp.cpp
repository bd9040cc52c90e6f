#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstring>

#include "obs/metrics.hpp"

namespace sacha::net {

namespace {

Status errno_status(const char* what) {
  return Status::error(std::string(what) + ": " + std::strerror(errno));
}

/// getaddrinfo with the flags shared by listen and connect.
Result<Socket> open_stream_socket(const std::string& host, std::uint16_t port,
                                  bool passive, struct sockaddr_storage* addr,
                                  socklen_t* addr_len) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (passive) hints.ai_flags = AI_PASSIVE;
  struct addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               port_str.c_str(), &hints, &res);
  if (rc != 0) {
    return Result<Socket>::error(std::string("getaddrinfo ") + host + ": " +
                                 ::gai_strerror(rc));
  }
  Status last = Status::error("no usable address");
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family,
                            ai->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                            ai->ai_protocol);
    if (fd < 0) {
      last = errno_status("socket");
      continue;
    }
    if (addr != nullptr) {
      std::memcpy(addr, ai->ai_addr, ai->ai_addrlen);
      *addr_len = ai->ai_addrlen;
    }
    ::freeaddrinfo(res);
    return Socket(fd);
  }
  ::freeaddrinfo(res);
  return Result<Socket>::error(last.message());
}

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return errno_status("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return errno_status("fcntl(F_SETFL)");
  }
  return Status();
}

Status set_nodelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return errno_status("setsockopt(TCP_NODELAY)");
  }
  return Status();
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close_fd();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void raise_nofile_limit(std::uint64_t want) {
  struct rlimit lim;
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur >= want) return;
  lim.rlim_cur = want > lim.rlim_max ? lim.rlim_max : want;
  (void)::setrlimit(RLIMIT_NOFILE, &lim);  // best-effort
}

Result<HostPort> parse_host_port(const std::string& spec) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) {
    return Result<HostPort>::error("expected HOST:PORT, got '" + spec + "'");
  }
  HostPort hp;
  hp.host = spec.substr(0, colon);
  if (hp.host.empty()) hp.host = "127.0.0.1";
  unsigned long port = 0;
  try {
    port = std::stoul(spec.substr(colon + 1));
  } catch (...) {
    return Result<HostPort>::error("bad port in '" + spec + "'");
  }
  if (port > 65535) {
    return Result<HostPort>::error("port out of range in '" + spec + "'");
  }
  hp.port = static_cast<std::uint16_t>(port);
  return hp;
}

// -- TcpChannel --------------------------------------------------------------

TcpChannel::TcpChannel(Socket socket) : socket_(std::move(socket)) {
  (void)set_nonblocking(socket_.fd());
  (void)set_nodelay(socket_.fd());
}

Result<TcpChannel> TcpChannel::connect(const std::string& host,
                                       std::uint16_t port) {
  struct sockaddr_storage addr;
  socklen_t addr_len = 0;
  auto sock = open_stream_socket(host, port, /*passive=*/false, &addr,
                                 &addr_len);
  if (!sock.ok()) return Result<TcpChannel>::error(sock.message());
  Socket s = std::move(sock).take();
  while (::connect(s.fd(), reinterpret_cast<struct sockaddr*>(&addr),
                   addr_len) < 0) {
    if (errno == EINTR) continue;
    if (errno == EINPROGRESS) break;  // completes when the fd polls writable
    return Result<TcpChannel>::error(errno_status("connect").message());
  }
  return TcpChannel(std::move(s));
}

Status TcpChannel::finish_connect() {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(socket_.fd(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    return errno_status("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    return Status::error(std::string("connect: ") + std::strerror(err));
  }
  return Status();
}

Status TcpChannel::send_frame(const Frame& frame) {
  return send_raw(encode_frame(frame));
}

Status TcpChannel::send(FrameKind kind, Bytes payload) {
  return send_frame(Frame{kind, std::move(payload)});
}

Status TcpChannel::send_raw(ByteSpan data) {
  // Compact the consumed prefix before growing (mirrors FrameDecoder).
  if (out_consumed_ > 0 && out_consumed_ >= out_.size() / 2) {
    out_.erase(out_.begin(),
               out_.begin() + static_cast<std::ptrdiff_t>(out_consumed_));
    out_consumed_ = 0;
  }
  append(out_, data);
  return flush_some();
}

Status TcpChannel::flush_some() {
  while (out_consumed_ < out_.size()) {
    const ssize_t n =
        ::send(socket_.fd(), out_.data() + out_consumed_,
               out_.size() - out_consumed_, MSG_NOSIGNAL);
    if (n > 0) {
      static obs::Counter& bytes_tx =
          obs::MetricsRegistry::global().counter("sacha.net.bytes_tx");
      bytes_tx.add(static_cast<std::uint64_t>(n));
      out_consumed_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return Status();
    return errno_status("send");
  }
  if (out_consumed_ == out_.size()) {
    out_.clear();
    out_consumed_ = 0;
  }
  return Status();
}

Status TcpChannel::read_some(bool* closed) {
  if (closed != nullptr) *closed = false;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(socket_.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      static obs::Counter& bytes_rx =
          obs::MetricsRegistry::global().counter("sacha.net.bytes_rx");
      bytes_rx.add(static_cast<std::uint64_t>(n));
      decoder_.feed(ByteSpan(buf, static_cast<std::size_t>(n)));
      if (static_cast<std::size_t>(n) < sizeof(buf)) return Status();
      continue;  // buffer-filling read: more may be pending
    }
    if (n == 0) {
      if (closed != nullptr) *closed = true;
      return Status();
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status();
    if (errno == ECONNRESET) {
      // An abrupt peer reset is a disconnect, not an I/O bug: the caller
      // quarantines the session the same way as an orderly EOF mid-run.
      if (closed != nullptr) *closed = true;
      return Status();
    }
    return errno_status("recv");
  }
}

Status TcpChannel::send_frame_blocking(const Frame& frame, int timeout_ms) {
  Status st = send_frame(frame);
  if (!st.ok()) return st;
  while (want_write()) {
    struct pollfd pfd{socket_.fd(), POLLOUT, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return errno_status("poll");
    }
    if (rc == 0) return Status::error("send timeout");
    st = flush_some();
    if (!st.ok()) return st;
  }
  return Status();
}

Result<Frame> TcpChannel::recv_frame_blocking(int timeout_ms) {
  for (;;) {
    auto frame = next_frame();
    if (!frame.ok()) return Result<Frame>::error(frame.message());
    if (frame.value().has_value()) return *std::move(frame).take();
    struct pollfd pfd{socket_.fd(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Result<Frame>::error(errno_status("poll").message());
    }
    if (rc == 0) return Result<Frame>::error("receive timeout");
    bool closed = false;
    Status st = read_some(&closed);
    if (!st.ok()) return Result<Frame>::error(st.message());
    if (closed && decoder_.buffered_bytes() < kFrameHeaderBytes) {
      return Result<Frame>::error("connection closed by peer");
    }
  }
}

// -- SocketListener ----------------------------------------------------------

Result<SocketListener> SocketListener::listen(const std::string& host,
                                              std::uint16_t port, int backlog,
                                              bool reuseport) {
  struct sockaddr_storage addr;
  socklen_t addr_len = 0;
  auto sock =
      open_stream_socket(host, port, /*passive=*/true, &addr, &addr_len);
  if (!sock.ok()) return Result<SocketListener>::error(sock.message());
  Socket s = std::move(sock).take();
  const int one = 1;
  (void)::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
#ifdef SO_REUSEPORT
  if (reuseport) {
    if (::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) <
        0) {
      return Result<SocketListener>::error(
          errno_status("setsockopt(SO_REUSEPORT)").message());
    }
  }
#else
  if (reuseport) {
    return Result<SocketListener>::error(
        "SO_REUSEPORT not supported on this platform");
  }
#endif
  if (::bind(s.fd(), reinterpret_cast<struct sockaddr*>(&addr), addr_len) <
      0) {
    return Result<SocketListener>::error(errno_status("bind").message());
  }
  if (::listen(s.fd(), backlog) < 0) {
    return Result<SocketListener>::error(errno_status("listen").message());
  }
  struct sockaddr_storage bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(s.fd(), reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) < 0) {
    return Result<SocketListener>::error(
        errno_status("getsockname").message());
  }
  SocketListener listener;
  listener.socket_ = std::move(s);
  if (bound.ss_family == AF_INET) {
    listener.port_ = ntohs(
        reinterpret_cast<struct sockaddr_in*>(&bound)->sin_port);
  } else if (bound.ss_family == AF_INET6) {
    listener.port_ = ntohs(
        reinterpret_cast<struct sockaddr_in6*>(&bound)->sin6_port);
  }
  return listener;
}

Result<std::optional<Socket>> SocketListener::accept_one() {
  using Out = Result<std::optional<Socket>>;
  for (;;) {
    const int fd =
        ::accept4(socket_.fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) return Out(std::optional<Socket>(Socket(fd)));
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Out(std::nullopt);
    return Out::error(errno_status("accept").message());
  }
}

// -- EventLoop ---------------------------------------------------------------

EventLoop::EventLoop() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {}

EventLoop::~EventLoop() {
  if (epfd_ >= 0) ::close(epfd_);
}

namespace {
/// epoll_ctl with the level-triggered interest mask.
int epoll_update(int epfd, int op, int fd, bool want_read, bool want_write) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  if (want_read) ev.events |= EPOLLIN;
  if (want_write) ev.events |= EPOLLOUT;
  ev.data.fd = fd;
  return ::epoll_ctl(epfd, op, fd, &ev);
}
}  // namespace

Status EventLoop::add(int fd, bool want_read, bool want_write) {
  interest_[fd] = Interest{want_read, want_write};
  if (epoll_update(epfd_, EPOLL_CTL_ADD, fd, want_read, want_write) < 0) {
    return errno_status("epoll_ctl(ADD)");
  }
  return Status();
}

Status EventLoop::modify(int fd, bool want_read, bool want_write) {
  auto it = interest_.find(fd);
  if (it == interest_.end()) return add(fd, want_read, want_write);
  if (it->second.read == want_read && it->second.write == want_write) {
    return Status();
  }
  it->second = Interest{want_read, want_write};
  if (epoll_update(epfd_, EPOLL_CTL_MOD, fd, want_read, want_write) < 0) {
    return errno_status("epoll_ctl(MOD)");
  }
  return Status();
}

void EventLoop::remove(int fd) {
  if (interest_.erase(fd) == 0) return;
  (void)epoll_update(epfd_, EPOLL_CTL_DEL, fd, false, false);
}

Status EventLoop::wait(std::vector<PollEvent>& events, int timeout_ms) {
  events.clear();
  std::vector<struct epoll_event> ready(
      interest_.empty() ? 1 : interest_.size());
  int n;
  do {
    n = ::epoll_wait(epfd_, ready.data(), static_cast<int>(ready.size()),
                     timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return errno_status("epoll_wait");
  events.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    PollEvent ev;
    ev.fd = ready[i].data.fd;
    ev.readable = (ready[i].events & EPOLLIN) != 0;
    ev.writable = (ready[i].events & EPOLLOUT) != 0;
    ev.error = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    events.push_back(ev);
  }
  return Status();
}

}  // namespace sacha::net
