#include "shard/coordinator.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/log.hpp"
#include "crypto/merkle.hpp"
#include "net/attest_server.hpp"
#include "net/http.hpp"
#include "net/tcp.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace sacha::shard {

namespace {

using Clock = std::chrono::steady_clock;

/// Receive/send timeout of one scrape GET. Fixed, not derived from the
/// health interval: a short interval asks for frequent scrapes, not for
/// ones that give up on a shard slowed by a loaded host.
constexpr int kScrapeTimeoutMs = 1000;

std::string shard_node_label(std::size_t index) {
  return "shard-" + std::to_string(index);
}

/// Blocking HTTP GET against a local shard with a receive timeout; returns
/// the body ("" on any failure — the probe failure path).
std::string http_get_body(const std::string& host, std::uint16_t port,
                          const std::string& path, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: shard\r\nConnection: close\r\n\r\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return {};
  }
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t split = reply.find("\r\n\r\n");
  if (split == std::string::npos) return {};
  return reply.substr(split + 4);
}

/// Extracts the integer right after `"<key>":` at/after `from`.
bool json_u64_after(const std::string& body, std::size_t from,
                    const std::string& key, std::uint64_t* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = body.find(needle, from);
  if (at == std::string::npos) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v =
      std::strtoull(body.c_str() + at + needle.size(), &end, 10);
  if (end == body.c_str() + at + needle.size()) return false;
  *out = v;
  return true;
}

bool parse_digest_hex(const std::string& hex, crypto::Sha256Digest* out) {
  const auto bytes = from_hex(hex);
  if (!bytes.has_value() || bytes->size() != out->size()) return false;
  std::copy(bytes->begin(), bytes->end(), out->begin());
  return true;
}

/// Shard child body: a full attestd on an ephemeral port, reporting the
/// bound port over `port_fd`, parked on `life_fd` until the coordinator
/// closes its end (or dies — EOF either way), then a clean exit. Runs in
/// the forked child; never returns.
[[noreturn]] void run_shard_child(const CoordinatorOptions& opts,
                                  std::size_t index, int port_fd,
                                  int life_fd) {
  net::AttestServerOptions shard_opts;
  shard_opts.host = opts.host;
  shard_opts.port = 0;
  shard_opts.pool_size = opts.shard_pool;
  shard_opts.verify_batch_width = opts.verify_batch_width;
  shard_opts.session_timeout_ms = opts.session_timeout_ms;
  shard_opts.model_cache_dir = opts.model_cache_dir;
  shard_opts.model_map = opts.model_map;
  net::AttestServer server(shard_opts);
  const Status started = server.start();
  std::uint16_t port = started.ok() ? server.port() : 0;
  std::uint8_t wire[2] = {static_cast<std::uint8_t>(port >> 8),
                          static_cast<std::uint8_t>(port & 0xff)};
  (void)!::write(port_fd, wire, sizeof(wire));
  ::close(port_fd);
  if (!started.ok()) {
    log_warn() << "shard " << index << " failed to start: "
               << started.message();
    ::_exit(1);
  }
  char byte;
  while (::read(life_fd, &byte, 1) > 0) {
  }
  server.stop();
  ::_exit(0);
}

}  // namespace

struct ShardCoordinator::Impl {
  explicit Impl(const CoordinatorOptions& opts)
      : opts(opts), ring(opts.vnodes) {}

  CoordinatorOptions opts;

  /// One live (or dead) shard child. `info` carries the scrape-derived
  /// fields the public ShardInfo exposes.
  struct Shard {
    ShardInfo info;
    int life_wr = -1;  // closing it tells the child to exit
    std::size_t probe_failures = 0;
    obs::MetricsSnapshot metrics;  // last /metrics scrape
  };

  /// Guards shards, ring, rollup, merged — shared by the loop thread
  /// (routing), the control thread (repair + scrape), and the accessors.
  mutable std::mutex mu;
  std::vector<Shard> shards;
  HashRing ring;
  FleetRollup current_rollup;
  obs::MetricsSnapshot merged;  // shards' metrics + coordinator counters

  /// Serialises control passes (the thread's cadence vs refresh()).
  std::mutex control_mu;

  net::SocketListener listener;
  net::EventLoop loop;
  Clock::time_point start_time = Clock::now();

  std::thread loop_thread;
  std::thread control_thread;
  std::atomic<bool> stopping{false};

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> redirects{0};
  std::atomic<std::uint64_t> http_requests{0};
  std::atomic<std::uint64_t> shards_lost{0};
  std::atomic<std::uint64_t> active{0};

  // ---- front-door loop -----------------------------------------------------
  //
  // Every connection gets exactly one reply: an HTTP response, a redirect
  // HELLO_ACK naming the owning shard, or a typed ERROR. It then closes
  // once that reply is flushed, so the coordinator never carries session
  // traffic.

  struct Conn {
    net::TcpChannel channel;
    enum class State { kSniff, kWire, kHttp } state = State::kSniff;
    std::string http_request;  // bytes accumulated in HTTP mode
    bool replied = false;      // reply queued: close once it is flushed
  };

  std::unordered_map<int, Conn> conns;  // loop-thread only

  /// The front door's HTTP paths, in the order the 404 body lists them.
  const std::vector<net::HttpRoute> http_routes = {
      {"/metrics", "text/plain; version=0.0.4",
       [this](std::string&) {
         std::lock_guard<std::mutex> lock(mu);
         return obs::prometheus_text(merged);
       }},
      {"/healthz", "application/json",
       [this](std::string& status) { return healthz_json(status); }},
      {"/statusz", "application/json",
       [this](std::string&) { return statusz_json(); }},
  };

  void loop_main() {
    std::vector<net::PollEvent> events;
    while (!stopping.load(std::memory_order_relaxed)) {
      (void)loop.wait(events, /*timeout_ms=*/100);
      if (stopping.load(std::memory_order_relaxed)) break;
      for (const net::PollEvent& ev : events) {
        if (ev.fd == listener.fd()) {
          accept_pending();
          continue;
        }
        auto it = conns.find(ev.fd);
        if (it == conns.end()) continue;
        if (ev.writable || ev.error) on_writable(ev.fd, it->second);
        it = conns.find(ev.fd);
        if ((ev.readable || ev.error) && it != conns.end()) {
          on_readable(ev.fd, it->second);
        }
      }
    }
    for (auto& [fd, conn] : conns) loop.remove(fd);
    conns.clear();
    active.store(0, std::memory_order_relaxed);
  }

  void accept_pending() {
    for (;;) {
      auto accepted_sock = listener.accept_one();
      if (!accepted_sock.ok() || !accepted_sock.value().has_value()) return;
      Conn conn;
      conn.channel = net::TcpChannel(*std::move(accepted_sock).take());
      const int fd = conn.channel.fd();
      conns.emplace(fd, std::move(conn));
      (void)loop.add(fd, /*want_read=*/true, /*want_write=*/false);
      accepted.fetch_add(1, std::memory_order_relaxed);
      active.store(conns.size(), std::memory_order_relaxed);
    }
  }

  void close_conn(int fd) {
    loop.remove(fd);
    conns.erase(fd);  // the channel closes the socket
    active.store(conns.size(), std::memory_order_relaxed);
  }

  /// Reads until the reply is queued, writes while it is pending.
  void update_interest(int fd, const Conn& conn) {
    (void)loop.modify(fd, !conn.replied, conn.channel.want_write());
  }

  void on_writable(int fd, Conn& conn) {
    if (!conn.channel.flush_some().ok() ||
        (conn.replied && !conn.channel.want_write())) {
      close_conn(fd);
      return;
    }
    update_interest(fd, conn);
  }

  void on_readable(int fd, Conn& conn) {
    if (conn.state == Conn::State::kSniff) {
      const net::PortTraffic traffic = net::sniff_traffic(fd);
      if (traffic == net::PortTraffic::kPending) return;
      conn.state = traffic == net::PortTraffic::kHttp ? Conn::State::kHttp
                                                      : Conn::State::kWire;
    }
    if (conn.state == Conn::State::kHttp) {
      const net::HttpRead read = net::read_http_request(fd, conn.http_request);
      if (read == net::HttpRead::kDrop) close_conn(fd);
      if (read != net::HttpRead::kComplete) return;
      http_requests.fetch_add(1, std::memory_order_relaxed);
      const std::string response =
          net::http_response(conn.http_request, http_routes);
      (void)conn.channel.send_raw(
          ByteSpan(reinterpret_cast<const std::uint8_t*>(response.data()),
                   response.size()));
      reply_queued(fd, conn);
      return;
    }
    bool closed = false;
    if (!conn.channel.read_some(&closed).ok()) {
      close_conn(fd);
      return;
    }
    auto frame = conn.channel.next_frame();
    if (!frame.ok()) {
      send_error(fd, conn, core::FailureKind::kDecodeError, frame.message());
    } else if (frame.value().has_value()) {
      route(fd, conn, *frame.value());
    } else if (closed) {
      close_conn(fd);
    }
  }

  /// The first frame must be a HELLO: answer it with a redirect to the
  /// shard that owns its device.
  void route(int fd, Conn& conn, const net::Frame& frame) {
    if (frame.kind != net::FrameKind::kHello) {
      send_error(fd, conn, core::FailureKind::kDecodeError,
                 "coordinator expects a HELLO frame first");
      return;
    }
    auto hello = net::HelloMsg::decode(frame.payload);
    if (!hello.ok()) {
      send_error(fd, conn, core::FailureKind::kDecodeError, hello.message());
      return;
    }
    std::uint16_t shard_port = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      const std::string& node = ring.owner(hello.value().device_id);
      if (!node.empty()) {
        for (const Shard& shard : shards) {
          if (shard.info.alive &&
              shard_node_label(shard.info.index) == node) {
            shard_port = shard.info.port;
            break;
          }
        }
      }
    }
    if (shard_port == 0) {
      send_error(fd, conn, core::FailureKind::kDeviceError,
                 "no shard available for device");
      return;
    }
    net::HelloAckMsg ack;
    ack.command_count = 0;  // the owning shard states the real schedule
    ack.redirect_host = opts.host;
    ack.redirect_port = shard_port;
    redirects.fetch_add(1, std::memory_order_relaxed);
    (void)conn.channel.send(net::FrameKind::kHelloAck, ack.encode());
    reply_queued(fd, conn);
  }

  void send_error(int fd, Conn& conn, core::FailureKind kind,
                  std::string detail) {
    net::ErrorMsg msg;
    msg.failure = kind;
    msg.detail = std::move(detail);
    (void)conn.channel.send(net::FrameKind::kError, msg.encode());
    reply_queued(fd, conn);
  }

  /// The connection's one reply is queued: close now if it went out in
  /// full, else once on_writable has flushed it.
  void reply_queued(int fd, Conn& conn) {
    conn.replied = true;
    if (!conn.channel.want_write()) {
      close_conn(fd);
    } else {
      update_interest(fd, conn);
    }
  }

  // ---- HTTP (front-door operability) ---------------------------------------

  std::string healthz_json(std::string& status) {
    std::size_t alive = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (const Shard& shard : shards) alive += shard.info.alive ? 1 : 0;
    }
    if (alive == 0) status = "503 Service Unavailable";
    return std::string("{\"status\":") +
           (alive != 0 ? "\"ok\"" : "\"no-shards\"") +
           ",\"shards_alive\":" + std::to_string(alive) + "}\n";
  }

  std::string statusz_json() {
    std::ostringstream out;
    std::lock_guard<std::mutex> lock(mu);
    out << "{\"role\":\"coordinator\",\"uptime_ms\":"
        << std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now() - start_time)
               .count()
        << ",\"routing\":{\"accepted\":"
        << accepted.load(std::memory_order_relaxed)
        << ",\"redirects\":" << redirects.load(std::memory_order_relaxed)
        << ",\"http_requests\":"
        << http_requests.load(std::memory_order_relaxed)
        << ",\"shards_lost\":" << shards_lost.load(std::memory_order_relaxed)
        << "}"
        << ",\"ring\":{\"vnodes\":" << ring.vnodes_per_node()
        << ",\"nodes\":[";
    bool first = true;
    for (const std::string& node : ring.nodes()) {
      if (!first) out << ',';
      first = false;
      out << '"' << obs::json_escape(node) << '"';
    }
    out << "]},\"shards\":[";
    first = true;
    for (const Shard& shard : shards) {
      if (!first) out << ',';
      first = false;
      out << "{\"index\":" << shard.info.index
          << ",\"pid\":" << shard.info.pid
          << ",\"port\":" << shard.info.port
          << ",\"alive\":" << (shard.info.alive ? "true" : "false")
          << ",\"sessions_completed\":" << shard.info.sessions_completed
          << ",\"sessions_attested\":" << shard.info.sessions_attested
          << ",\"audit_entries\":" << shard.info.audit_entries
          << ",\"audit_head\":\""
          << to_hex(ByteSpan(shard.info.audit_head.data(),
                             shard.info.audit_head.size()))
          << "\"}";
    }
    out << "],\"fleet\":{\"merkle_root\":\""
        << to_hex(ByteSpan(current_rollup.root.data(),
                           current_rollup.root.size()))
        << "\",\"shards_covered\":" << current_rollup.shards_covered
        << ",\"audit_entries\":" << current_rollup.audit_entries << "}}\n";
    return out.str();
  }

  // ---- control thread ------------------------------------------------------

  void control_main() {
    while (!stopping.load(std::memory_order_relaxed)) {
      control_pass();
      const auto interval =
          std::chrono::milliseconds(std::max<std::uint64_t>(
              opts.health_interval_ms, 10));
      const auto deadline = Clock::now() + interval;
      while (!stopping.load(std::memory_order_relaxed) &&
             Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  /// One repair + scrape + rollup cycle. Serialised by control_mu so the
  /// control thread's cadence and a test's refresh() never interleave.
  void control_pass() {
    std::lock_guard<std::mutex> control_lock(control_mu);
    reap_children();
    scrape_shards();
    recompute_rollup();
  }

  void reap_children() {
    std::lock_guard<std::mutex> lock(mu);
    for (Shard& shard : shards) {
      if (!shard.info.alive || shard.info.pid <= 0) continue;
      int wstatus = 0;
      const pid_t got = ::waitpid(shard.info.pid, &wstatus, WNOHANG);
      if (got == shard.info.pid) {
        mark_shard_dead_locked(shard, "child exited");
      }
    }
  }

  /// Ring repair, quarantine-style: the shard keeps its table entry (and
  /// its last audit head — its chain stays covered by the fleet root) but
  /// leaves the ring, so only its ~1/N of the device space moves.
  void mark_shard_dead_locked(Shard& shard, const char* why) {
    shard.info.alive = false;
    ring.remove_node(shard_node_label(shard.info.index));
    shards_lost.fetch_add(1, std::memory_order_relaxed);
    (log_warn() << "coordinator lost shard")
        .kv("shard", shard.info.index)
        .kv("pid", shard.info.pid)
        .kv("why", why)
        .kv("ring_nodes", ring.node_count());
  }

  void scrape_shards() {
    // Snapshot the scrape targets without holding `mu` across the HTTP
    // round-trips (the loop thread routes under `mu`).
    struct Target {
      std::size_t index;
      std::uint16_t port;
    };
    std::vector<Target> targets;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (const Shard& shard : shards) {
        if (shard.info.alive) {
          targets.push_back({shard.info.index, shard.info.port});
        }
      }
    }
    struct Scrape {
      std::size_t index;
      bool ok = false;
      std::uint64_t completed = 0;
      std::uint64_t attested = 0;
      std::uint64_t audit_entries = 0;
      crypto::Sha256Digest audit_head{};
      obs::MetricsSnapshot metrics;
    };
    std::vector<Scrape> scrapes;
    for (const Target& target : targets) {
      Scrape scrape;
      scrape.index = target.index;
      const std::string status =
          http_get_body(opts.host, target.port, "/statusz", kScrapeTimeoutMs);
      if (!status.empty()) {
        scrape.ok = true;
        const std::size_t sessions = status.find("\"sessions\":{");
        if (sessions != std::string::npos) {
          (void)json_u64_after(status, sessions, "completed",
                               &scrape.completed);
          (void)json_u64_after(status, sessions, "attested",
                               &scrape.attested);
        }
        const std::size_t audit = status.find("\"audit\":{");
        if (audit != std::string::npos) {
          (void)json_u64_after(status, audit, "entries",
                               &scrape.audit_entries);
          const std::string head_key = "\"head\":\"";
          const std::size_t head = status.find(head_key, audit);
          if (head != std::string::npos) {
            (void)parse_digest_hex(
                status.substr(head + head_key.size(), 64),
                &scrape.audit_head);
          }
        }
        const std::string metrics_text =
            http_get_body(opts.host, target.port, "/metrics", kScrapeTimeoutMs);
        if (!metrics_text.empty()) {
          scrape.metrics = obs::parse_prometheus_text(metrics_text);
        }
      }
      scrapes.push_back(std::move(scrape));
    }
    std::lock_guard<std::mutex> lock(mu);
    for (Scrape& scrape : scrapes) {
      if (scrape.index >= shards.size()) continue;
      Shard& shard = shards[scrape.index];
      if (!scrape.ok) {
        if (!shard.info.alive) continue;
        if (++shard.probe_failures >= opts.probe_failure_limit) {
          // Wedged but not exited: kill it so the kernel reclaims the
          // port, then repair the ring the same way as a crash.
          if (shard.info.pid > 0) (void)::kill(shard.info.pid, SIGKILL);
          mark_shard_dead_locked(shard, "health probe failures");
        }
        continue;
      }
      shard.probe_failures = 0;
      shard.info.scraped = true;
      shard.info.sessions_completed = scrape.completed;
      shard.info.sessions_attested = scrape.attested;
      shard.info.audit_entries = scrape.audit_entries;
      shard.info.audit_head = scrape.audit_head;
      shard.metrics = std::move(scrape.metrics);
    }
  }

  void recompute_rollup() {
    std::lock_guard<std::mutex> lock(mu);
    FleetRollup rollup;
    for (const Shard& shard : shards) {
      if (!shard.info.scraped) continue;
      rollup.leaves.push_back(shard.info.audit_head);
      rollup.audit_entries += shard.info.audit_entries;
      ++rollup.shards_covered;
    }
    rollup.root = crypto::merkle_root(
        std::span<const crypto::Sha256Digest>(rollup.leaves));
    current_rollup = std::move(rollup);
    // Re-merge the fleet /metrics view: coordinator counters first, then
    // every shard's last scrape folded in (counters summed, histogram
    // buckets merged element-wise).
    obs::MetricsSnapshot next;
    next.counters.push_back(
        {"sacha.coord.accepted", accepted.load(std::memory_order_relaxed)});
    next.counters.push_back(
        {"sacha.coord.redirects", redirects.load(std::memory_order_relaxed)});
    next.counters.push_back(
        {"sacha.coord.shards_lost",
         shards_lost.load(std::memory_order_relaxed)});
    for (const Shard& shard : shards) {
      obs::merge_into(next, shard.metrics);
    }
    merged = std::move(next);
  }
};

ShardCoordinator::ShardCoordinator(const CoordinatorOptions& options)
    : options_(options) {}

ShardCoordinator::~ShardCoordinator() { stop(); }

Status ShardCoordinator::start() {
  if (impl_ != nullptr) return Status::error("coordinator already started");
  if (options_.shards == 0) return Status::error("shards must be >= 1");
  auto impl = std::make_unique<Impl>(options_);
  // Fork every shard before any coordinator thread exists: fork() from a
  // multithreaded process would clone only the calling thread and leave
  // the child's locks in undefined hands.
  for (std::size_t i = 0; i < options_.shards; ++i) {
    int port_pipe[2];
    int life_pipe[2];
    if (::pipe(port_pipe) != 0) return Status::error("pipe failed");
    if (::pipe(life_pipe) != 0) {
      ::close(port_pipe[0]);
      ::close(port_pipe[1]);
      return Status::error("pipe failed");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(port_pipe[0]);
      ::close(port_pipe[1]);
      ::close(life_pipe[0]);
      ::close(life_pipe[1]);
      return Status::error("fork failed");
    }
    if (pid == 0) {
      ::close(port_pipe[0]);
      ::close(life_pipe[1]);
      // Drop the life-pipe write ends inherited from earlier siblings so
      // shard k's exit is not kept pending by shard k+1 holding them open.
      for (const Impl::Shard& sibling : impl->shards) {
        if (sibling.life_wr >= 0) ::close(sibling.life_wr);
      }
      run_shard_child(options_, i, port_pipe[1], life_pipe[0]);
    }
    ::close(port_pipe[1]);
    ::close(life_pipe[0]);
    std::uint8_t wire[2] = {0, 0};
    std::size_t got = 0;
    while (got < sizeof(wire)) {
      const ssize_t n =
          ::read(port_pipe[0], wire + got, sizeof(wire) - got);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    ::close(port_pipe[0]);
    const std::uint16_t shard_port =
        static_cast<std::uint16_t>((wire[0] << 8) | wire[1]);
    if (got != sizeof(wire) || shard_port == 0) {
      ::close(life_pipe[1]);
      (void)::kill(pid, SIGKILL);
      (void)::waitpid(pid, nullptr, 0);
      // Tear down the shards already started before reporting failure.
      for (Impl::Shard& shard : impl->shards) {
        if (shard.life_wr >= 0) ::close(shard.life_wr);
        if (shard.info.pid > 0) {
          (void)::kill(shard.info.pid, SIGKILL);
          (void)::waitpid(shard.info.pid, nullptr, 0);
        }
      }
      return Status::error("shard " + std::to_string(i) +
                           " failed to start");
    }
    Impl::Shard shard;
    shard.info.index = i;
    shard.info.pid = pid;
    shard.info.port = shard_port;
    shard.info.alive = true;
    shard.life_wr = life_pipe[1];
    impl->shards.push_back(std::move(shard));
    impl->ring.add_node(shard_node_label(i));
  }

  auto listener =
      net::SocketListener::listen(options_.host, options_.port,
                                  options_.listen_backlog);
  if (!listener.ok()) {
    for (Impl::Shard& shard : impl->shards) {
      if (shard.life_wr >= 0) ::close(shard.life_wr);
      if (shard.info.pid > 0) {
        (void)::kill(shard.info.pid, SIGKILL);
        (void)::waitpid(shard.info.pid, nullptr, 0);
      }
    }
    return Status::error(listener.message());
  }
  impl->listener = std::move(listener).take();
  Status st = impl->loop.add(impl->listener.fd(), true, false);
  if (!st.ok()) return st;
  port_ = impl->listener.bound_port();
  impl_ = impl.release();
  impl_->loop_thread = std::thread([this] { impl_->loop_main(); });
  impl_->control_thread = std::thread([this] { impl_->control_main(); });
  (log_info() << "coordinator listening")
      .kv("host", options_.host)
      .kv("port", port_)
      .kv("shards", options_.shards)
      .kv("vnodes", options_.vnodes);
  return Status();
}

void ShardCoordinator::stop() {
  if (impl_ == nullptr) return;
  impl_->stopping.store(true, std::memory_order_relaxed);
  if (impl_->loop_thread.joinable()) impl_->loop_thread.join();
  if (impl_->control_thread.joinable()) impl_->control_thread.join();
  impl_->listener.close();
  // Life-pipe EOF asks each child to drain and exit; SIGKILL after a
  // bounded wait covers a wedged child.
  for (Impl::Shard& shard : impl_->shards) {
    if (shard.life_wr >= 0) {
      ::close(shard.life_wr);
      shard.life_wr = -1;
    }
  }
  for (Impl::Shard& shard : impl_->shards) {
    if (shard.info.pid <= 0) continue;
    bool reaped = false;
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (::waitpid(shard.info.pid, nullptr, WNOHANG) == shard.info.pid) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      (void)::kill(shard.info.pid, SIGKILL);
      (void)::waitpid(shard.info.pid, nullptr, 0);
    }
    shard.info.alive = false;
  }
  delete impl_;
  impl_ = nullptr;
}

std::size_t ShardCoordinator::shard_count() const {
  if (impl_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->shards.size();
}

std::size_t ShardCoordinator::alive_shards() const {
  if (impl_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::size_t alive = 0;
  for (const Impl::Shard& shard : impl_->shards) {
    alive += shard.info.alive ? 1 : 0;
  }
  return alive;
}

ShardInfo ShardCoordinator::shard(std::size_t index) const {
  if (impl_ == nullptr) return ShardInfo{};
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (index >= impl_->shards.size()) return ShardInfo{};
  return impl_->shards[index].info;
}

std::size_t ShardCoordinator::owner_index(std::string_view device_id) const {
  if (impl_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(impl_->mu);
  const std::string& node = impl_->ring.owner(device_id);
  for (const Impl::Shard& shard : impl_->shards) {
    if (shard_node_label(shard.info.index) == node) return shard.info.index;
  }
  return impl_->shards.size();
}

CoordinatorStats ShardCoordinator::stats() const {
  CoordinatorStats out;
  if (impl_ == nullptr) return out;
  out.accepted = impl_->accepted.load(std::memory_order_relaxed);
  out.redirects = impl_->redirects.load(std::memory_order_relaxed);
  out.http_requests = impl_->http_requests.load(std::memory_order_relaxed);
  out.shards_lost = impl_->shards_lost.load(std::memory_order_relaxed);
  out.active = impl_->active.load(std::memory_order_relaxed);
  return out;
}

Status ShardCoordinator::kill_shard(std::size_t index) {
  if (impl_ == nullptr) return Status::error("coordinator not started");
  pid_t pid = -1;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (index >= impl_->shards.size()) {
      return Status::error("no such shard");
    }
    if (!impl_->shards[index].info.alive) {
      return Status::error("shard already dead");
    }
    pid = impl_->shards[index].info.pid;
  }
  if (pid <= 0 || ::kill(pid, SIGKILL) != 0) {
    return Status::error("kill failed");
  }
  return Status();
}

void ShardCoordinator::refresh() {
  if (impl_ == nullptr) return;
  impl_->control_pass();
}

FleetRollup ShardCoordinator::rollup() {
  if (impl_ == nullptr) return FleetRollup{};
  impl_->control_pass();
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->current_rollup;
}

}  // namespace sacha::shard
