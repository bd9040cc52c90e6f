#include "net/attest_server.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/log.hpp"
#include "core/audit.hpp"
#include "core/session.hpp"
#include "crypto/aes.hpp"
#include "net/http.hpp"
#include "net/tcp.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace sacha::net {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ms_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            start)
          .count());
}

/// RESPONSE frame payload: u8 has_response + optional Response::encode().
Result<std::optional<core::Response>> parse_response_payload(ByteSpan payload) {
  using Out = Result<std::optional<core::Response>>;
  if (payload.empty()) return Out::error("empty RESPONSE payload");
  if (payload[0] == 0) {
    if (payload.size() != 1) return Out::error("trailing bytes after empty RESPONSE");
    return Out(std::optional<core::Response>(std::nullopt));
  }
  auto decoded =
      core::Response::decode(ByteSpan(payload.data() + 1, payload.size() - 1));
  if (!decoded.ok()) return Out::error(decoded.message());
  return Out(std::optional<core::Response>(std::move(decoded).take()));
}

}  // namespace

struct AttestServer::Impl {
  /// One prover connection (or one HTTP scrape). Only the loop thread
  /// touches it.
  struct Conn {
    std::uint64_t id = 0;
    TcpChannel channel;
    enum class State { kSniff, kRunning, kHttp } state = State::kSniff;
    HelloMsg hello;
    std::optional<core::SachaVerifier> verifier;
    std::optional<core::VerifierSession> session;
    Clock::time_point last_activity = Clock::now();
    Clock::time_point session_start = Clock::now();
    /// RESPONSE frames seen by the loop; bounds the pipelined window
    /// (issued <= responses_seen + command_window).
    std::size_t responses_seen = 0;
    /// Counted in sessions_active: HELLO accepted, verdict not yet sent.
    bool session_open = false;
    std::string http_request;  // bytes accumulated in HTTP mode
    bool http_answered = false;  // response queued: read no further
    bool finished = false;       // report produced (or quarantined)
    bool want_close = false;     // close once the outgoing buffer drains
    /// UPDATE_OFFER followed the REPORT; the connection stays open for
    /// exactly one UPDATE_STATUS answer (or the idle timeout).
    bool offer_pending = false;
  };

  explicit Impl(const AttestServerOptions& opts)
      : opts(opts),
        slo({.latency_objective_ns = opts.slo_latency_ms * 1'000'000,
             .target = opts.slo_target}) {}

  AttestServerOptions opts;
  SocketListener listener;
  EventLoop loop;
  obs::SloTracker slo;
  /// The HTTP paths served on the attestation port, in the order the 404
  /// body lists them. Every handler runs on the loop thread.
  const std::vector<HttpRoute> http_routes = {
      {"/metrics", "text/plain; version=0.0.4",
       [](std::string&) {
         return obs::prometheus_text(obs::MetricsRegistry::global().snapshot());
       }},
      {"/healthz", "application/json",
       [this](std::string& status) { return healthz_json(status); }},
      {"/statusz", "application/json",
       [this](std::string&) { return statusz_json(); }},
      {"/tracez", "application/json",
       [this](std::string&) { return tracez_json(); }},
  };
  Clock::time_point start_time = Clock::now();
  /// Loop-liveness heartbeat for /healthz: stamped every loop iteration.
  std::atomic<std::uint64_t> last_tick_ms{0};

  /// One /statusz quarantine-table entry. Written and read on the loop
  /// thread only (close_conn and serve_http both run there) — no lock.
  struct QuarantineEntry {
    std::uint64_t conn_id = 0;
    std::string device;
    std::string trace;
    std::uint64_t at_ms = 0;  // ms since server start
  };
  std::deque<QuarantineEntry> recent_quarantines;  // loop-thread-only

  /// /tracez ring: the most recent sampled cross-process timelines
  /// (verifier-side spans; the prover half lives in the client process).
  /// Loop-thread-only, like recent_quarantines.
  struct TracezEntry {
    std::string device;
    obs::TraceId trace{};
    std::uint64_t wall_ns = 0;
    bool attested = false;
    std::vector<obs::SpanRecord> spans;
  };
  std::deque<TracezEntry> tracez;
  /// One reference per distinct golden model provisioned (one per device
  /// type), held until stop(). GoldenModel interns weakly, so without it a
  /// HELLO would find its model interned only while another session of its
  /// type is in flight, and a cold rebuild stalls every session on the
  /// loop. Loop-thread-only.
  std::set<std::shared_ptr<const bitstream::GoldenModel>> provisioned_models;
  /// Wakes the loop for stop() and begin_drain().
  int wake_rd = -1;
  int wake_wr = -1;
  std::thread loop_thread;
  std::atomic<bool> stopping{false};
  /// Graceful-shutdown state: once draining, new HELLOs are refused and
  /// in-flight sessions run out; past the deadline (ms since start_time,
  /// 0 = none) stragglers are closed and quarantined.
  std::atomic<bool> draining{false};
  std::atomic<std::uint64_t> drain_deadline_ms{0};

  // Loop-thread-only connection table.
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  std::uint64_t next_conn_id = 0;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> attested{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> quarantined{0};
  std::atomic<std::uint64_t> http_requests{0};
  std::atomic<std::uint64_t> peak{0};
  std::atomic<std::uint64_t> active{0};  // conns.size(), readable off-loop
  std::atomic<std::uint64_t> sessions_active{0};
  std::atomic<std::uint64_t> updates_offered{0};
  std::atomic<std::uint64_t> updates_accepted{0};
  std::atomic<std::uint64_t> updates_rejected{0};
  std::atomic<std::uint64_t> drain_refusals{0};
  // Golden-model provisioning tier hits (model_cache_dir path; without a
  // cache dir every provision counts as built).
  std::atomic<std::uint64_t> models_interned{0};
  std::atomic<std::uint64_t> models_loaded{0};
  std::atomic<std::uint64_t> models_mapped{0};
  std::atomic<std::uint64_t> models_built{0};

  /// Hash-chained record of every finished session. The loop appends;
  /// stats(), audit_head() and audit_verify() read from other threads, so
  /// both take the mutex.
  std::mutex audit_mu;
  core::AuditLog audit;

  void wake() {
    const char byte = 1;
    (void)!::write(wake_wr, &byte, 1);  // EAGAIN = already pending, fine
  }

  obs::Gauge& connections_gauge() {
    static obs::Gauge& g =
        obs::MetricsRegistry::global().gauge("sacha.attestd.connections");
    return g;
  }

  // ---- loop thread ---------------------------------------------------------

  void loop_main() {
    std::vector<PollEvent> events;
    while (!stopping.load(std::memory_order_relaxed)) {
      last_tick_ms.store(ms_since(start_time), std::memory_order_relaxed);
      (void)loop.wait(events, /*timeout_ms=*/100);
      if (stopping.load(std::memory_order_relaxed)) break;
      for (const PollEvent& ev : events) {
        if (ev.fd == listener.fd()) {
          accept_pending();
        } else if (ev.fd == wake_rd) {
          drain_wake_pipe();
        } else {
          auto it = conns.find(ev.fd);
          if (it == conns.end()) continue;
          std::shared_ptr<Conn> conn = it->second;
          if (ev.writable || ev.error) on_writable(conn);
          if ((ev.readable || ev.error) && conns.count(ev.fd)) {
            on_readable(conn);
          }
        }
      }
      scan_timeouts();
      scan_drain();
    }
    for (auto& [fd, conn] : conns) {
      loop.remove(fd);
      conn->channel.close();
    }
    conns.clear();
    connections_gauge().set(0);
  }

  void accept_pending() {
    for (;;) {
      auto accepted_sock = listener.accept_one();
      if (!accepted_sock.ok()) {
        log_warn() << "attestd accept failed: " << accepted_sock.message();
        return;
      }
      if (!accepted_sock.value().has_value()) return;  // drained
      auto conn = std::make_shared<Conn>();
      conn->id = next_conn_id++;
      conn->channel = TcpChannel(*std::move(accepted_sock).take());
      const int fd = conn->channel.fd();
      conns.emplace(fd, conn);
      (void)loop.add(fd, /*want_read=*/true, /*want_write=*/false);
      accepted.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& accepted_ctr =
          obs::MetricsRegistry::global().counter("sacha.attestd.accepted");
      accepted_ctr.add(1);
      active.store(conns.size(), std::memory_order_relaxed);
      connections_gauge().set(static_cast<std::int64_t>(conns.size()));
      std::uint64_t prev = peak.load(std::memory_order_relaxed);
      while (conns.size() > prev &&
             !peak.compare_exchange_weak(prev, conns.size())) {
      }
    }
  }

  void drain_wake_pipe() {
    char buf[256];
    while (::read(wake_rd, buf, sizeof(buf)) > 0) {
    }
  }

  void update_interest(const std::shared_ptr<Conn>& conn) {
    if (!conn->channel.open()) return;
    (void)loop.modify(conn->channel.fd(), !conn->http_answered,
                      conn->channel.want_write());
  }

  void on_writable(const std::shared_ptr<Conn>& conn) {
    if (!conn->channel.open()) return;
    if (!conn->channel.flush_some().ok()) {
      close_conn(conn, mid_session(conn));
      return;
    }
    if (conn->want_close && !conn->channel.want_write()) {
      close_conn(conn, /*mid_session=*/false);
      return;
    }
    update_interest(conn);
  }

  void end_session_slot(Conn& conn) {
    if (!conn.session_open) return;
    conn.session_open = false;
    sessions_active.fetch_sub(1, std::memory_order_relaxed);
  }

  bool mid_session(const std::shared_ptr<Conn>& conn) {
    return conn->session.has_value() && !conn->finished;
  }

  void on_readable(const std::shared_ptr<Conn>& conn) {
    conn->last_activity = Clock::now();
    if (conn->state == Conn::State::kSniff) {
      const PortTraffic traffic = sniff_traffic(conn->channel.fd());
      if (traffic == PortTraffic::kPending) return;
      conn->state = traffic == PortTraffic::kHttp && opts.metrics_endpoint
                        ? Conn::State::kHttp
                        : Conn::State::kRunning;
    }
    if (conn->state == Conn::State::kHttp) {
      serve_http(conn);
      return;
    }
    bool closed = false;
    if (!conn->channel.read_some(&closed).ok()) {
      close_conn(conn, mid_session(conn));
      return;
    }
    for (;;) {
      auto frame = conn->channel.next_frame();
      if (!frame.ok()) {
        // Undecodable stream: typed abort, then drop the connection.
        abort_conn(conn, core::FailureKind::kDecodeError, frame.message(),
                   mid_session(conn));
        return;
      }
      if (!frame.value().has_value()) break;
      if (!handle_frame(conn, *std::move(frame).take())) return;
    }
    if (closed) {
      close_conn(conn, mid_session(conn));
      return;
    }
    update_interest(conn);
  }

  void serve_http(const std::shared_ptr<Conn>& conn) {
    const HttpRead read =
        read_http_request(conn->channel.fd(), conn->http_request);
    if (read == HttpRead::kDrop) close_conn(conn, /*mid_session=*/false);
    if (read != HttpRead::kComplete) return;
    http_requests.fetch_add(1, std::memory_order_relaxed);
    const std::string response = http_response(conn->http_request, http_routes);
    (void)conn->channel.send_raw(
        ByteSpan(reinterpret_cast<const std::uint8_t*>(response.data()),
                 response.size()));
    conn->http_answered = true;
    conn->want_close = true;
    if (!conn->channel.want_write()) {
      close_conn(conn, /*mid_session=*/false);
    } else {
      update_interest(conn);
    }
  }

  // ---- operability endpoints (all built on the loop thread) ----------------

  /// /healthz: loop liveness and sessions in flight (HELLO accepted,
  /// verdict not yet sent — never the probe's own connection). Serving it
  /// at all proves the loop is turning (serve_http runs on the loop
  /// thread); the tick-age field is for sidecar probes that read the body
  /// and alert on staleness rather than on connect failures.
  std::string healthz_json(std::string& status) {
    const std::uint64_t now_ms = ms_since(start_time);
    const std::uint64_t tick = last_tick_ms.load(std::memory_order_relaxed);
    const std::uint64_t age_ms = now_ms > tick ? now_ms - tick : 0;
    const bool live = age_ms <= 5000;
    if (!live) status = "503 Service Unavailable";
    // Draining is healthy-but-leaving: 200 so sidecars don't page, status
    // "draining" so load balancers stop routing new provers here.
    const char* state = !live ? "\"stale\""
                              : (draining.load(std::memory_order_relaxed)
                                     ? "\"draining\""
                                     : "\"ok\"");
    std::ostringstream out;
    out << "{\"status\":" << state << ",\"loop_tick_age_ms\":" << age_ms
        << ",\"active_sessions\":"
        << sessions_active.load(std::memory_order_relaxed)
        << ",\"uptime_ms\":" << now_ms << "}\n";
    return out.str();
  }

  /// /statusz: uptime + build info, session counters, SLO state, session
  /// latency quantiles, the live connection table, and recent quarantines.
  /// Runs on the loop thread, so `conns` and `recent_quarantines` are read
  /// lock-free.
  std::string statusz_json() {
    std::ostringstream out;
    out << "{\"uptime_ms\":" << ms_since(start_time)
        << ",\"build\":{\"aes_tier\":\""
        << crypto::to_string(crypto::Aes128::resolve(crypto::AesImpl::kAuto))
        << "\",\"wire_version\":" << static_cast<unsigned>(kWireVersion)
        << "}"
        << ",\"sessions\":{\"accepted\":"
        << accepted.load(std::memory_order_relaxed)
        << ",\"completed\":" << completed.load(std::memory_order_relaxed)
        << ",\"attested\":" << attested.load(std::memory_order_relaxed)
        << ",\"failed\":" << failed.load(std::memory_order_relaxed)
        << ",\"quarantined\":" << quarantined.load(std::memory_order_relaxed)
        << ",\"active\":" << sessions_active.load(std::memory_order_relaxed)
        << ",\"http_requests\":"
        << http_requests.load(std::memory_order_relaxed) << "}";
    // Golden-model provisioning tiers and the audit chain head — the shard
    // coordinator scrapes both (cache efficacy per shard; Merkle leaf).
    out << ",\"golden_models\":{\"interned\":"
        << models_interned.load(std::memory_order_relaxed)
        << ",\"loaded\":" << models_loaded.load(std::memory_order_relaxed)
        << ",\"mapped\":" << models_mapped.load(std::memory_order_relaxed)
        << ",\"built\":" << models_built.load(std::memory_order_relaxed)
        << "}";
    {
      std::lock_guard<std::mutex> lock(audit_mu);
      out << ",\"audit\":{\"entries\":" << audit.size() << ",\"head\":\""
          << to_hex(ByteSpan(audit.head().data(), audit.head().size()))
          << "\"}";
    }
    out << ",\"slo\":{\"latency_objective_ms\":" << opts.slo_latency_ms
        << ",\"target\":" << opts.slo_target << ",\"total\":" << slo.total()
        << ",\"good\":" << slo.good()
        << ",\"budget_remaining_ppm\":" << slo.budget_remaining_ppm()
        << ",\"burn_rate_milli\":" << slo.burn_rate_milli() << "}";
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    for (const auto& hist : snap.histograms) {
      if (hist.name != "sacha.attestd.session_ns") continue;
      out << ",\"session_latency_ns\":{\"count\":" << hist.count << ",\"p50\":"
          << static_cast<std::uint64_t>(obs::quantile_from_sample(hist, 0.50))
          << ",\"p90\":"
          << static_cast<std::uint64_t>(obs::quantile_from_sample(hist, 0.90))
          << ",\"p99\":"
          << static_cast<std::uint64_t>(obs::quantile_from_sample(hist, 0.99))
          << ",\"p999\":"
          << static_cast<std::uint64_t>(obs::quantile_from_sample(hist, 0.999))
          << "}";
    }
    out << ",\"connections\":[";
    bool first = true;
    for (const auto& [fd, conn] : conns) {
      if (!first) out << ',';
      first = false;
      const char* state = conn->state == Conn::State::kSniff    ? "sniff"
                          : conn->state == Conn::State::kHttp   ? "http"
                                                                : "running";
      out << "{\"id\":" << conn->id << ",\"state\":\"" << state
          << "\",\"device\":\"" << obs::json_escape(conn->hello.device_id)
          << "\",\"trace\":\"" << obs::to_string(conn->hello.trace)
          << "\",\"sampled\":" << (conn->hello.sampled ? "true" : "false")
          << ",\"issued\":"
          << (conn->session.has_value() ? conn->session->issued() : 0)
          << ",\"responses_seen\":" << conn->responses_seen << ",\"idle_ms\":"
          << std::chrono::duration_cast<std::chrono::milliseconds>(
                 Clock::now() - conn->last_activity)
                 .count()
          << "}";
    }
    out << "],\"recent_quarantines\":[";
    first = true;
    for (const auto& q : recent_quarantines) {
      if (!first) out << ',';
      first = false;
      out << "{\"conn\":" << q.conn_id << ",\"device\":\""
          << obs::json_escape(q.device) << "\",\"trace\":\"" << q.trace
          << "\",\"at_ms\":" << q.at_ms << "}";
    }
    out << "]}\n";
    return out.str();
  }

  /// /tracez: the most recent sampled verifier-side timelines, newest last.
  /// Span times are tracer-epoch-relative ns — the same time base the Chrome
  /// trace export uses, so an entry here can be matched against the client's
  /// exported half by trace id.
  std::string tracez_json() {
    std::ostringstream out;
    out << "{\"capacity\":" << opts.tracez_capacity << ",\"timelines\":[";
    bool first_entry = true;
    for (const auto& entry : tracez) {
      if (!first_entry) out << ',';
      first_entry = false;
      out << "{\"device\":\"" << obs::json_escape(entry.device)
          << "\",\"trace\":\"" << obs::to_string(entry.trace)
          << "\",\"wall_ns\":" << entry.wall_ns
          << ",\"attested\":" << (entry.attested ? "true" : "false")
          << ",\"spans\":[";
      bool first_span = true;
      for (const auto& span : entry.spans) {
        if (!first_span) out << ',';
        first_span = false;
        out << "{\"name\":\"" << obs::json_escape(span.name)
            << "\",\"category\":\"" << obs::json_escape(span.category)
            << "\",\"start_ns\":" << span.start_ns
            << ",\"duration_ns\":" << span.duration_ns
            << ",\"depth\":" << span.depth << "}";
      }
      out << "]}";
    }
    out << "]}\n";
    return out.str();
  }

  /// Returns false when the connection was torn down.
  bool handle_frame(const std::shared_ptr<Conn>& conn, Frame frame) {
    switch (frame.kind) {
      case FrameKind::kHello:
        return handle_hello(conn, frame.payload);
      case FrameKind::kResponse:
        return handle_response(conn, frame.payload);
      case FrameKind::kUpdateStatus:
        return handle_update_status(conn, frame.payload);
      case FrameKind::kError: {
        auto msg = ErrorMsg::decode(frame.payload);
        log_warn() << "attestd: peer aborted conn " << conn->id << ": "
                   << (msg.ok() ? msg.value().detail : msg.message());
        close_conn(conn, mid_session(conn));
        return false;
      }
      default:
        abort_conn(conn, core::FailureKind::kDecodeError,
                   "unexpected frame kind", mid_session(conn));
        return false;
    }
  }

  bool handle_hello(const std::shared_ptr<Conn>& conn, const Bytes& payload) {
    if (conn->session.has_value()) {
      abort_conn(conn, core::FailureKind::kDecodeError, "duplicate HELLO",
                 /*quarantine=*/true);
      return false;
    }
    static obs::Counter& hello_accepted =
        obs::MetricsRegistry::global().counter("sacha.attestd.hello_accepted");
    static obs::Counter& hello_rejected =
        obs::MetricsRegistry::global().counter("sacha.attestd.hello_rejected");
    auto hello = HelloMsg::decode(payload);
    if (!hello.ok()) {
      hello_rejected.add(1);
      abort_conn(conn, core::FailureKind::kDecodeError, hello.message(),
                 /*quarantine=*/false);
      return false;
    }
    if (draining.load(std::memory_order_relaxed)) {
      // Phase one of graceful shutdown: no new sessions. The typed refusal
      // lets a load balancer (or the fleet client) fail over immediately
      // instead of burning its retry budget here.
      hello_rejected.add(1);
      drain_refusals.fetch_add(1, std::memory_order_relaxed);
      abort_conn(conn, core::FailureKind::kDeviceError,
                 "server draining, not accepting sessions",
                 /*quarantine=*/false);
      return false;
    }
    hello_accepted.add(1);
    conn->hello = std::move(hello).take();
    // Provision the member's verifier from the HELLO parameters alone —
    // the same construction the in-process oracle uses (provision.hpp).
    // With a model cache dir the golden model comes from the shared tiers
    // (intern -> .sgm disk cache, optionally mmap'd) instead of a rebuild.
    if (!opts.model_cache_dir.empty()) {
      bitstream::GoldenModel::CacheSource source =
          bitstream::GoldenModel::CacheSource::kBuilt;
      conn->verifier.emplace(verifier_for(
          conn->hello,
          ModelCacheConfig{opts.model_cache_dir, opts.model_map}, &source));
      switch (source) {
        case bitstream::GoldenModel::CacheSource::kInterned:
          models_interned.fetch_add(1, std::memory_order_relaxed);
          break;
        case bitstream::GoldenModel::CacheSource::kLoaded:
          models_loaded.fetch_add(1, std::memory_order_relaxed);
          break;
        case bitstream::GoldenModel::CacheSource::kMapped:
          models_mapped.fetch_add(1, std::memory_order_relaxed);
          break;
        case bitstream::GoldenModel::CacheSource::kBuilt:
          models_built.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    } else {
      conn->verifier.emplace(verifier_for(conn->hello));
      models_built.fetch_add(1, std::memory_order_relaxed);
    }
    provisioned_models.insert(conn->verifier->golden_model());
    conn->session.emplace(*conn->verifier);
    if (const auto& rejected = conn->verifier->schedule_error()) {
      // The schedule cannot cross the wire: refuse it before any command,
      // with the typed failure an in-process session reports for it.
      abort_conn(conn, core::FailureKind::kDecodeError, *rejected,
                 /*quarantine=*/false);
      return false;
    }
    // The client's head-sampling decision arrived in the HELLO; honouring
    // it (rather than re-deciding) is what makes the two processes' span
    // sets land under one trace id.
    conn->session->set_trace(conn->hello.trace, conn->hello.sampled);
    conn->session_start = Clock::now();
    conn->session_open = true;
    sessions_active.fetch_add(1, std::memory_order_relaxed);
    HelloAckMsg ack;
    ack.command_count =
        static_cast<std::uint32_t>(conn->session->command_count());
    if (!conn->channel.send(FrameKind::kHelloAck, ack.encode()).ok()) {
      close_conn(conn, /*mid_session=*/true);
      return false;
    }
    issue_commands(conn);
    update_interest(conn);
    return true;
  }

  bool handle_response(const std::shared_ptr<Conn>& conn,
                       const Bytes& payload) {
    if (!conn->session.has_value()) {
      abort_conn(conn, core::FailureKind::kDecodeError, "RESPONSE before HELLO",
                 /*quarantine=*/false);
      return false;
    }
    auto response = parse_response_payload(payload);
    if (!response.ok()) {
      abort_conn(conn, core::FailureKind::kDecodeError, response.message(),
                 /*quarantine=*/true);
      return false;
    }
    ++conn->responses_seen;
    // Slide the window first, so the prover works on the next commands
    // while this response is absorbed.
    issue_commands(conn);
    if (!conn->channel.open()) return false;
    conn->session->on_response(std::move(response).take());
    if (conn->session->done() && !conn->finished) return finish_session(conn);
    return true;
  }

  /// The prover's answer to the UPDATE_OFFER that followed its REPORT.
  /// Pure accounting: the attestation verdict is already sealed, and the
  /// device's gate decision (verified signature, staged or refused) is the
  /// fleet-rollout signal the operator watches.
  bool handle_update_status(const std::shared_ptr<Conn>& conn,
                            const Bytes& payload) {
    if (!conn->offer_pending) {
      abort_conn(conn, core::FailureKind::kDecodeError,
                 "UPDATE_STATUS without a pending offer", mid_session(conn));
      return false;
    }
    auto status = UpdateStatusMsg::decode(payload);
    if (!status.ok()) {
      abort_conn(conn, core::FailureKind::kDecodeError, status.message(),
                 /*quarantine=*/false);
      return false;
    }
    conn->offer_pending = false;
    const UpdateStatusMsg& msg = status.value();
    (msg.accepted ? updates_accepted : updates_rejected)
        .fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& accepted_ctr = obs::MetricsRegistry::global().counter(
        "sacha.attestd.updates_accepted");
    static obs::Counter& rejected_ctr = obs::MetricsRegistry::global().counter(
        "sacha.attestd.updates_rejected");
    (msg.accepted ? accepted_ctr : rejected_ctr).add(1);
    (log_info() << "attestd update status")
        .kv("conn", conn->id)
        .kv("device", conn->hello.device_id)
        .kv("version", msg.version)
        .kv("accepted", msg.accepted)
        .kv("state", msg.state)
        .kv("detail", msg.detail);
    close_conn(conn, /*mid_session=*/false);
    return false;
  }

  /// Keeps up to command_window commands in flight.
  void issue_commands(const std::shared_ptr<Conn>& conn) {
    while (conn->session->issued() <
           conn->responses_seen + opts.command_window) {
      auto wire = conn->session->next_command_wire();
      if (!wire.has_value()) return;
      if (!conn->channel.send(FrameKind::kCommand, *std::move(wire)).ok()) {
        close_conn(conn, /*mid_session=*/true);
        return;
      }
    }
  }

  void scan_timeouts() {
    if (opts.session_timeout_ms == 0) return;
    const auto cutoff =
        Clock::now() - std::chrono::milliseconds(opts.session_timeout_ms);
    std::vector<std::shared_ptr<Conn>> stale;
    for (const auto& [fd, conn] : conns) {
      if (conn->last_activity < cutoff) stale.push_back(conn);
    }
    for (const auto& conn : stale) {
      abort_conn(conn, core::FailureKind::kTimeoutExhausted,
                 "session idle timeout", mid_session(conn));
    }
  }

  /// Drain phase two: past the deadline, in-flight sessions have had their
  /// chance — close and quarantine the stragglers so stop() finds an empty
  /// table. (HELLO refusal — phase one — lives in handle_hello.)
  void scan_drain() {
    if (!draining.load(std::memory_order_relaxed)) return;
    const std::uint64_t deadline =
        drain_deadline_ms.load(std::memory_order_relaxed);
    if (deadline == 0 || ms_since(start_time) < deadline) return;
    std::vector<std::shared_ptr<Conn>> laggards;
    laggards.reserve(conns.size());
    for (const auto& [fd, conn] : conns) laggards.push_back(conn);
    for (const auto& conn : laggards) {
      abort_conn(conn, core::FailureKind::kTimeoutExhausted,
                 "server drained before session completed", mid_session(conn));
    }
  }

  /// Typed abort: one ERROR frame, then close_conn.
  void abort_conn(const std::shared_ptr<Conn>& conn, core::FailureKind kind,
                  std::string detail, bool quarantine) {
    (void)conn->channel.send(FrameKind::kError,
                             ErrorMsg{kind, std::move(detail)}.encode());
    close_conn(conn, quarantine);
  }

  /// Tears a connection down. `quarantine` marks a session the peer
  /// abandoned mid-run: counted, typed, the slot reclaimed — the server
  /// keeps serving every other connection.
  void close_conn(const std::shared_ptr<Conn>& conn, bool quarantine) {
    if (!conn->channel.open()) return;
    const int fd = conn->channel.fd();
    loop.remove(fd);
    conns.erase(fd);
    conn->channel.close();
    end_session_slot(*conn);
    if (quarantine && !conn->finished) {
      conn->finished = true;  // a quarantined session is never finished
      quarantined.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& quarantine_ctr =
          obs::MetricsRegistry::global().counter("sacha.attestd.quarantined");
      quarantine_ctr.add(1);
      // A vanished prover is an SLO miss: the operator's contract counts
      // every accepted session, not just the ones that reached a verdict.
      slo.record(static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - conn->session_start)
                         .count()),
                 /*ok=*/false);
      recent_quarantines.push_back({conn->id, conn->hello.device_id,
                                    obs::to_string(conn->hello.trace),
                                    ms_since(start_time)});
      while (recent_quarantines.size() > 32) recent_quarantines.pop_front();
      (log_warn() << "attestd: peer disconnect mid-session, quarantined")
          .kv("conn", conn->id)
          .kv("member", conn->hello.device_id)
          .kv("trace", obs::to_string(conn->hello.trace));
    }
    active.store(conns.size(), std::memory_order_relaxed);
    connections_gauge().set(static_cast<std::int64_t>(conns.size()));
  }

  /// Every response is absorbed: seals the verdict, records it, and writes
  /// the REPORT (and any UPDATE_OFFER). The verdict is recorded before the
  /// write, so a prover that closes without reading the REPORT still gets
  /// its audit entry. Returns false when the connection was torn down.
  bool finish_session(const std::shared_ptr<Conn>& conn) {
    conn->finished = true;
    core::VerifierSession::Report report = conn->session->finish();
    ReportMsg msg;
    msg.protocol_ok = report.verdict.protocol_ok;
    msg.mac_ok = report.verdict.mac_ok;
    msg.config_ok = report.verdict.config_ok;
    msg.failure = report.failure;
    if (report.expected_mac.has_value()) {
      msg.mac_present = true;
      msg.mac = *report.expected_mac;
    }
    msg.commands = report.commands;
    msg.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - conn->session_start)
            .count());
    msg.detail = report.verdict.detail;
    // Echo the timeline key so the client can stitch its spans to ours even
    // when its own HELLO record was lost (e.g. a replayed capture).
    msg.trace = conn->hello.trace;
    msg.sampled = conn->hello.sampled;
    // A staged OTA rides on attestation health: only a device that just
    // proved its configuration gets the offer (an unattested device first
    // needs escalation, not new firmware).
    const bool offer = !opts.update_offer.empty() && msg.attested();
    completed.fetch_add(1, std::memory_order_relaxed);
    (msg.attested() ? attested : failed).fetch_add(1,
                                                   std::memory_order_relaxed);
    static obs::Histogram& session_hist =
        obs::MetricsRegistry::global().quantile_histogram(
            "sacha.attestd.session_ns");
    session_hist.observe(msg.wall_ns);
    slo.record(msg.wall_ns, msg.attested());
    // Audit-chain the verdict. The wire report carries no TimeLedger, so
    // the entry records exactly what a remote auditor could check: the
    // verdict, the wall clock, and the timeline key.
    {
      core::AttestationReport audit_report;
      audit_report.verdict = report.verdict;
      audit_report.failure = report.failure;
      audit_report.total_time = msg.wall_ns;
      audit_report.trace_id = conn->hello.trace;
      std::lock_guard<std::mutex> lock(audit_mu);
      audit.append(conn->hello.device_id, conn->verifier->nonce(),
                   audit_report);
    }
    // One structured line per finished session — the access log.
    (log_info() << "attestd session")
        .kv("conn", conn->id)
        .kv("device", conn->hello.device_id)
        .kv("outcome", msg.attested() ? "attested" : "failed")
        .kv("failure", core::to_string(msg.failure))
        .kv("latency_ms", msg.wall_ns / 1'000'000)
        .kv("trace", obs::to_string(conn->hello.trace))
        .kv("sampled", conn->hello.sampled);
    if (!conn->session->timeline().empty()) {
      TracezEntry entry;
      entry.device = conn->hello.device_id;
      entry.trace = conn->hello.trace;
      entry.wall_ns = msg.wall_ns;
      entry.attested = msg.attested();
      entry.spans = conn->session->timeline();
      tracez.push_back(std::move(entry));
      while (tracez.size() > std::max<std::size_t>(opts.tracez_capacity, 1)) {
        tracez.pop_front();
      }
    }
    end_session_slot(*conn);
    Status sent = conn->channel.send(FrameKind::kReport, msg.encode());
    if (offer) {
      UpdateOfferMsg offer_msg;
      offer_msg.version = opts.update_version;
      offer_msg.manifest = opts.update_offer;
      if (sent.ok()) {
        sent = conn->channel.send(FrameKind::kUpdateOffer, offer_msg.encode());
      }
      conn->offer_pending = true;
      updates_offered.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& offered_ctr =
          obs::MetricsRegistry::global().counter(
              "sacha.attestd.updates_offered");
      offered_ctr.add(1);
    } else {
      conn->want_close = true;
    }
    if (!sent.ok() || (conn->want_close && !conn->channel.want_write())) {
      close_conn(conn, /*quarantine=*/false);
      return false;
    }
    update_interest(conn);
    return true;
  }
};

AttestServer::AttestServer(const AttestServerOptions& options)
    : options_(options) {}

AttestServer::~AttestServer() { stop(); }

Status AttestServer::start() {
  if (impl_ != nullptr) return Status::error("server already started");
  if (options_.trace_sample >= 0.0) {
    obs::Sampler::global().set_rate(options_.trace_sample);
  }
  auto impl = std::make_unique<Impl>(options_);
  auto listener =
      SocketListener::listen(options_.host, options_.port,
                             options_.listen_backlog, options_.reuseport);
  if (!listener.ok()) return Status::error(listener.message());
  impl->listener = std::move(listener).take();
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    return Status::error("pipe2 failed");
  }
  impl->wake_rd = pipe_fds[0];
  impl->wake_wr = pipe_fds[1];
  Status st = impl->loop.add(impl->listener.fd(), true, false);
  if (!st.ok()) return st;
  st = impl->loop.add(impl->wake_rd, true, false);
  if (!st.ok()) return st;

  port_ = impl->listener.bound_port();
  impl_ = impl.release();
  impl_->loop_thread = std::thread([this] { impl_->loop_main(); });
  (log_info() << "attestd listening")
      .kv("host", options_.host)
      .kv("port", port_);
  return Status();
}

void AttestServer::stop() {
  if (impl_ == nullptr) return;
  impl_->stopping.store(true, std::memory_order_relaxed);
  impl_->wake();
  if (impl_->loop_thread.joinable()) impl_->loop_thread.join();
  impl_->listener.close();
  if (impl_->wake_rd >= 0) ::close(impl_->wake_rd);
  if (impl_->wake_wr >= 0) ::close(impl_->wake_wr);
  delete impl_;
  impl_ = nullptr;
}

AttestServerStats AttestServer::stats() const {
  AttestServerStats out;
  if (impl_ == nullptr) return out;
  out.accepted = impl_->accepted.load(std::memory_order_relaxed);
  out.sessions_completed = impl_->completed.load(std::memory_order_relaxed);
  out.sessions_attested = impl_->attested.load(std::memory_order_relaxed);
  out.sessions_failed = impl_->failed.load(std::memory_order_relaxed);
  out.quarantined = impl_->quarantined.load(std::memory_order_relaxed);
  out.http_requests = impl_->http_requests.load(std::memory_order_relaxed);
  out.active_connections = impl_->active.load(std::memory_order_relaxed);
  out.sessions_active =
      impl_->sessions_active.load(std::memory_order_relaxed);
  out.peak_connections = impl_->peak.load(std::memory_order_relaxed);
  out.updates_offered = impl_->updates_offered.load(std::memory_order_relaxed);
  out.updates_accepted =
      impl_->updates_accepted.load(std::memory_order_relaxed);
  out.updates_rejected =
      impl_->updates_rejected.load(std::memory_order_relaxed);
  out.drain_refusals = impl_->drain_refusals.load(std::memory_order_relaxed);
  out.models_interned = impl_->models_interned.load(std::memory_order_relaxed);
  out.models_loaded = impl_->models_loaded.load(std::memory_order_relaxed);
  out.models_mapped = impl_->models_mapped.load(std::memory_order_relaxed);
  out.models_built = impl_->models_built.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl_->audit_mu);
    out.audit_entries = impl_->audit.size();
  }
  out.draining = impl_->draining.load(std::memory_order_relaxed);
  return out;
}

crypto::Sha256Digest AttestServer::audit_head() const {
  if (impl_ == nullptr) return crypto::Sha256Digest{};
  std::lock_guard<std::mutex> lock(impl_->audit_mu);
  return impl_->audit.head();
}

bool AttestServer::audit_verify() const {
  if (impl_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(impl_->audit_mu);
  return impl_->audit.verify_chain();
}

void AttestServer::begin_drain(std::uint64_t drain_ms) {
  if (impl_ == nullptr) return;
  if (drain_ms != 0) {
    impl_->drain_deadline_ms.store(ms_since(impl_->start_time) + drain_ms,
                                   std::memory_order_relaxed);
  }
  impl_->draining.store(true, std::memory_order_relaxed);
  impl_->wake();
  (log_info() << "attestd draining")
      .kv("drain_ms", drain_ms)
      .kv("active", impl_->active.load(std::memory_order_relaxed));
}

bool AttestServer::draining() const {
  return impl_ != nullptr && impl_->draining.load(std::memory_order_relaxed);
}

bool AttestServer::drained() const {
  return impl_ != nullptr &&
         impl_->draining.load(std::memory_order_relaxed) &&
         impl_->active.load(std::memory_order_relaxed) == 0;
}

}  // namespace sacha::net
