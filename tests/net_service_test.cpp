// Attestation-service tests: loopback smoke, verdict + MAC bit-identity
// against the in-process SwarmSchedule::kMultiplexed oracle (small,
// softcore and Virtex-6 fleets), the quarantine path for abrupt
// disconnects, a verdict for every session whose evidence is complete,
// the Prometheus and operability endpoints (with the HTTP hygiene table
// shared with the shard coordinator), the OTA offer handshake (signed
// manifests offered after passing sessions only), and graceful drain.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <filesystem>
#include <functional>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bitstream/golden_model.hpp"
#include "core/session.hpp"
#include "core/signed_attest.hpp"
#include "core/swarm.hpp"
#include "crypto/merkle.hpp"
#include "net/attest_client.hpp"
#include "net/attest_server.hpp"
#include "net/provision.hpp"
#include "net/tcp.hpp"
#include "net/wire.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "update/manifest.hpp"
#include "http_hygiene.hpp"

using namespace sacha;

namespace {

using testing_http::http_get;

/// The in-process oracle: the same fleet attested by the multiplexed
/// engine, no sockets. The service must match this run verdict-for-verdict
/// and MAC-for-MAC.
core::SwarmReport oracle_run(const net::FleetSpec& spec, std::size_t members,
                             const std::set<std::size_t>& tampered) {
  std::deque<attacks::AttackEnv> envs;
  std::deque<core::SachaVerifier> verifiers;
  std::deque<core::SachaProver> provers;
  std::vector<core::SwarmMember> swarm;
  for (std::size_t i = 0; i < members; ++i) {
    envs.push_back(
        net::member_env(net::member_scale(spec, i), spec.base_seed + i));
    verifiers.push_back(envs.back().make_verifier());
    provers.push_back(envs.back().make_prover());
  }
  for (std::size_t i = 0; i < members; ++i) {
    core::SwarmMember member{net::member_id(i), &verifiers[i], &provers[i],
                             {}};
    if (tampered.count(i) > 0) {
      member.hooks.after_config = [](core::SachaProver& p) {
        bitstream::Frame f = p.memory().config_frame(5);
        f.flip_bit(7);
        p.memory().write_frame(5, f);
      };
    }
    swarm.push_back(std::move(member));
  }
  core::SwarmOptions options;
  options.session = envs.front().session_options;
  options.session.seed = spec.session_seed;
  options.schedule = core::SwarmSchedule::kMultiplexed;
  options.retry_budget = 0;
  return core::attest_swarm(swarm, options);
}

net::LoadOptions loopback_load(const net::AttestServer& server,
                               const net::FleetSpec& spec,
                               std::size_t members) {
  net::LoadOptions load;
  load.host = "127.0.0.1";
  load.port = server.port();
  load.fleet = spec;
  load.members = members;
  load.timeout_ms = 60000;
  return load;
}

// ---- Both drivers of the session core on error paths ---------------------

/// What goes wrong in a session, applied the same way on both drivers.
enum class SessionFault {
  kNone,
  kTamperAfterConfig,
  kErrorResponse,    // one readback response rewritten to kError
  kDroppedResponse,  // one readback response delivered as "no response"
};

struct DriverCase {
  const char* name;
  SessionFault fault;
};

void PrintTo(const DriverCase& c, std::ostream* os) { *os << c.name; }

/// Rewrites or drops the third frame-data response of a session.
class ResponseFault {
 public:
  explicit ResponseFault(SessionFault fault) : fault_(fault) {}

  /// `reply` is an encoded Response; returns false to drop it.
  bool apply(Bytes& reply) {
    if (fault_ != SessionFault::kErrorResponse &&
        fault_ != SessionFault::kDroppedResponse) {
      return true;
    }
    auto decoded = core::Response::decode(reply);
    if (!decoded.ok() ||
        decoded.value().type != core::ResponseType::kFrameData ||
        ++frames_ != 3) {
      return true;
    }
    if (fault_ == SessionFault::kDroppedResponse) return false;
    reply = core::Response{.type = core::ResponseType::kError,
                           .status = core::ProverStatus::kIcapError}
                .encode();
    return true;
  }

 private:
  SessionFault fault_;
  int frames_ = 0;
};

struct DriverOutcome {
  core::SachaVerifier::Verdict verdict;
  core::FailureKind failure = core::FailureKind::kNone;
  std::optional<crypto::Mac> expected_mac;
};

std::function<void(core::SachaProver&)> tamper_for(SessionFault fault) {
  if (fault != SessionFault::kTamperAfterConfig) return nullptr;
  return net::standard_tamper();
}

/// The in-process driver: SessionMachine over an ideal simulated channel.
DriverOutcome run_in_process(const net::HelloMsg& hello, SessionFault fault) {
  core::SachaVerifier verifier = net::verifier_for(hello);
  core::SachaProver prover = net::prover_for(hello);
  core::SessionOptions options;
  options.seed = hello.session_seed;
  options.register_flip_probability = hello.flip_probability;
  core::SessionHooks hooks;
  hooks.after_config = tamper_for(fault);
  ResponseFault response_fault(fault);
  hooks.on_response = [&response_fault](Bytes& reply) {
    return response_fault.apply(reply);
  };
  core::AttestationReport report =
      core::run_attestation(verifier, prover, options, hooks);
  return {std::move(report.verdict), report.failure, verifier.expected_mac()};
}

/// Frames one message and reassembles it, as a socket carries it.
Bytes carry(net::FrameKind kind, Bytes payload) {
  net::FrameDecoder decoder;
  decoder.feed(net::encode_frame(net::Frame{kind, std::move(payload)}));
  auto frame = decoder.next();
  EXPECT_TRUE(frame.ok() && frame.value().has_value());
  if (!frame.ok() || !frame.value().has_value()) return {};
  EXPECT_EQ(frame.value()->kind, kind);
  return std::move(frame).take()->payload;
}

/// The socket driver: attestd's VerifierSession and the client's
/// ProverAgent, exchanging COMMAND and RESPONSE frames through memory.
DriverOutcome run_over_pipe(const net::HelloMsg& hello, SessionFault fault) {
  core::SachaVerifier verifier = net::verifier_for(hello);
  core::VerifierSession session(verifier);
  net::ProverAgent agent(hello, tamper_for(fault));
  ResponseFault response_fault(fault);
  while (!session.done()) {
    const std::optional<Bytes> command = session.next_command_wire();
    if (!command.has_value()) break;
    const Bytes payload = carry(
        net::FrameKind::kResponse,
        agent.handle_command(carry(net::FrameKind::kCommand, *command)));
    // RESPONSE payload: u8 has_response, then Response::encode() if set.
    std::optional<core::Response> response;
    if (!payload.empty() && payload[0] != 0) {
      Bytes reply(payload.begin() + 1, payload.end());
      if (response_fault.apply(reply)) {
        auto decoded = core::Response::decode(reply);
        EXPECT_TRUE(decoded.ok()) << decoded.message();
        if (decoded.ok()) response = std::move(decoded).take();
      }
    }
    session.on_response(std::move(response));
  }
  core::VerifierSession::Report report = session.finish();
  return {std::move(report.verdict), report.failure, report.expected_mac};
}

class BothDrivers : public ::testing::TestWithParam<DriverCase> {};

TEST_P(BothDrivers, SameVerdictInProcessAndOverTheWire) {
  const SessionFault fault = GetParam().fault;
  net::FleetSpec spec;
  const net::HelloMsg hello = net::member_hello(spec, 3);
  const DriverOutcome local = run_in_process(hello, fault);
  const DriverOutcome remote = run_over_pipe(hello, fault);

  EXPECT_EQ(local.verdict.protocol_ok, remote.verdict.protocol_ok);
  EXPECT_EQ(local.verdict.mac_ok, remote.verdict.mac_ok);
  EXPECT_EQ(local.verdict.config_ok, remote.verdict.config_ok);
  EXPECT_EQ(local.verdict.kind, remote.verdict.kind);
  EXPECT_EQ(local.verdict.detail, remote.verdict.detail);
  EXPECT_EQ(local.failure, remote.failure);
  EXPECT_EQ(local.expected_mac, remote.expected_mac);

  // Each case takes the path it names.
  switch (fault) {
    case SessionFault::kNone:
      EXPECT_TRUE(local.verdict.ok()) << local.verdict.detail;
      break;
    case SessionFault::kTamperAfterConfig:
      EXPECT_EQ(local.failure, core::FailureKind::kMaskedCompareMismatch);
      break;
    case SessionFault::kErrorResponse:
      EXPECT_EQ(local.failure, core::FailureKind::kDeviceError);
      break;
    case SessionFault::kDroppedResponse:
      EXPECT_FALSE(local.verdict.protocol_ok);
      EXPECT_FALSE(local.expected_mac.has_value());
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SessionCore, BothDrivers,
    ::testing::Values(
        DriverCase{"honest", SessionFault::kNone},
        DriverCase{"tampered_after_config", SessionFault::kTamperAfterConfig},
        DriverCase{"error_response", SessionFault::kErrorResponse},
        DriverCase{"dropped_response", SessionFault::kDroppedResponse}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(NetService, LoopbackSmoke) {
  net::AttestServer server;
  ASSERT_TRUE(server.start().ok());
  ASSERT_NE(server.port(), 0);

  net::FleetSpec spec;
  const net::LoadResult result = net::run_load(loopback_load(server, spec, 4));
  EXPECT_EQ(result.completed, 4u);
  EXPECT_EQ(result.attested, 4u);
  const net::AttestServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_completed, 4u);
  EXPECT_EQ(stats.sessions_attested, 4u);
  EXPECT_EQ(stats.quarantined, 0u);
  server.stop();
}

/// Attests the fleet through a fresh attestd and expects every member's
/// verdict flags, FailureKind and MAC to equal the in-process oracle's.
void expect_service_matches_oracle(const net::FleetSpec& spec,
                                   std::size_t members,
                                   const std::set<std::size_t>& tampered) {
  const core::SwarmReport oracle = oracle_run(spec, members, tampered);
  ASSERT_EQ(oracle.members.size(), members);
  EXPECT_EQ(oracle.attested, members - tampered.size());

  net::AttestServer server;
  ASSERT_TRUE(server.start().ok());
  net::LoadOptions load = loopback_load(server, spec, members);
  load.tampered = tampered;
  const net::LoadResult result = net::run_load(load);
  server.stop();

  ASSERT_TRUE(result.all_completed());
  EXPECT_EQ(result.attested, oracle.attested);
  for (std::size_t i = 0; i < members; ++i) {
    const core::SwarmMemberResult& want = oracle.members[i];
    const net::MemberOutcome& got = result.members[i];
    SCOPED_TRACE("member " + std::to_string(i));
    EXPECT_EQ(got.report.protocol_ok, want.verdict.protocol_ok);
    EXPECT_EQ(got.report.mac_ok, want.verdict.mac_ok);
    EXPECT_EQ(got.report.config_ok, want.verdict.config_ok);
    EXPECT_EQ(got.report.failure, want.failure);
    // MAC-for-MAC: the device evidence over the socket equals the
    // in-process engine's evidence, bitwise.
    ASSERT_TRUE(got.client_mac.has_value());
    ASSERT_TRUE(want.mac.has_value());
    EXPECT_EQ(*got.client_mac, *want.mac);
    if (want.verdict.mac_ok) {
      ASSERT_TRUE(got.report.mac_present);
      EXPECT_EQ(got.report.mac, *want.mac);
    }
  }
}

TEST(NetService, MixedFleetBitIdenticalToMultiplexedOracle) {
  {
    SCOPED_TRACE("mixed small/softcore fleet");
    net::FleetSpec spec;
    spec.mixed = true;
    expect_service_matches_oracle(spec, 16, {1, 3});
  }
  {
    // The paper's device: each session reads back the whole 9.2 MB
    // XC6VLX240T configuration through the service.
    SCOPED_TRACE("Virtex-6 fleet");
    net::FleetSpec spec;
    spec.scale = net::DeviceScale::kVirtex6;
    expect_service_matches_oracle(spec, 2, {1});
  }
}

TEST(NetService, CompleteEvidenceAlwaysGetsAVerdict) {
  // Each prover sends its last RESPONSE and closes at once, without reading
  // the REPORT. Its evidence is complete, so the server must reach the
  // verdict and audit it rather than quarantine the session at EOF.
  net::AttestServer server;
  ASSERT_TRUE(server.start().ok());
  net::FleetSpec spec;
  constexpr std::size_t kSessions = 30;
  for (std::size_t i = 0; i < kSessions; ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    const net::HelloMsg hello = net::member_hello(spec, i);
    net::ProverAgent agent(hello);
    auto connected = net::TcpChannel::connect("127.0.0.1", server.port());
    ASSERT_TRUE(connected.ok()) << connected.message();
    net::TcpChannel channel = std::move(connected).take();
    ASSERT_TRUE(
        channel.send_frame_blocking({net::FrameKind::kHello, hello.encode()},
                                    5000)
            .ok());
    auto ack_frame = channel.recv_frame_blocking(5000);
    ASSERT_TRUE(ack_frame.ok()) << ack_frame.message();
    ASSERT_EQ(ack_frame.value().kind, net::FrameKind::kHelloAck);
    auto ack = net::HelloAckMsg::decode(ack_frame.value().payload);
    ASSERT_TRUE(ack.ok()) << ack.message();
    for (std::uint32_t c = 0; c < ack.value().command_count; ++c) {
      auto command = channel.recv_frame_blocking(5000);
      ASSERT_TRUE(command.ok()) << command.message();
      ASSERT_EQ(command.value().kind, net::FrameKind::kCommand);
      ASSERT_TRUE(channel
                      .send_frame_blocking(
                          {net::FrameKind::kResponse,
                           agent.handle_command(command.value().payload)},
                          5000)
                      .ok());
    }
    channel.close();
  }
  net::AttestServerStats stats = server.stats();
  for (int spin = 0;
       spin < 500 && (stats.sessions_completed + stats.quarantined < kSessions ||
                      stats.active_connections > 0);
       ++spin) {
    ::usleep(10000);
    stats = server.stats();
  }
  server.stop();
  EXPECT_EQ(stats.sessions_completed, kSessions);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.audit_entries, kSessions);
}

TEST(NetService, AbruptDisconnectQuarantinesNotCrashes) {
  net::AttestServerOptions options;
  options.session_timeout_ms = 60000;
  net::AttestServer server(options);
  ASSERT_TRUE(server.start().ok());

  net::FleetSpec spec;
  net::LoadOptions load = loopback_load(server, spec, 6);
  load.disconnect_after[2] = 3;  // member 2 vanishes mid-session
  const net::LoadResult result = net::run_load(load);

  EXPECT_EQ(result.completed, 5u);
  EXPECT_EQ(result.attested, 5u);
  EXPECT_FALSE(result.members[2].completed);

  // The server stays serviceable after the quarantine: run another fleet.
  const net::LoadResult second = net::run_load(loopback_load(server, spec, 3));
  EXPECT_EQ(second.completed, 3u);

  // The loop can notice the dead socket a beat after the clients finished;
  // wait for the teardown to land before asserting the final counters.
  net::AttestServerStats stats = server.stats();
  for (int spin = 0;
       spin < 200 && (stats.quarantined < 1 || stats.active_connections > 0);
       ++spin) {
    ::usleep(10000);
    stats = server.stats();
  }
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.sessions_completed, 8u);
  EXPECT_EQ(stats.active_connections, 0u);
  server.stop();
}

TEST(NetService, MetricsEndpointServesPrometheusText) {
  obs::set_enabled(true);
  net::AttestServer server;
  ASSERT_TRUE(server.start().ok());

  // One real session so the counters move.
  net::FleetSpec spec;
  ASSERT_TRUE(net::run_load(loopback_load(server, spec, 1)).all_completed());

  // Plain blocking HTTP GET against the same port.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(server.stats().http_requests, 1u);
  server.stop();
  obs::set_enabled(false);

  EXPECT_NE(reply.find("200 OK"), std::string::npos);
  EXPECT_NE(reply.find("sacha_session_attested"), std::string::npos);
  EXPECT_NE(reply.find("sacha_attestd_accepted"), std::string::npos);
}

TEST(NetService, MetricsContentTypeAndHelpLines) {
  obs::set_enabled(true);
  // Instruments are process-global: zero them so the exact-value assertions
  // below do not depend on which tests ran earlier in this binary.
  obs::MetricsRegistry::global().reset_values();
  net::AttestServer server;
  ASSERT_TRUE(server.start().ok());
  net::FleetSpec spec;
  ASSERT_TRUE(net::run_load(loopback_load(server, spec, 1)).all_completed());
  const std::string reply = http_get(server.port(), "/metrics");
  server.stop();
  obs::set_enabled(false);
  EXPECT_NE(reply.find("200 OK"), std::string::npos);
  // The Prometheus text exposition content type, version pinned.
  EXPECT_NE(reply.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(reply.find("# HELP sacha_attestd_accepted "), std::string::npos);
  EXPECT_NE(reply.find("# TYPE sacha_attestd_accepted counter"),
            std::string::npos);
  EXPECT_NE(reply.find("sacha_attestd_hello_accepted 1"), std::string::npos);
  EXPECT_NE(reply.find("sacha_net_bytes_rx"), std::string::npos);
  EXPECT_NE(reply.find("sacha_net_bytes_tx"), std::string::npos);
  // The session latency histogram moved to the quantile bucket layout.
  EXPECT_NE(reply.find("sacha_attestd_session_ns_bucket{le=\""),
            std::string::npos);
}

TEST(NetService, OperabilityEndpointsServeJson) {
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset_values();
  net::AttestServer server;
  ASSERT_TRUE(server.start().ok());
  net::FleetSpec spec;
  ASSERT_TRUE(net::run_load(loopback_load(server, spec, 2)).all_completed());

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"loop_tick_age_ms\":"), std::string::npos);

  const std::string status = http_get(server.port(), "/statusz");
  EXPECT_NE(status.find("200 OK"), std::string::npos);
  EXPECT_NE(status.find("\"wire_version\":4"), std::string::npos);
  EXPECT_NE(status.find("\"completed\":2"), std::string::npos);
  EXPECT_NE(status.find("\"attested\":2"), std::string::npos);
  EXPECT_NE(status.find("\"slo\":{\"latency_objective_ms\":250"),
            std::string::npos);
  EXPECT_NE(status.find("\"budget_remaining_ppm\":"), std::string::npos);
  EXPECT_NE(status.find("\"session_latency_ns\":{\"count\":2"),
            std::string::npos);
  EXPECT_NE(status.find("\"connections\":["), std::string::npos);
  EXPECT_NE(status.find("\"recent_quarantines\":[]"), std::string::npos);

  // Full tracing by default in tests: both sessions' timelines are kept.
  const std::string trace = http_get(server.port(), "/tracez");
  server.stop();
  obs::set_enabled(false);
  EXPECT_NE(trace.find("200 OK"), std::string::npos);
  EXPECT_NE(trace.find("\"capacity\":32"), std::string::npos);
  EXPECT_NE(trace.find("\"timelines\":["), std::string::npos);
  EXPECT_NE(trace.find("\"attested\":true"), std::string::npos);
  EXPECT_NE(trace.find("cmac.finish"), std::string::npos);
}

TEST(NetService, HttpHygieneNotFoundHeadAndBadMethod) {
  net::AttestServer server;
  ASSERT_TRUE(server.start().ok());
  testing_http::expect_http_hygiene(server.port(),
                                    "/metrics /healthz /statusz /tracez");
  server.stop();
}

TEST(NetService, IdleServerHealthzCountsNoSessions) {
  net::AttestServer server;
  ASSERT_TRUE(server.start().ok());
  // The probe's own connection is not a session: an idle server reads 0,
  // the same count /statusz and the stats give.
  const std::string idle = http_get(server.port(), "/healthz");
  EXPECT_NE(idle.find("\"active_sessions\":0,"), std::string::npos) << idle;
  EXPECT_EQ(server.stats().sessions_active, 0u);

  net::FleetSpec spec;
  ASSERT_TRUE(net::run_load(loopback_load(server, spec, 2)).all_completed());
  const std::string after = http_get(server.port(), "/healthz");
  EXPECT_NE(after.find("\"active_sessions\":0,"), std::string::npos)
      << after;
  server.stop();
}

TEST(NetService, ConcurrentScrapesDuringFleetLoad) {
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset_values();
  net::AttestServer server;
  ASSERT_TRUE(server.start().ok());

  net::FleetSpec spec;
  spec.mixed = true;
  net::LoadOptions load = loopback_load(server, spec, 16);
  load.tampered = {1, 3};

  // Scrape /metrics and /healthz continuously while the mixed fleet runs:
  // the endpoints share the event loop with the wire sessions, so every
  // scrape must come back 200 with no effect on the fleet's verdicts.
  std::atomic<bool> done{false};
  net::LoadResult result;
  std::thread fleet([&] {
    result = net::run_load(load);
    done.store(true);
  });
  std::size_t scrapes = 0;
  std::size_t good = 0;
  while (!done.load()) {
    for (const char* path : {"/metrics", "/healthz"}) {
      const std::string reply = http_get(server.port(), path);
      ++scrapes;
      if (reply.find("200 OK") != std::string::npos) ++good;
    }
  }
  fleet.join();
  const std::string after = http_get(server.port(), "/metrics");
  server.stop();
  obs::set_enabled(false);

  EXPECT_TRUE(result.all_completed());
  EXPECT_EQ(result.attested, 14u) << "scrapes must not disturb verdicts";
  EXPECT_EQ(good, scrapes) << "every mid-load scrape must succeed";
  EXPECT_NE(after.find("sacha_attestd_hello_accepted 16"), std::string::npos);
}

TEST(NetService, DroppedResponsesHitTheServerTimeout) {
  net::AttestServerOptions options;
  options.session_timeout_ms = 300;  // fast idle cut-off for the test
  net::AttestServer server(options);
  ASSERT_TRUE(server.start().ok());

  net::FleetSpec spec;
  net::LoadOptions load = loopback_load(server, spec, 2);
  load.drop_probability = 1.0;  // every response evaporates
  load.timeout_ms = 5000;
  const net::LoadResult result = net::run_load(load);
  // The second quarantine can land a beat after the clients saw their
  // ERROR frames; give the server loop a moment to finish the teardown.
  net::AttestServerStats stats = server.stats();
  for (int spin = 0; spin < 100 && stats.quarantined < 2; ++spin) {
    ::usleep(10000);
    stats = server.stats();
  }
  server.stop();

  EXPECT_EQ(result.completed, 0u);
  EXPECT_EQ(stats.quarantined, 2u);
}

/// A staged signed OTA artifact: arbitrary manifest contents (the wire
/// handshake only checks the signature chain), signed with the operator
/// identity derived from `signer_seed`.
Bytes staged_offer(std::uint64_t signer_seed) {
  update::UpdateManifest manifest;
  manifest.version = 3;
  manifest.app = {"app-v2", 9};
  crypto::HashSigner signer(signer_seed, /*height=*/3);
  auto signed_manifest = update::sign_manifest(manifest, signer);
  EXPECT_TRUE(signed_manifest.ok());
  return signed_manifest.value().encode();
}

/// The device-side offer handler attest_load installs: decode, verify the
/// signature against the trusted root, answer Staged/Idle. Fresh leaf
/// policy per offer — each member is an independent device seeing the
/// operator's leaf for the first time.
std::function<net::UpdateStatusMsg(const net::UpdateOfferMsg&)>
trusting_handler(std::uint64_t signer_seed) {
  crypto::HashSigner trust(signer_seed, /*height=*/3);
  const crypto::Sha256Digest root = trust.root();
  return [root](const net::UpdateOfferMsg& offer) -> net::UpdateStatusMsg {
    net::UpdateStatusMsg status;
    status.version = offer.version;
    auto signed_manifest = update::SignedManifest::decode(offer.manifest);
    if (!signed_manifest.ok()) {
      status.state = "Idle";
      status.detail = "manifest decode failed";
      return status;
    }
    core::LeafPolicy device_policy;
    const update::ManifestCheck check = update::verify_manifest(
        signed_manifest.value(), root, device_policy, /*device_type=*/"");
    status.accepted = check.ok();
    status.state = check.ok() ? "Staged" : "Idle";
    status.detail = check.ok() ? "manifest verified" : check.detail;
    return status;
  };
}

TEST(NetService, UpdateOfferFollowsPassingSessionsOnly) {
  net::AttestServerOptions options;
  options.update_offer = staged_offer(/*signer_seed=*/31);
  options.update_version = 3;
  net::AttestServer server(options);
  ASSERT_TRUE(server.start().ok());

  net::FleetSpec spec;
  net::LoadOptions load = loopback_load(server, spec, 4);
  load.tampered = {1};  // member 1 fails attestation: no offer for it
  load.on_update_offer = trusting_handler(31);
  const net::LoadResult result = net::run_load(load);

  EXPECT_EQ(result.completed, 4u);
  EXPECT_EQ(result.attested, 3u);
  EXPECT_EQ(result.updates_offered, 3u);
  EXPECT_EQ(result.updates_accepted, 3u);
  for (const net::MemberOutcome& m : result.members) {
    if (m.index == 1) {
      EXPECT_FALSE(m.update_offered) << "offer after a FAILING session";
      continue;
    }
    ASSERT_TRUE(m.update_offered);
    EXPECT_TRUE(m.update_status.accepted);
    EXPECT_EQ(m.update_status.state, "Staged");
    EXPECT_EQ(m.update_status.version, 3u);
  }

  net::AttestServerStats stats = server.stats();
  for (int spin = 0; spin < 100 && stats.updates_accepted < 3; ++spin) {
    ::usleep(10000);
    stats = server.stats();
  }
  EXPECT_EQ(stats.updates_offered, 3u);
  EXPECT_EQ(stats.updates_accepted, 3u);
  EXPECT_EQ(stats.updates_rejected, 0u);
  server.stop();
}

TEST(NetService, TamperedOfferIsRefusedByTheFleet) {
  net::AttestServerOptions options;
  options.update_offer = staged_offer(/*signer_seed=*/31);
  options.update_offer.back() ^= 0x01;  // corrupt the signature bytes
  options.update_version = 3;
  net::AttestServer server(options);
  ASSERT_TRUE(server.start().ok());

  net::FleetSpec spec;
  net::LoadOptions load = loopback_load(server, spec, 2);
  load.on_update_offer = trusting_handler(31);
  const net::LoadResult result = net::run_load(load);

  EXPECT_EQ(result.completed, 2u);
  EXPECT_EQ(result.updates_offered, 2u);
  EXPECT_EQ(result.updates_accepted, 0u);
  for (const net::MemberOutcome& m : result.members) {
    ASSERT_TRUE(m.update_offered);
    EXPECT_FALSE(m.update_status.accepted);
    EXPECT_FALSE(m.update_status.detail.empty());
  }

  // A client with no handler refuses too (default-deny, never a hang).
  net::LoadOptions bare = loopback_load(server, spec, 1);
  const net::LoadResult bare_result = net::run_load(bare);
  EXPECT_EQ(bare_result.completed, 1u);
  ASSERT_EQ(bare_result.updates_offered, 1u);
  EXPECT_EQ(bare_result.updates_accepted, 0u);
  EXPECT_EQ(bare_result.members[0].update_status.detail, "no update handler");

  net::AttestServerStats stats = server.stats();
  for (int spin = 0; spin < 100 && stats.updates_rejected < 3; ++spin) {
    ::usleep(10000);
    stats = server.stats();
  }
  EXPECT_EQ(stats.updates_offered, 3u);
  EXPECT_EQ(stats.updates_accepted, 0u);
  EXPECT_EQ(stats.updates_rejected, 3u);
  server.stop();
}

TEST(NetService, DrainFinishesInFlightAndRefusesNewHellos) {
  net::AttestServer server;
  ASSERT_TRUE(server.start().ok());

  // Slow fleet: every response is held 100 ms client-side, so the sessions
  // are still in flight when the drain begins.
  net::FleetSpec spec;
  net::LoadOptions load = loopback_load(server, spec, 2);
  load.delay_us = 100000;
  net::LoadResult result;
  std::thread fleet([&] { result = net::run_load(load); });
  // Wait for both HELLOs to be accepted, not just both TCP connections: a
  // HELLO read after the drain begins is refused as a new session.
  net::AttestServerStats stats = server.stats();
  for (int spin = 0; spin < 200 && stats.sessions_active < 2; ++spin) {
    ::usleep(5000);
    stats = server.stats();
  }
  ASSERT_GE(stats.sessions_active, 2u) << "fleet never started its sessions";
  ASSERT_GE(stats.active_connections, 2u) << "fleet never connected";

  server.begin_drain(/*drain_ms=*/30000);
  EXPECT_TRUE(server.draining());
  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("\"status\":\"draining\""), std::string::npos)
      << health;

  // In-flight sessions run to completion...
  fleet.join();
  EXPECT_EQ(result.completed, 2u);
  EXPECT_EQ(result.attested, 2u);

  // ...new sessions are refused with a typed ERROR...
  net::LoadOptions late = loopback_load(server, spec, 1);
  const net::LoadResult late_result = net::run_load(late);
  EXPECT_EQ(late_result.completed, 0u);
  ASSERT_EQ(late_result.members.size(), 1u);
  EXPECT_NE(late_result.members[0].error.find("draining"), std::string::npos)
      << late_result.members[0].error;

  // ...and once the stragglers are gone the server reports drained.
  for (int spin = 0; spin < 200 && !server.drained(); ++spin) {
    ::usleep(5000);
  }
  EXPECT_TRUE(server.drained());
  stats = server.stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.drain_refusals, 1u);
  EXPECT_EQ(stats.sessions_completed, 2u);
  server.stop();
}

TEST(NetService, DrainDeadlineQuarantinesStragglers) {
  net::AttestServerOptions options;
  options.session_timeout_ms = 0;  // only the drain bound cuts them off
  net::AttestServer server(options);
  ASSERT_TRUE(server.start().ok());

  // A member that answers nothing: the session can never finish, so only
  // the drain deadline reclaims it.
  net::FleetSpec spec;
  net::LoadOptions load = loopback_load(server, spec, 1);
  load.drop_probability = 1.0;
  load.timeout_ms = 20000;
  net::LoadResult result;
  std::thread fleet([&] { result = net::run_load(load); });
  net::AttestServerStats stats = server.stats();
  for (int spin = 0; spin < 200 && stats.sessions_active < 1; ++spin) {
    ::usleep(5000);
    stats = server.stats();
  }
  ASSERT_GE(stats.sessions_active, 1u);
  ASSERT_GE(stats.active_connections, 1u);

  server.begin_drain(/*drain_ms=*/200);
  for (int spin = 0; spin < 400 && !server.drained(); ++spin) {
    ::usleep(10000);
  }
  EXPECT_TRUE(server.drained());
  stats = server.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  fleet.join();
  EXPECT_EQ(result.completed, 0u);
  server.stop();
}

TEST(NetService, RejectsBadHello) {
  net::AttestServer server;
  ASSERT_TRUE(server.start().ok());

  auto channel = net::TcpChannel::connect("127.0.0.1", server.port());
  ASSERT_TRUE(channel.ok());
  net::TcpChannel conn = std::move(channel).take();
  // Garbage HELLO payload: the server answers ERROR and closes.
  ASSERT_TRUE(conn.send_frame_blocking({net::FrameKind::kHello, Bytes{1, 2, 3}},
                                       5000)
                  .ok());
  auto reply = conn.recv_frame_blocking(5000);
  ASSERT_TRUE(reply.ok()) << reply.message();
  EXPECT_EQ(reply.value().kind, net::FrameKind::kError);
  auto error = net::ErrorMsg::decode(reply.value().payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().failure, core::FailureKind::kDecodeError);
  server.stop();
}

TEST(NetService, ReuseportSplitsOneListeningPortAcrossProcessesWorthOfServers) {
  // Two independent servers sharing one port via SO_REUSEPORT — the kernel
  // balances incoming connections between them (the shard deployment's
  // same-port scale-out). The second bind succeeds only with the flag on.
  net::AttestServerOptions options;
  options.reuseport = true;
  net::AttestServer a(options);
  ASSERT_TRUE(a.start().ok());
  options.port = a.port();
  net::AttestServer b(options);
  ASSERT_TRUE(b.start().ok()) << "second SO_REUSEPORT bind must succeed";
  ASSERT_EQ(b.port(), a.port());

  // Without the flag, the same bind collides.
  net::AttestServerOptions plain;
  plain.port = a.port();
  net::AttestServer c(plain);
  EXPECT_FALSE(c.start().ok());

  net::FleetSpec spec;
  net::LoadOptions load;
  load.host = "127.0.0.1";
  load.port = a.port();
  load.fleet = spec;
  load.members = 32;
  load.timeout_ms = 60000;
  const net::LoadResult result = net::run_load(load);
  EXPECT_TRUE(result.all_completed());
  EXPECT_EQ(result.attested, 32u);
  const std::uint64_t on_a = a.stats().sessions_completed;
  const std::uint64_t on_b = b.stats().sessions_completed;
  EXPECT_EQ(on_a + on_b, 32u)
      << "every session must land on exactly one of the two listeners";
  a.stop();
  b.stop();
}

TEST(NetService, StatuszReportsGoldenModelCacheSources) {
  const std::string dir = ::testing::TempDir() + "sacha_svc_model_cache";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  net::AttestServerOptions options;
  options.model_cache_dir = dir;
  options.model_map = true;
  {
    net::AttestServer server(options);
    ASSERT_TRUE(server.start().ok());
    net::FleetSpec spec;  // one device type: one build, then intern hits
    const net::LoadResult result =
        net::run_load(loopback_load(server, spec, 4));
    ASSERT_TRUE(result.all_completed());
    const net::AttestServerStats stats = server.stats();
    EXPECT_EQ(stats.models_built, 1u);
    EXPECT_EQ(stats.models_interned, 3u);
    EXPECT_EQ(stats.models_mapped + stats.models_loaded, 0u);
    const std::string status = http_get(server.port(), "/statusz");
    EXPECT_NE(status.find("\"golden_models\":{\"interned\":3"),
              std::string::npos)
        << status;
    EXPECT_NE(status.find("\"audit\":{\"entries\":4"), std::string::npos);
    server.stop();
  }
  // A restarted server warm-starts from the .sgm the first one persisted:
  // the first HELLO maps (or heap-loads under SACHA_PORTABLE) from disk.
  {
    net::AttestServer server(options);
    ASSERT_TRUE(server.start().ok());
    net::FleetSpec spec;
    const net::LoadResult result =
        net::run_load(loopback_load(server, spec, 2));
    ASSERT_TRUE(result.all_completed());
    const net::AttestServerStats stats = server.stats();
    EXPECT_EQ(stats.models_built, 0u);
    if (bitstream::GoldenModel::mapping_supported()) {
      EXPECT_EQ(stats.models_mapped, 1u);
    } else {
      EXPECT_EQ(stats.models_loaded, 1u);
    }
    EXPECT_EQ(stats.models_interned, 1u);
    server.stop();
  }
  std::filesystem::remove_all(dir);
}

TEST(NetService, AuditChainCoversSessionsAndVerifies) {
  net::AttestServer server;
  ASSERT_TRUE(server.start().ok());
  net::FleetSpec spec;
  net::LoadOptions load = loopback_load(server, spec, 6);
  load.tampered = {2};
  const net::LoadResult result = net::run_load(load);
  ASSERT_TRUE(result.all_completed());
  const net::AttestServerStats stats = server.stats();
  EXPECT_EQ(stats.audit_entries, 6u);
  EXPECT_TRUE(server.audit_verify())
      << "hash chain must verify over passing and failing sessions alike";
  EXPECT_NE(server.audit_head(), crypto::Sha256Digest{});
  server.stop();
}

}  // namespace
