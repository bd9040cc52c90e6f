// The in-process session carries commands and responses as words and
// builds bytes only for an armed byte hook. These tests pin that the two
// paths are one protocol: identity hooks change nothing in the report, the
// bytes a hook sees are the wire bytes the codec has always produced, and a
// schedule the 16-bit length field cannot carry is rejected the same way
// on every path.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <ostream>
#include <string>

#include "attacks/env.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "crypto/sha256.hpp"
#include "fault/injector.hpp"

namespace sacha {
namespace {

using core::AttestationReport;

core::SessionHooks identity_hooks() {
  core::SessionHooks hooks;
  hooks.on_command = [](Bytes&) { return true; };
  hooks.on_response = [](Bytes&) { return true; };
  return hooks;
}

void expect_same_report(const AttestationReport& plain,
                        const AttestationReport& hooked) {
  EXPECT_EQ(plain.verdict.protocol_ok, hooked.verdict.protocol_ok);
  EXPECT_EQ(plain.verdict.mac_ok, hooked.verdict.mac_ok);
  EXPECT_EQ(plain.verdict.config_ok, hooked.verdict.config_ok);
  EXPECT_EQ(plain.verdict.detail, hooked.verdict.detail);
  EXPECT_EQ(plain.verdict.kind, hooked.verdict.kind);
  EXPECT_EQ(plain.failure, hooked.failure);
  EXPECT_EQ(plain.ledger.actions(), hooked.ledger.actions());
  for (const std::string& row : plain.ledger.actions()) {
    EXPECT_EQ(plain.ledger.count(row), hooked.ledger.count(row)) << row;
    EXPECT_EQ(plain.ledger.total(row), hooked.ledger.total(row)) << row;
  }
  EXPECT_EQ(plain.theoretical_time, hooked.theoretical_time);
  EXPECT_EQ(plain.total_time, hooked.total_time);
  EXPECT_EQ(plain.commands_sent, hooked.commands_sent);
  EXPECT_EQ(plain.retransmissions, hooked.retransmissions);
  EXPECT_EQ(plain.messages_lost, hooked.messages_lost);
  EXPECT_EQ(plain.backoff_wait, hooked.backoff_wait);
  EXPECT_EQ(plain.deadline_hit, hooked.deadline_hit);
  EXPECT_EQ(plain.bytes_to_prover, hooked.bytes_to_prover);
  EXPECT_EQ(plain.bytes_to_verifier, hooked.bytes_to_verifier);
  EXPECT_EQ(plain.channel_time, hooked.channel_time);
}

struct Scenario {
  std::string name;
  std::function<void(attacks::AttackEnv&)> configure;
  /// Fault plan armed on every session of the scenario ("" = none).
  std::string fault_plan;
  /// Runs a refresh session (optionally a probe) after the full one.
  bool refresh = false;
  double probe_coverage = 1.0;
};

// Prints the name only: gtest would otherwise dump the raw bytes, pointers
// included, so the test names would change with every run.
void PrintTo(const Scenario& scenario, std::ostream* os) {
  *os << scenario.name;
}

/// One device's sessions under the scenario, hook-free or with identity
/// byte hooks; returns each session's report and the verifier's MAC.
std::vector<std::pair<AttestationReport, std::optional<crypto::Mac>>> run(
    const Scenario& scenario, bool hooked) {
  attacks::AttackEnv env = attacks::AttackEnv::small(31);
  if (scenario.configure) scenario.configure(env);
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  std::optional<fault::FaultInjector> injector;
  if (!scenario.fault_plan.empty()) {
    auto plan = fault::FaultPlan::parse(scenario.fault_plan);
    EXPECT_TRUE(plan.ok()) << plan.message();
    injector.emplace(plan.value(), 5);
  }
  std::vector<std::pair<AttestationReport, std::optional<crypto::Mac>>> out;
  const int sessions = scenario.refresh ? 2 : 1;
  for (int s = 0; s < sessions; ++s) {
    if (s == 1) {
      verifier.set_refresh_only(true);
      verifier.set_probe_coverage(scenario.probe_coverage);
    }
    core::SessionOptions options = env.session_options;
    options.seed += static_cast<std::uint64_t>(s);
    core::SessionHooks hooks =
        hooked ? identity_hooks() : core::SessionHooks{};
    if (injector.has_value()) injector->arm(options, hooks);
    AttestationReport report =
        core::run_attestation(verifier, prover, options, hooks);
    out.emplace_back(std::move(report), verifier.expected_mac());
  }
  return out;
}

class IdentityHooks : public ::testing::TestWithParam<Scenario> {};

TEST_P(IdentityHooks, SameReportAsHookFreeSession) {
  const auto plain = run(GetParam(), /*hooked=*/false);
  const auto hooked = run(GetParam(), /*hooked=*/true);
  ASSERT_EQ(plain.size(), hooked.size());
  for (std::size_t s = 0; s < plain.size(); ++s) {
    SCOPED_TRACE("session " + std::to_string(s));
    expect_same_report(plain[s].first, hooked[s].first);
    EXPECT_EQ(plain[s].second, hooked[s].second) << "verifier MAC differs";
    EXPECT_GT(plain[s].first.commands_sent, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SessionPath, IdentityHooks,
    ::testing::Values(
        Scenario{"full", nullptr, "", false, 1.0},
        Scenario{"refresh", nullptr, "", true, 1.0},
        Scenario{"probe", nullptr, "", true, 0.5},
        Scenario{"frames_per_config_4",
                 [](attacks::AttackEnv& env) {
                   env.verifier_options.frames_per_config = 4;
                 },
                 "", false, 1.0},
        Scenario{"frames_per_readback_4",
                 [](attacks::AttackEnv& env) {
                   env.verifier_options.frames_per_readback = 4;
                 },
                 "", false, 1.0},
        Scenario{"reliable_lossy",
                 [](attacks::AttackEnv& env) {
                   env.session_options.reliable = true;
                   env.session_options.channel.loss_probability = 0.15;
                 },
                 "", true, 1.0},
        Scenario{"crash_and_reboot",
                 [](attacks::AttackEnv& env) {
                   env.session_options.reliable = true;
                 },
                 "crash=12:3", false, 1.0},
        Scenario{"stall",
                 [](attacks::AttackEnv& env) {
                   env.session_options.reliable = true;
                 },
                 "stall=20:2", true, 1.0},
        Scenario{"crash_unreliable", nullptr, "crash=9", false, 1.0}),
    [](const auto& info) { return info.param.name; });

// ---- Pinned wire bytes ----------------------------------------------------

std::string hex(const crypto::Sha256Digest& digest) {
  std::string out;
  for (const std::uint8_t byte : digest) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x", byte);
    out += buf;
  }
  return out;
}

// SHA-256 over every Command::encode() and Response::encode() of the seed-1
// small-device session, in wire order, as the byte-per-word codec produced
// them before commands carried their padding as a count.
constexpr const char* kPinnedWireDigest =
    "c69770748294f5089ae073382d6be5cdf526be5ba9b6a59ef217a5e3c0c0d4b4";

TEST(PinnedWire, ByteHooksSeeTheSameBytesAsBefore) {
  const attacks::AttackEnv env = attacks::AttackEnv::small(1);
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  crypto::Sha256 sha;
  core::SessionHooks hooks;
  hooks.on_command = [&sha](Bytes& packet) {
    sha.update(packet);
    return true;
  };
  hooks.on_response = [&sha](Bytes& reply) {
    sha.update(reply);
    return true;
  };
  const AttestationReport report =
      core::run_attestation(verifier, prover, env.session_options, hooks);
  ASSERT_TRUE(report.verdict.ok()) << report.verdict.detail;
  EXPECT_EQ(hex(sha.finalize()), kPinnedWireDigest);
}

TEST(PinnedWire, CodecOfTheScheduleMatchesThePin) {
  // The same bytes without the session driver: each scheduled command and
  // the prover's answer to it, encoded directly.
  const attacks::AttackEnv env = attacks::AttackEnv::small(1);
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  verifier.begin();
  crypto::Sha256 sha;
  bool churned = false;
  for (std::size_t i = 0; i < verifier.command_count(); ++i) {
    const core::Command command = verifier.command(i);
    if (!churned && command.type != core::CommandType::kIcapConfig) {
      churned = true;
      core::apply_register_churn(prover, env.session_options.seed,
                                 env.session_options.register_flip_probability);
    }
    const Bytes packet = command.encode();
    EXPECT_EQ(packet.size(), command.wire_payload_bytes());
    sha.update(packet);
    const auto result = prover.handle(command);
    if (result.response.has_value()) sha.update(result.response->encode());
  }
  EXPECT_EQ(hex(sha.finalize()), kPinnedWireDigest);
}

// ---- Messages the 16-bit length field cannot carry -----------------------

TEST(MessageLimit, OversizeReadbackIsRejectedUpFrontOnEveryPath) {
  // 203 Virtex-6 frames are 65,772 bytes of frame data: one more than the
  // length field holds. 202 still fit.
  attacks::AttackEnv env = attacks::AttackEnv::virtex6(1);
  env.verifier_options.frames_per_readback = 203;

  core::SachaVerifier plain_verifier = env.make_verifier();
  core::SachaProver plain_prover = env.make_prover();
  const AttestationReport plain = core::run_attestation(
      plain_verifier, plain_prover, env.session_options);
  core::SachaVerifier hooked_verifier = env.make_verifier();
  core::SachaProver hooked_prover = env.make_prover();
  const AttestationReport hooked = core::run_attestation(
      hooked_verifier, hooked_prover, env.session_options, identity_hooks());

  EXPECT_FALSE(plain.verdict.ok());
  EXPECT_EQ(plain.failure, core::FailureKind::kDecodeError);
  EXPECT_EQ(plain.commands_sent, 0u) << "nothing may reach the wire";
  EXPECT_NE(plain.verdict.detail.find("65535"), std::string::npos)
      << plain.verdict.detail;
  expect_same_report(plain, hooked);

  // The socket half of a session applies the same rule.
  core::SachaVerifier remote_verifier = env.make_verifier();
  core::VerifierSession session(remote_verifier);
  EXPECT_TRUE(session.done());
  EXPECT_FALSE(session.next_command_wire().has_value());
  const core::VerifierSession::Report remote = session.finish();
  EXPECT_EQ(remote.failure, plain.failure);
  EXPECT_EQ(remote.verdict.detail, plain.verdict.detail);

  env.verifier_options.frames_per_readback = 202;
  core::SachaVerifier fits = env.make_verifier();
  fits.begin();
  EXPECT_FALSE(fits.schedule_error().has_value()) << *fits.schedule_error();
}

TEST(MessageLimit, EncodeNeverWrapsTheLength) {
  core::Response response;
  response.type = core::ResponseType::kFrameData;
  response.frame_words.assign(core::kMaxBodyBytes / 4, 0x01020304);
  EXPECT_TRUE(response.encodable());
  EXPECT_EQ(response.encode().size(), 4 + (core::kMaxBodyBytes / 4) * 4);
  response.frame_words.push_back(0);
  EXPECT_FALSE(response.encodable());
  EXPECT_TRUE(response.encode().empty());
  EXPECT_FALSE(core::Response::decode(response.encode()).ok());

  core::Command command{core::CommandType::kIcapConfig, 0, {}, 0};
  command.padding = static_cast<std::uint32_t>(core::kMaxBodyBytes / 4) + 1;
  EXPECT_FALSE(command.encodable());
  EXPECT_TRUE(command.encode().empty());
}

// ---- Verdict detail -------------------------------------------------------

TEST(VerdictDetail, KeepsTheFirstFailure) {
  // Two readback responses lose their last word on the wire (with a length
  // field to match); the verdict must name the first one.
  const attacks::AttackEnv env = attacks::AttackEnv::small(3);
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  int frame_replies = 0;
  core::SessionHooks hooks;
  hooks.on_response = [&frame_replies](Bytes& reply) {
    auto decoded = core::Response::decode(reply);
    if (!decoded.ok() ||
        decoded.value().type != core::ResponseType::kFrameData) {
      return true;
    }
    ++frame_replies;
    if (frame_replies == 1 || frame_replies == 4) {
      core::Response shortened = std::move(decoded).take();
      shortened.frame_words.pop_back();
      reply = shortened.encode();
    }
    return true;
  };
  const AttestationReport report =
      core::run_attestation(verifier, prover, env.session_options, hooks);
  EXPECT_FALSE(report.verdict.ok());
  EXPECT_EQ(report.failure, core::FailureKind::kDecodeError);
  EXPECT_EQ(report.verdict.detail, "readback step 0 returned wrong word count");
}

}  // namespace
}  // namespace sacha
