// The in-process session carries commands and responses as words and
// builds bytes only for an armed byte hook. These tests pin that the two
// paths are one protocol: identity hooks change nothing in the report, the
// bytes a hook sees are the wire bytes the codec has always produced, and a
// schedule the 16-bit length field cannot carry is rejected the same way
// on every path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "attacks/env.hpp"
#include "bitstream/packet.hpp"
#include "config/icap.hpp"
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

/// SHA-256 of the wire bytes the byte hooks see in one session of `env`.
std::string session_wire_digest(const attacks::AttackEnv& env) {
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
  EXPECT_TRUE(report.verdict.ok()) << report.verdict.detail;
  return hex(sha.finalize());
}

TEST(PinnedWire, ByteHooksSeeTheSameBytesAsBefore) {
  EXPECT_EQ(session_wire_digest(attacks::AttackEnv::small(1)),
            kPinnedWireDigest);
}

TEST(PinnedWire, FourFrameBurstSessionMatchesItsPin) {
  // Application frames ship four to a configuration burst: the same wire
  // bytes as when bursts were assembled from the model's region images.
  attacks::AttackEnv env = attacks::AttackEnv::small(1);
  env.verifier_options.frames_per_config = 4;
  EXPECT_EQ(session_wire_digest(env),
            "f464c050394c63cb8b4c43a8f7961515d26ef177032500d2801f171ab1d36d39");
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

// ---- Command templates ----------------------------------------------------

/// Every command stream of `verifier`'s frozen schedule as PacketWriter
/// builds it word by word: the oracle for the verifier's patched templates.
std::vector<std::vector<std::uint32_t>> reference_streams(
    const core::SachaVerifier& verifier) {
  const bitstream::GoldenModel& model = *verifier.golden_model();
  const fabric::DeviceModel& device = verifier.floorplan().device();
  const std::uint32_t idcode = config::device_idcode(device);
  const auto open = [&](bitstream::CmdOp op, std::uint32_t frame,
                        bool burst = false) {
    bitstream::PacketWriter w;
    w.sync();
    if (burst) w.noop();
    w.write_idcode(idcode);
    w.cmd(op);
    w.write_far(device.geometry().address_of(frame));
    return w;
  };
  const auto single = [&](std::uint32_t frame,
                          std::span<const std::uint32_t> words) {
    bitstream::PacketWriter w = open(bitstream::CmdOp::kWcfg, frame);
    w.write_frames(words);
    w.cmd(bitstream::CmdOp::kDesync);
    return w.take();
  };
  std::vector<std::vector<std::uint32_t>> streams;
  const std::uint32_t per = verifier.options().frames_per_config;
  for (const fabric::FrameRange& r :
       verifier.options().refresh_only ? std::vector<fabric::FrameRange>{}
                                       : model.app_ranges()) {
    for (std::uint32_t first = r.first; first < r.end(); first += per) {
      const std::uint32_t count = std::min(per, r.end() - first);
      if (count == 1) {
        streams.push_back(single(first, model.golden_words(first)));
        continue;
      }
      const auto words = model.golden_words(first, count);
      bitstream::PacketWriter w =
          open(bitstream::CmdOp::kWcfg, first, /*burst=*/true);
      w.write_frames(words);
      w.crc(bitstream::stream_crc(words));
      w.cmd(bitstream::CmdOp::kDesync);
      w.noop();
      streams.push_back(w.take());
    }
  }
  streams.push_back(single(model.nonce_frame(),
                           verifier.golden_words(model.nonce_frame())));
  for (const auto& [first, count] : verifier.readback_steps()) {
    bitstream::PacketWriter w = open(bitstream::CmdOp::kRcfg, first);
    w.read_request(count * model.words_per_frame());
    w.cmd(bitstream::CmdOp::kDesync);
    streams.push_back(w.take());
  }
  streams.emplace_back();  // MAC_checksum
  return streams;
}

struct TemplateCase {
  std::string name;
  bool virtex6 = false;
  std::uint32_t frames_per_config = 1;
  std::uint32_t frames_per_readback = 1;
  bool refresh_only = false;
  core::ReadbackOrder order = core::ReadbackOrder::kSequentialFromOffset;
};

void PrintTo(const TemplateCase& c, std::ostream* os) { *os << c.name; }

class CommandTemplates : public ::testing::TestWithParam<TemplateCase> {};

TEST_P(CommandTemplates, EveryStreamEqualsThePacketWriterBuild) {
  const TemplateCase& c = GetParam();
  attacks::AttackEnv env =
      c.virtex6 ? attacks::AttackEnv::virtex6(1) : attacks::AttackEnv::small(1);
  env.verifier_options.frames_per_config = c.frames_per_config;
  env.verifier_options.frames_per_readback = c.frames_per_readback;
  env.verifier_options.refresh_only = c.refresh_only;
  env.verifier_options.order = c.order;
  core::SachaVerifier verifier = env.make_verifier();
  verifier.begin();
  const auto expected = reference_streams(verifier);
  ASSERT_EQ(verifier.command_count(), expected.size());
  core::Command command;  // kept across rounds, as the session driver does
  for (std::size_t i = 0; i < expected.size(); ++i) {
    verifier.command_into(i, command);
    ASSERT_EQ(command.stream, expected[i]) << "command " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CommandTemplates,
    ::testing::Values(
        TemplateCase{"small_single_frames"},
        TemplateCase{.name = "small_bursts_of_4", .frames_per_config = 4,
                     .frames_per_readback = 4},
        TemplateCase{.name = "small_bursts_clipped_to_the_region",
                     .frames_per_config = 64, .frames_per_readback = 64},
        TemplateCase{.name = "small_random_order",
                     .order = core::ReadbackOrder::kRandomPermutation},
        // 26 frames are 2,106 words: a type-2 FDRO count. 28,488 = 1,095 x
        // 26 + 18, so the last step's 1,458 words take a type-1 count.
        TemplateCase{.name = "virtex6_refresh_type2_fdro", .virtex6 = true,
                     .frames_per_readback = 26, .refresh_only = true}),
    [](const auto& info) { return info.param.name; });

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
