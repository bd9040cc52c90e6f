// Tests for the SACHa core: wire protocol codec, MAC engine timing, prover
// behaviour, and full verifier<->prover sessions on the small test device —
// honest runs, every readback order, tampering, impersonation, lossy
// channels, and the PUF-keyed variants.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/prover.hpp"
#include "core/session.hpp"
#include "core/verifier.hpp"
#include "config/icap.hpp"
#include "puf/enrollment.hpp"

namespace sacha::core {
namespace {

namespace bs = sacha::bitstream;

fabric::Floorplan small_plan() {
  fabric::Floorplan plan(fabric::DeviceModel::small_test_device());
  plan.add_partition({"StatPart",
                      fabric::PartitionKind::kStatic,
                      fabric::FrameRange{0, 4},
                      {.clb = 20, .bram18 = 2, .iob = 4, .dcm = 1, .icap = 1}});
  plan.add_partition({"DynPart",
                      fabric::PartitionKind::kDynamic,
                      fabric::FrameRange{4, 12},
                      {.clb = 80, .bram18 = 6, .iob = 12, .dcm = 1, .icap = 0}});
  return plan;
}

crypto::AesKey test_key(std::uint8_t fill = 0x5a) {
  crypto::AesKey key{};
  key.fill(fill);
  return key;
}

struct Rig {
  explicit Rig(VerifierOptions options = {}, std::uint64_t seed = 1)
      : verifier(small_plan(), bs::DesignSpec{"static-v1", 1},
                 bs::DesignSpec{"app-v1", 1}, test_key(), seed, options),
        prover(fabric::DeviceModel::small_test_device(), "dev-1", test_key()) {
    prover.boot(verifier.static_image());
  }
  SachaVerifier verifier;
  SachaProver prover;
};

// ---------------------------------------------------------------- Protocol

TEST(Protocol, CommandRoundTrip) {
  const Command cmd{CommandType::kIcapReadback, 123, {0xAA995566, 0x20000000}};
  auto decoded = Command::decode(cmd.encode());
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_EQ(decoded.value(), cmd);
}

TEST(Protocol, ConfigCommandHasNoFrameNb) {
  const Command cmd{CommandType::kIcapConfig, 0, {1, 2, 3}};
  EXPECT_EQ(cmd.wire_payload_bytes(), 4u + 12u);
  auto decoded = Command::decode(cmd.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().stream, cmd.stream);
}

TEST(Protocol, ChecksumCommandIsHeaderOnly) {
  const Command cmd{CommandType::kMacChecksum, 0, {}};
  EXPECT_EQ(cmd.wire_payload_bytes(), 4u);
  EXPECT_TRUE(Command::decode(cmd.encode()).ok());
}

TEST(Protocol, CommandRejectsGarbage) {
  EXPECT_FALSE(Command::decode(Bytes{}).ok());
  EXPECT_FALSE(Command::decode(Bytes{9, 0, 0, 0}).ok());      // bad type
  EXPECT_FALSE(Command::decode(Bytes{1, 0, 0xff, 0xff}).ok());  // bad length
  EXPECT_FALSE(Command::decode(Bytes{1, 0, 0, 3, 1, 2, 3}).ok());  // misaligned
}

TEST(Protocol, FrameDataResponseRoundTrip) {
  Response resp{.type = ResponseType::kFrameData,
                .status = ProverStatus::kOk,
                .frame_words = {1, 2, 3, 4, 5, 6, 7, 8}};
  auto decoded = Response::decode(resp.encode());
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_EQ(decoded.value(), resp);
}

TEST(Protocol, MacResponseRoundTrip) {
  Response resp{.type = ResponseType::kMacValue, .status = ProverStatus::kOk};
  for (std::size_t i = 0; i < resp.mac.size(); ++i) {
    resp.mac[i] = static_cast<std::uint8_t>(i);
  }
  auto decoded = Response::decode(resp.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().mac, resp.mac);
}

TEST(Protocol, FrameResponseWireSizeMatchesTable3) {
  // On the Virtex-6 a frame response is 4 + 324 = 328 payload bytes, which
  // is the 366-byte wire frame behind Table 3's 2,928 ns A8 row.
  Response resp{.type = ResponseType::kFrameData,
                .status = ProverStatus::kOk,
                .frame_words = std::vector<std::uint32_t>(81, 0)};
  EXPECT_EQ(resp.wire_payload_bytes(), 328u);
}

TEST(Protocol, ResponseRejectsGarbage) {
  EXPECT_FALSE(Response::decode(Bytes{}).ok());
  EXPECT_FALSE(Response::decode(Bytes{7, 0, 0, 0}).ok());  // bad type
  Response mac_resp{.type = ResponseType::kMacValue};
  Bytes wire = mac_resp.encode();
  wire[3] = 5;  // claim a 5-byte MAC
  EXPECT_FALSE(Response::decode(ByteSpan(wire).subspan(0, 9)).ok());
}

// --------------------------------------------------------------- MacEngine

/// One readback frame's words (81, a Virtex-6 frame), all `fill`.
std::vector<std::uint32_t> frame_words(std::uint32_t fill) {
  return std::vector<std::uint32_t>(81, fill);
}

TEST(MacEngineTiming, MatchesTable3Rows) {
  MacEngine engine(test_key());
  EXPECT_EQ(engine.init(), 120u);                        // A5
  EXPECT_EQ(engine.update(frame_words(0x01010101)), 128u);  // A6
  sim::SimDuration fin = 0;
  (void)engine.finalize(fin);
  EXPECT_EQ(fin, 136u);  // A7
}

TEST(MacEngine, MatchesPlainCmac) {
  MacEngine engine(test_key());
  const std::vector<std::uint32_t> frame1 = frame_words(0x11111111);
  const std::vector<std::uint32_t> frame2 = frame_words(0x22222222);
  (void)engine.init();
  (void)engine.update(frame1);
  (void)engine.update(frame2);
  sim::SimDuration fin = 0;
  const crypto::Mac got = engine.finalize(fin);

  // The same frames as the big-endian bytes they stand for.
  crypto::Cmac reference(test_key());
  reference.update(Bytes(324, 0x11));
  reference.update(Bytes(324, 0x22));
  EXPECT_EQ(got, reference.finalize());
}

TEST(MacEngine, RekeyChangesMac) {
  const std::vector<std::uint32_t> frame = frame_words(0x33333333);
  MacEngine engine(test_key(0x01));
  (void)engine.init();
  (void)engine.update(frame);
  sim::SimDuration d = 0;
  const crypto::Mac mac1 = engine.finalize(d);

  engine.rekey(test_key(0x02));
  (void)engine.init();
  (void)engine.update(frame);
  const crypto::Mac mac2 = engine.finalize(d);
  EXPECT_NE(mac1, mac2);
}

// ------------------------------------------------------------------ Prover

TEST(Prover, BootLoadsStaticFrames) {
  Rig rig;
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.prover.memory().config_frame(i),
              rig.verifier.golden_frame(i));
  }
}

TEST(Prover, RejectsUndecodablePacket) {
  Rig rig;
  auto result = rig.prover.handle_packet(Bytes{0xff, 0xff});
  ASSERT_TRUE(result.response.has_value());
  EXPECT_EQ(result.response->type, ResponseType::kError);
  EXPECT_EQ(result.response->status, ProverStatus::kBadCommand);
}

TEST(Prover, RejectsChecksumBeforeReadback) {
  Rig rig;
  const Command cmd{CommandType::kMacChecksum, 0, {}};
  auto result = rig.prover.handle(cmd);
  ASSERT_TRUE(result.response.has_value());
  EXPECT_EQ(result.response->status, ProverStatus::kNoMacPending);
}

TEST(Prover, ConfigIsFireAndForget) {
  Rig rig;
  rig.verifier.begin();
  auto result = rig.prover.handle(rig.verifier.command(0));
  EXPECT_FALSE(result.response.has_value());
  EXPECT_GT(result.icap_time, 0u);
}

TEST(Prover, OversizedCommandRejectedByBoundedBuffer) {
  // A command stream larger than the BRAM staging buffer cannot be staged:
  // the bounded-memory property enforced at the implementation level.
  Rig rig;
  Command big{CommandType::kIcapConfig, 0,
              std::vector<std::uint32_t>(5'000, 0x12345678)};
  auto result = rig.prover.handle_packet(big.encode());
  ASSERT_TRUE(result.response.has_value());
  EXPECT_EQ(result.response->status, ProverStatus::kBadCommand);
}

TEST(Prover, NoopPaddingIsStrippedBeforeIcap) {
  Rig rig;
  rig.verifier.begin();
  const Command cmd = rig.verifier.command(0);  // padded to 266 words
  // The padding is a count in memory; the wire carries all 266 words.
  ASSERT_EQ(cmd.stream.size() + cmd.padding, 266u);
  const Bytes packet = cmd.encode();
  ASSERT_EQ(packet.size(), 4u + 266u * 4u);
  const std::uint64_t cycles_before = rig.prover.icap().stats().cycles;
  auto result = rig.prover.handle_packet(packet);
  ASSERT_FALSE(result.response.has_value());
  // Effective single-frame stream on the test device: 18 stream words
  // (sync 1 + idcode 2 + wcfg 2 + far 2 + hdr 1 + 8 data + desync 2),
  // so cycles = 18 + 8 + 11 = 37, not hundreds.
  EXPECT_EQ(rig.prover.icap().stats().cycles - cycles_before, 37u);
}

/// Every frame of `prover`'s memory as the ICAP reads it back (stored
/// configuration with the live register bits), for memory comparisons.
std::vector<std::uint32_t> memory_image(const SachaProver& prover) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t f = 0; f < prover.memory().total_frames(); ++f) {
    prover.memory().readback_into(f, out);
  }
  return out;
}

/// A burst of `frames` random frames written at frame 5, with NOOPs before
/// and between its packets and after its last one.
std::vector<std::uint32_t> burst_with_interior_noops(const SachaProver& prover,
                                                     std::uint32_t frames) {
  const fabric::DeviceModel& device = prover.memory().device();
  Rng rng(frames);
  std::vector<std::uint32_t> payload(frames *
                                     device.geometry().words_per_frame());
  for (std::uint32_t& w : payload) {
    w = static_cast<std::uint32_t>(rng.next_u64());
  }
  bs::PacketWriter w;
  w.noop(2);
  w.sync();
  w.noop(3);
  w.write_idcode(config::device_idcode(device));
  w.cmd(bs::CmdOp::kWcfg);
  w.noop(2);
  w.write_far(device.geometry().address_of(5));
  w.write_frames(payload);
  w.crc(bs::stream_crc(payload));
  w.noop();
  w.cmd(bs::CmdOp::kDesync);
  w.noop(4);
  return w.take();
}

/// A readback of frames [5, 8) with NOOPs between its packets.
std::vector<std::uint32_t> readback_with_interior_noops(
    const SachaProver& prover) {
  const fabric::DeviceModel& device = prover.memory().device();
  bs::PacketWriter w;
  w.sync();
  w.write_idcode(config::device_idcode(device));
  w.noop();
  w.cmd(bs::CmdOp::kRcfg);
  w.write_far(device.geometry().address_of(5));
  w.noop(2);
  w.read_request(3 * device.geometry().words_per_frame());
  w.cmd(bs::CmdOp::kDesync);
  return w.take();
}

TEST(Prover, PaddingAsCountOrAsNoopWordsStagesAlike) {
  // The in-memory command carries its padding as a count; the same command
  // decoded from a packet (handle_packet) carries it as explicit NOOP
  // words. Both must pass the same staging check, book the same A2/A4 time
  // and leave the same memory — multi-frame bursts with NOOPs between their
  // packets included.
  Rig counted;
  Rig spelled;
  counted.verifier.begin();
  const std::size_t configs =
      counted.verifier.command_count() -
      counted.verifier.readback_steps().size() - 1;
  const std::vector<Command> commands = {
      counted.verifier.command(0),
      Command{CommandType::kIcapConfig, 0,
              burst_with_interior_noops(counted.prover, 3), 100},
      counted.verifier.command(configs),
      Command{CommandType::kIcapReadback, 5,
              readback_with_interior_noops(counted.prover), 50},
  };
  for (std::size_t k = 0; k < commands.size(); ++k) {
    const Command& command = commands[k];
    ASSERT_GT(command.padding, 0u) << "command " << k;
    const SachaProver::HandleResult a = counted.prover.handle(command);
    const SachaProver::HandleResult b =
        spelled.prover.handle_packet(command.encode());
    EXPECT_GT(a.icap_time, 0u) << "command " << k;
    EXPECT_EQ(a.icap_time, b.icap_time) << "command " << k;
    EXPECT_EQ(a.response, b.response) << "command " << k;
    if (a.response.has_value()) {
      EXPECT_NE(a.response->type, ResponseType::kError) << "command " << k;
    }
    EXPECT_EQ(memory_image(counted.prover), memory_image(spelled.prover))
        << "command " << k;
  }

  // NOOPs cost the port nothing wherever they sit: the burst books the
  // cycles of its NOOP-free words, plus the FDRI write pipeline and three
  // frame commits.
  const std::vector<std::uint32_t> burst =
      burst_with_interior_noops(counted.prover, 3);
  const auto effective = static_cast<std::uint32_t>(
      burst.size() - std::count(burst.begin(), burst.end(), bs::kNoopWord));
  const SachaProver::HandleResult result =
      counted.prover.handle(Command{CommandType::kIcapConfig, 0, burst, 0});
  EXPECT_EQ(result.icap_time, sim::icap_domain().cycles_to_time(
                                  effective + 3 * 8 + 3 * 11));
}

TEST(Prover, StagingBoundCountsOnlyEffectiveWords) {
  // A buffer of exactly one single-frame program (18 words on the test
  // device): a NOOP-heavy copy of that program is within the bound and
  // runs; a burst whose effective words exceed it is refused with
  // kBadCommand however it is padded, and leaves memory untouched.
  Rig rig;
  rig.verifier.begin();
  SachaProver prover(fabric::DeviceModel::small_test_device(), "dev-2",
                     test_key(), ProverOptions{.command_buffer_bytes = 18 * 4});
  prover.boot(rig.verifier.static_image());

  Command fits = rig.verifier.command(0);
  ASSERT_EQ(fits.stream.size(), 18u);
  fits.padding = 5'000;  // far more words than the buffer holds
  const SachaProver::HandleResult ok = prover.handle(fits);
  EXPECT_FALSE(ok.response.has_value());
  EXPECT_EQ(ok.icap_time, sim::icap_domain().cycles_to_time(18 + 8 + 11));
  const SachaProver::HandleResult ok_packet =
      prover.handle_packet(fits.encode());
  EXPECT_FALSE(ok_packet.response.has_value());
  EXPECT_EQ(ok_packet.icap_time, ok.icap_time);

  const std::vector<std::uint32_t> before = memory_image(prover);
  for (std::uint32_t padding : {0u, 300u}) {
    const Command oversized{CommandType::kIcapConfig, 0,
                            burst_with_interior_noops(prover, 2), padding};
    for (const SachaProver::HandleResult& refused :
         {prover.handle(oversized), prover.handle_packet(oversized.encode())}) {
      ASSERT_TRUE(refused.response.has_value()) << "padding " << padding;
      EXPECT_EQ(refused.response->status, ProverStatus::kBadCommand)
          << "padding " << padding;
      EXPECT_EQ(refused.icap_time, 0u);
    }
  }
  EXPECT_EQ(memory_image(prover), before);
}

TEST(Prover, InteriorNoopsBeyondTheBufferStillStage) {
  // A buffer of exactly one burst's effective words: with its NOOPs
  // between packets the trimmed burst is longer than the buffer, yet it
  // stages and runs as on a device with room to spare.
  Rig rig;
  const std::vector<std::uint32_t> burst =
      burst_with_interior_noops(rig.prover, 1);
  const auto effective = static_cast<std::size_t>(
      burst.size() - std::count(burst.begin(), burst.end(), bs::kNoopWord));
  SachaProver prover(fabric::DeviceModel::small_test_device(), "dev-2",
                     test_key(),
                     ProverOptions{.command_buffer_bytes = effective * 4});
  prover.boot(rig.verifier.static_image());
  ASSERT_GT(burst.size() - 2 - 4, effective);  // less the end padding

  const std::vector<std::uint32_t> before = memory_image(prover);
  const Command command{CommandType::kIcapConfig, 0, burst, 0};
  const SachaProver::HandleResult roomy = rig.prover.handle(command);
  for (const SachaProver::HandleResult& staged :
       {prover.handle(command), prover.handle_packet(command.encode())}) {
    EXPECT_FALSE(staged.response.has_value());
    EXPECT_EQ(staged.icap_time, roomy.icap_time);
  }
  EXPECT_NE(memory_image(prover), before);
  EXPECT_EQ(memory_image(prover), memory_image(rig.prover));
}

TEST(Prover, KeyFromPufRoundTrip) {
  const std::uint32_t r = 15;
  const puf::SramPuf puf(99, puf::required_cells(r), 0.06);
  puf::EnrollmentDb db;
  Rng rng(100);
  const puf::HelperData helper = db.enroll("dev-1", "stat-puf", puf, rng, r);
  auto key = key_from_puf(puf, helper, rng);
  ASSERT_TRUE(key.ok()) << key.message();
  EXPECT_EQ(key.value(), *db.key_of("dev-1", "stat-puf"));
}

// ------------------------------------------------------------- Full session

TEST(Session, HonestDeviceAttests) {
  Rig rig;
  const AttestationReport report = run_attestation(rig.verifier, rig.prover);
  EXPECT_TRUE(report.verdict.ok()) << report.verdict.detail;
  EXPECT_TRUE(report.verdict.mac_ok);
  EXPECT_TRUE(report.verdict.config_ok);
  EXPECT_TRUE(report.verdict.protocol_ok);
}

TEST(Session, CommandCountMatchesStructure) {
  Rig rig;
  const AttestationReport report = run_attestation(rig.verifier, rig.prover);
  // 11 app config + 1 nonce + 16 readback + 1 checksum.
  EXPECT_EQ(report.commands_sent, 29u);
  EXPECT_EQ(report.ledger.count(actions::kA1), 12u);
  EXPECT_EQ(report.ledger.count(actions::kA3), 16u);
  EXPECT_EQ(report.ledger.count(actions::kA4), 16u);
  EXPECT_EQ(report.ledger.count(actions::kA5), 1u);
  EXPECT_EQ(report.ledger.count(actions::kA6), 16u);
  EXPECT_EQ(report.ledger.count(actions::kA7), 1u);
  EXPECT_EQ(report.ledger.count(actions::kA8), 16u);
  EXPECT_EQ(report.ledger.count(actions::kA9), 1u);
  EXPECT_EQ(report.ledger.count(actions::kA10), 1u);
}

TEST(Session, RegisterChurnDoesNotBreakAttestation) {
  Rig rig;
  SessionOptions options;
  options.register_flip_probability = 1.0;  // every FF flips
  const AttestationReport report = run_attestation(rig.verifier, rig.prover, options);
  EXPECT_TRUE(report.verdict.ok()) << report.verdict.detail;
}

TEST(Session, EveryReadbackOrderWorks) {
  for (const ReadbackOrder order :
       {ReadbackOrder::kSequentialFromZero, ReadbackOrder::kSequentialFromOffset,
        ReadbackOrder::kRandomPermutation}) {
    VerifierOptions options;
    options.order = order;
    Rig rig(options);
    const AttestationReport report = run_attestation(rig.verifier, rig.prover);
    EXPECT_TRUE(report.verdict.ok())
        << static_cast<int>(order) << ": " << report.verdict.detail;
  }
}

TEST(Session, MultiFrameConfigWorks) {
  VerifierOptions options;
  options.frames_per_config = 4;
  Rig rig(options);
  const AttestationReport report = run_attestation(rig.verifier, rig.prover);
  EXPECT_TRUE(report.verdict.ok()) << report.verdict.detail;
  // ceil(11/4) = 3 app config commands + 1 nonce.
  EXPECT_EQ(report.ledger.count(actions::kA1), 4u);
}

TEST(Session, MultiFrameReadbackWorks) {
  VerifierOptions options;
  options.frames_per_readback = 4;
  Rig rig(options);
  const AttestationReport report = run_attestation(rig.verifier, rig.prover);
  EXPECT_TRUE(report.verdict.ok()) << report.verdict.detail;
  EXPECT_EQ(report.ledger.count(actions::kA3), 4u);
}

TEST(Session, NonceChangesAcrossSessions) {
  Rig rig;
  rig.verifier.begin();
  const std::uint64_t nonce1 = rig.verifier.nonce();
  rig.verifier.begin();
  const std::uint64_t nonce2 = rig.verifier.nonce();
  EXPECT_NE(nonce1, nonce2);
}

TEST(Session, MacDiffersAcrossSessions) {
  // Fresh nonce + fresh readback order => fresh MAC every run.
  Rig rig;
  const AttestationReport r1 = run_attestation(rig.verifier, rig.prover);
  const AttestationReport r2 = run_attestation(rig.verifier, rig.prover);
  EXPECT_TRUE(r1.verdict.ok());
  EXPECT_TRUE(r2.verdict.ok());
  // The ledgers agree structurally but the sessions are distinct; compare
  // via the verifier's nonce history instead of MACs (not exposed): the
  // second run re-attested successfully, which requires the new nonce.
  EXPECT_EQ(r1.commands_sent, r2.commands_sent);
}

TEST(Session, TamperedDynamicFrameIsDetected) {
  Rig rig;
  SessionHooks hooks;
  hooks.after_config = [](SachaProver& prover) {
    // Remote adversary flips one configuration bit in the application area.
    bs::Frame frame = prover.memory().config_frame(7);
    frame.flip_bit(40);
    prover.memory().write_frame(7, frame);
  };
  const AttestationReport report = run_attestation(rig.verifier, rig.prover, {}, hooks);
  EXPECT_FALSE(report.verdict.ok());
  EXPECT_TRUE(report.verdict.mac_ok) << "MAC itself is honest over tampered data";
  EXPECT_FALSE(report.verdict.config_ok);
}

TEST(Session, TamperedStaticFrameIsDetected) {
  Rig rig;
  SessionHooks hooks;
  hooks.after_config = [](SachaProver& prover) {
    bs::Frame frame = prover.memory().config_frame(1);  // StatPart frame
    frame.flip_bit(3);
    prover.memory().write_frame(1, frame);
  };
  const AttestationReport report = run_attestation(rig.verifier, rig.prover, {}, hooks);
  EXPECT_FALSE(report.verdict.ok());
  EXPECT_FALSE(report.verdict.config_ok);
}

TEST(Session, ImpersonatorWithoutKeyFailsMac) {
  Rig rig;
  rig.prover.set_key(test_key(0x77));  // device lost/never had the real key
  const AttestationReport report = run_attestation(rig.verifier, rig.prover);
  EXPECT_FALSE(report.verdict.ok());
  EXPECT_FALSE(report.verdict.mac_ok);
}

TEST(Session, DroppedReadbackResponseIsDetected) {
  Rig rig;
  int dropped = 0;
  SessionHooks hooks;
  hooks.on_response = [&dropped](Bytes& reply) {
    auto decoded = Response::decode(reply);
    if (decoded.ok() && decoded.value().type == ResponseType::kFrameData &&
        dropped == 0) {
      ++dropped;
      return false;
    }
    return true;
  };
  const AttestationReport report = run_attestation(rig.verifier, rig.prover, {}, hooks);
  EXPECT_EQ(dropped, 1);
  EXPECT_FALSE(report.verdict.ok());
  EXPECT_FALSE(report.verdict.protocol_ok);
}

TEST(Session, LossyChannelFailsWithoutRetransmission) {
  Rig rig;
  SessionOptions options;
  options.channel.loss_probability = 0.2;
  options.seed = 5;
  const AttestationReport report = run_attestation(rig.verifier, rig.prover, options);
  EXPECT_FALSE(report.verdict.ok());
}

TEST(Session, LossyChannelSucceedsWithRetransmission) {
  Rig rig;
  SessionOptions options;
  options.channel.loss_probability = 0.2;
  options.seed = 5;
  options.reliable = true;
  options.max_retries = 20;
  const AttestationReport report = run_attestation(rig.verifier, rig.prover, options);
  EXPECT_TRUE(report.verdict.ok()) << report.verdict.detail;
  EXPECT_GT(report.retransmissions, 0u);
}

TEST(Session, LatencyDominatesWithLabChannel) {
  Rig rig;
  SessionOptions lab;
  lab.channel = net::ChannelParams::lab();
  const AttestationReport ideal_report = run_attestation(rig.verifier, rig.prover);
  const AttestationReport lab_report = run_attestation(rig.verifier, rig.prover, lab);
  EXPECT_TRUE(lab_report.verdict.ok()) << lab_report.verdict.detail;
  EXPECT_EQ(ideal_report.theoretical_time, lab_report.theoretical_time);
  EXPECT_GT(lab_report.total_time, 10 * lab_report.theoretical_time);
}

TEST(Session, SecureCodeUpdateAttestsNewApplication) {
  // Drimer-style secure update via SACHa: ship app-v2, attest, done. An
  // outdated device (still running app-v1's bitstream) would fail, but the
  // protocol *itself* installs the update, so the run must pass and the
  // device must now hold app-v2's frames.
  Rig rig;
  rig.verifier.set_app_spec(bs::DesignSpec{"app-v2", 9});
  const AttestationReport report = run_attestation(rig.verifier, rig.prover);
  EXPECT_TRUE(report.verdict.ok()) << report.verdict.detail;
  const bs::BitGen gen(fabric::DeviceModel::small_test_device());
  const auto v2 = gen.generate(fabric::FrameRange{4, 11}, {"app-v2", 9});
  EXPECT_EQ(rig.prover.memory().config_frame(4), v2.frames[0]);
}

TEST(Session, PufKeyedProverAttests) {
  const std::uint32_t r = 15;
  const puf::SramPuf puf(1234, puf::required_cells(r), 0.06);
  puf::EnrollmentDb db;
  Rng rng(77);
  const puf::HelperData helper = db.enroll("dev-1", "stat-puf", puf, rng, r);

  SachaVerifier verifier(small_plan(), bs::DesignSpec{"static-v1", 1},
                         bs::DesignSpec{"app-v1", 1},
                         *db.key_of("dev-1", "stat-puf"), 1);
  auto device_key = key_from_puf(puf, helper, rng);
  ASSERT_TRUE(device_key.ok());
  SachaProver prover(fabric::DeviceModel::small_test_device(), "dev-1",
                     device_key.value(),
                     ProverOptions{.key_source = KeySource::kStaticPuf});
  prover.boot(verifier.static_image());
  const AttestationReport report = run_attestation(verifier, prover);
  EXPECT_TRUE(report.verdict.ok()) << report.verdict.detail;
}

}  // namespace
}  // namespace sacha::core
