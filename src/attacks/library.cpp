#include "attacks/library.hpp"

#include "bitstream/bitgen.hpp"
#include "bitstream/pins.hpp"
#include "config/bram_buffer.hpp"
#include "crypto/prg.hpp"

namespace sacha::attacks {

namespace bs = sacha::bitstream;
using core::AttestationReport;
using core::Response;
using core::ResponseType;
using core::run_attestation;
using core::SessionHooks;

const char* to_string(AttackResult result) {
  switch (result) {
    case AttackResult::kDetected: return "DETECTED";
    case AttackResult::kPrevented: return "PREVENTED";
    case AttackResult::kUndetected: return "UNDETECTED";
  }
  return "?";
}

namespace {

/// First dynamic frame of the floorplan.
std::uint32_t first_dyn_frame(const AttackEnv& env) {
  for (const auto& p : env.plan.partitions()) {
    if (p.kind == fabric::PartitionKind::kDynamic) return p.frames.first;
  }
  return 0;
}

AttackOutcome outcome_from(const Attack& attack, const AttestationReport& report,
                           std::string evidence_if_detected) {
  AttackOutcome outcome;
  outcome.name = attack.name();
  outcome.verdict = report.verdict;
  if (report.verdict.ok()) {
    outcome.result = AttackResult::kUndetected;
    outcome.evidence = "verifier accepted a compromised run";
  } else {
    outcome.result = AttackResult::kDetected;
    outcome.evidence = std::move(evidence_if_detected) + " (" +
                       report.verdict.detail + ")";
  }
  return outcome;
}

}  // namespace

// ------------------------------------------------------- DynPartTamper

std::string DynPartTamperAttack::description() const {
  return "malicious hardware module inserted in the dynamic partition after "
         "configuration";
}

AttackOutcome DynPartTamperAttack::run(const AttackEnv& env) const {
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();
  const std::uint32_t target = first_dyn_frame(env) + 1;
  SessionHooks hooks;
  hooks.after_config = [target](core::SachaProver& p) {
    bs::Frame frame = p.memory().config_frame(target);
    frame.flip_bit(64);  // reroute one LUT input: a minimal hardware trojan
    p.memory().write_frame(target, frame);
  };
  const auto report = run_attestation(verifier, prover, env.session_options, hooks);
  return outcome_from(*this, report,
                      "masked compare caught the modified dynamic frame");
}

// ------------------------------------------------------ StatPartTamper

std::string StatPartTamperAttack::description() const {
  return "malicious logic added to the static partition";
}

AttackOutcome StatPartTamperAttack::run(const AttackEnv& env) const {
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();
  SessionHooks hooks;
  hooks.after_config = [](core::SachaProver& p) {
    bs::Frame frame = p.memory().config_frame(0);  // StatPart frame
    frame.flip_bit(10);
    p.memory().write_frame(0, frame);
  };
  const auto report = run_attestation(verifier, prover, env.session_options, hooks);
  return outcome_from(*this, report,
                      "full-memory readback covers the static partition too");
}

// ------------------------------------------------------- Impersonation

std::string ImpersonationAttack::description() const {
  return "cloned/impersonated prover answering without the device key";
}

AttackOutcome ImpersonationAttack::run(const AttackEnv& env) const {
  auto verifier = env.make_verifier();
  auto prover = env.make_prover(/*genuine_key=*/false);
  const auto report = run_attestation(verifier, prover, env.session_options);
  return outcome_from(*this, report, "MAC keyed by the PUF-bound device key");
}

// ------------------------------------------------------------ ProxyMac

std::string ProxyMacAttack::description() const {
  return "external device computes/forges the MAC while observing all frames";
}

AttackOutcome ProxyMacAttack::run(const AttackEnv& env) const {
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();
  // The proxy sees every frame on the public channel and MACs them with its
  // best guess of the key, substituting the device's answer.
  crypto::Prg prg(env.seed, "proxy-key-guess");
  const crypto::AesKey proxy_key = prg.key();
  auto proxy_mac = std::make_shared<crypto::Cmac>(proxy_key);
  SessionHooks hooks;
  hooks.on_response = [proxy_mac](Bytes& reply) {
    auto decoded = Response::decode(reply);
    if (!decoded.ok()) return true;
    Response response = std::move(decoded).take();
    if (response.type == ResponseType::kFrameData) {
      Bytes frame_bytes;
      for (std::uint32_t w : response.frame_words) put_u32be(frame_bytes, w);
      proxy_mac->update(frame_bytes);
      return true;
    }
    if (response.type == ResponseType::kMacValue) {
      response.mac = proxy_mac->finalize();  // forge
      reply = response.encode();
    }
    return true;
  };
  const auto report = run_attestation(verifier, prover, env.session_options, hooks);
  return outcome_from(*this, report,
                      "proxy cannot produce MAC_K without the shared key");
}

// -------------------------------------------------------------- Replay

std::string ReplayAttack::description() const {
  return "responses of an earlier honest session replayed to mask tampering";
}

AttackOutcome ReplayAttack::run(const AttackEnv& env) const {
  // One long-lived verifier and device: the nonce and readback order roll
  // over between the two sessions, which is exactly what defeats the replay.
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();

  // Session 1: honest; the adversary records every response.
  auto recorded = std::make_shared<std::vector<Bytes>>();
  {
    SessionHooks record_hooks;
    record_hooks.on_response = [recorded](Bytes& reply) {
      recorded->push_back(reply);
      return true;
    };
    (void)run_attestation(verifier, prover, env.session_options, record_hooks);
  }

  // Session 2: the device is compromised; the adversary substitutes the
  // recorded transcript for the live responses.
  const std::uint32_t target = first_dyn_frame(env);
  auto cursor = std::make_shared<std::size_t>(0);
  SessionHooks hooks;
  hooks.after_config = [target](core::SachaProver& p) {
    bs::Frame frame = p.memory().config_frame(target);
    frame.flip_bit(5);
    p.memory().write_frame(target, frame);
  };
  hooks.on_response = [recorded, cursor](Bytes& reply) {
    if (*cursor < recorded->size()) {
      reply = (*recorded)[(*cursor)++];
    }
    return true;
  };
  const auto report = run_attestation(verifier, prover, env.session_options, hooks);
  return outcome_from(*this, report,
                      "fresh nonce and fresh readback order invalidate the "
                      "recorded transcript");
}

// --------------------------------------------------------- NonceFreeze

std::string NonceFreezeAttack::description() const {
  return "nonce-update configuration command suppressed to keep the old nonce";
}

AttackOutcome NonceFreezeAttack::run(const AttackEnv& env) const {
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();
  const std::uint32_t nonce_frame = verifier.nonce_frame_index();
  const auto& geometry = env.plan.device().geometry();
  SessionHooks hooks;
  hooks.on_command = [nonce_frame, &geometry](Bytes& packet) {
    auto decoded = core::Command::decode(packet);
    if (!decoded.ok() || decoded.value().type != core::CommandType::kIcapConfig) {
      return true;
    }
    // Inspect the embedded ICAP program for a FAR write to the nonce frame.
    auto parsed = bs::parse_packets(decoded.value().stream);
    if (!parsed.ok()) return true;
    for (const auto& op : parsed.value()) {
      if (const auto* far = std::get_if<bs::OpWriteFar>(&op)) {
        if (geometry.valid(far->address) &&
            geometry.linear_index(far->address) == nonce_frame) {
          return false;  // drop the nonce configuration
        }
      }
    }
    return true;
  };
  const auto report = run_attestation(verifier, prover, env.session_options, hooks);
  return outcome_from(*this, report,
                      "stale nonce frame fails the masked golden compare");
}

// --------------------------------------------------------- BramStaging

std::string BramStagingAttack::description() const {
  return "resident malware tries to stash itself in on-fabric BRAM across "
         "the overwrite";
}

AttackOutcome BramStagingAttack::run(const AttackEnv& env) const {
  AttackOutcome outcome;
  outcome.name = name();

  // Layer 1 — capacity: the snapshot the malware needs is the dynamic
  // region's bitstream; the staging memory it controls is the DynPart BRAM.
  fabric::ResourceCounts dyn_resources;
  for (const auto& p : env.plan.partitions()) {
    if (p.kind == fabric::PartitionKind::kDynamic) dyn_resources = p.resources;
  }
  const std::uint32_t dyn_count =
      env.plan.frames_of_kind(fabric::PartitionKind::kDynamic);
  const std::uint64_t snapshot_bytes =
      env.plan.device().bitstream_bytes(dyn_count);
  config::BramBuffer staging(fabric::bram_capacity_bytes(dyn_resources));
  const bool capacity_allows =
      staging.store("probe", Bytes(std::min<std::uint64_t>(
                                       snapshot_bytes, staging.capacity() + 1),
                                   0)) &&
      snapshot_bytes <= staging.capacity();
  staging.clear();

  // Layer 2 — even if capacity allowed it, BRAM *content is part of the
  // configuration memory*: the stash lives in BRAM-content frames, which
  // the protocol overwrites and reads back like any other frame. Model the
  // stash as content planted in the dynamic BRAM frames, then run.
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();
  const auto& geometry = env.plan.device().geometry();
  const std::uint32_t logic_frames =
      geometry.block(fabric::BlockType::kLogic).frames();
  std::vector<std::uint32_t> stash_frames;
  for (std::uint32_t f = first_dyn_frame(env); f < first_dyn_frame(env) + dyn_count;
       ++f) {
    if (f >= logic_frames) stash_frames.push_back(f);  // BRAM-content frame
  }
  const bs::Frame stash_pattern(geometry.words_per_frame(), 0xE71Lu);
  for (std::uint32_t f : stash_frames) {
    prover.memory().write_frame(f, stash_pattern);
  }

  const auto report = run_attestation(verifier, prover, env.session_options);
  outcome.verdict = report.verdict;

  bool stash_survived = false;
  for (std::uint32_t f : stash_frames) {
    if (prover.memory().config_frame(f) == stash_pattern) stash_survived = true;
  }

  if (stash_survived && report.verdict.ok()) {
    outcome.result = AttackResult::kUndetected;
    outcome.evidence = "stash survived an accepted session";
  } else if (!report.verdict.ok()) {
    outcome.result = AttackResult::kDetected;
    outcome.evidence = report.verdict.detail;
  } else {
    outcome.result = AttackResult::kPrevented;
    outcome.evidence =
        std::string("stash destroyed: BRAM-content frames are overwritten and "
                    "read back like all configuration memory") +
        (capacity_allows
             ? " (toy device: capacity alone would have allowed the stash)"
             : "; capacity also insufficient (" +
                   std::to_string(snapshot_bytes) + " B snapshot vs " +
                   std::to_string(staging.capacity()) + " B BRAM)");
  }
  return outcome;
}

// -------------------------------------------------------- HiddenModule

std::string HiddenModuleAttack::description() const {
  return "malicious module parked in unused dynamic fabric before attestation";
}

AttackOutcome HiddenModuleAttack::run(const AttackEnv& env) const {
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();

  // Park a module in the last application frame (it looks "unused").
  const std::uint32_t dyn_first = first_dyn_frame(env);
  const std::uint32_t parked = verifier.nonce_frame_index() - 1;
  const bs::BitGen gen(env.plan.device());
  const auto trojan = gen.generate(fabric::FrameRange{parked, 1}, {"trojan", 7});
  prover.memory().write_frame(parked, trojan.frames[0]);

  const auto report = run_attestation(verifier, prover, env.session_options);

  AttackOutcome outcome;
  outcome.name = name();
  outcome.verdict = report.verdict;
  const bool erased =
      prover.memory().config_frame(parked) != trojan.frames[0];
  if (report.verdict.ok() && erased) {
    outcome.result = AttackResult::kPrevented;
    outcome.evidence = "the full-DynMem overwrite erased the parked module; "
                       "full readback confirmed frame " +
                       std::to_string(parked) + " now holds the intended "
                       "application (first dyn frame " +
                       std::to_string(dyn_first) + ")";
  } else if (!report.verdict.ok()) {
    outcome.result = AttackResult::kDetected;
    outcome.evidence = report.verdict.detail;
  } else {
    outcome.result = AttackResult::kUndetected;
    outcome.evidence = "parked module survived an accepted session";
  }
  return outcome;
}

// -------------------------------------------- MaliciousUpdateInjection

std::string MaliciousUpdateInjection::description() const {
  return "man-in-the-middle swaps the shipped application for its own";
}

AttackOutcome MaliciousUpdateInjection::run(const AttackEnv& env) const {
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();
  SessionHooks hooks;
  hooks.on_command = [](Bytes& packet) {
    auto decoded = core::Command::decode(packet);
    if (!decoded.ok() || decoded.value().type != core::CommandType::kIcapConfig) {
      return true;
    }
    core::Command command = std::move(decoded).take();
    // Flip one bit inside the FDRI frame data: the single-frame stream
    // layout is sync(1) idcode(2) wcfg(2) far(2) fdri-header(1), so the
    // payload starts at word 8. Any change to the configured content must
    // be caught by the golden compare after readback.
    if (command.stream.size() > 8) {
      command.stream[8] ^= 0x1;
      packet = command.encode();
    }
    return true;
  };
  const auto report = run_attestation(verifier, prover, env.session_options, hooks);
  return outcome_from(*this, report,
                      "readback reflects the injected content, golden "
                      "compare rejects it");
}

// --------------------------------------------------------- ExternalTap

std::string ExternalTapAttack::description() const {
  return "external device wired to unused FPGA pins (IOB enabled post-config)";
}

AttackOutcome ExternalTapAttack::run(const AttackEnv& env) const {
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();

  // The verifier's golden pin map: which pins the intended design drives.
  verifier.begin();
  const auto& device = env.plan.device();
  const BitVec golden_pins = bs::extract_pin_map(
      device, [&verifier](std::uint32_t f) { return verifier.golden_words(f); });

  // Pick a pin the design leaves unconnected; the adversary taps it.
  std::optional<std::uint32_t> target_pin;
  for (std::uint32_t pin = 0; pin < golden_pins.size(); ++pin) {
    if (!golden_pins.get(pin)) {
      target_pin = pin;
      break;
    }
  }
  AttackOutcome outcome;
  outcome.name = name();
  if (!target_pin.has_value()) {
    outcome.result = AttackResult::kPrevented;
    outcome.evidence = "design drives every pin; nothing to tap";
    return outcome;
  }
  const bs::PinBit tap = bs::pin_bit_location(device, *target_pin);

  SessionHooks hooks;
  hooks.after_config = [tap](core::SachaProver& p) {
    bs::Frame frame = p.memory().config_frame(tap.frame);
    frame.set_bit(tap.bit, true);  // enable the IOB: wire goes out
    p.memory().write_frame_preserving_registers(tap.frame, frame);
  };
  const auto report = run_attestation(verifier, prover, env.session_options, hooks);

  outcome.verdict = report.verdict;
  if (report.verdict.ok()) {
    outcome.result = AttackResult::kUndetected;
    outcome.evidence = "tap on pin " + std::to_string(*target_pin) +
                       " survived an accepted session";
    return outcome;
  }
  // Name the tapped pin from the device's own configuration.
  const BitVec observed = bs::extract_pin_map(
      device, [&prover](std::uint32_t f) {
        return prover.memory().config_words(f);
      });
  outcome.result = AttackResult::kDetected;
  outcome.evidence = bs::diff_pin_maps(golden_pins, observed).to_string() +
                     " (" + report.verdict.detail + ")";
  return outcome;
}

std::vector<std::unique_ptr<Attack>> standard_suite() {
  std::vector<std::unique_ptr<Attack>> suite;
  suite.push_back(std::make_unique<DynPartTamperAttack>());
  suite.push_back(std::make_unique<StatPartTamperAttack>());
  suite.push_back(std::make_unique<ImpersonationAttack>());
  suite.push_back(std::make_unique<ProxyMacAttack>());
  suite.push_back(std::make_unique<ReplayAttack>());
  suite.push_back(std::make_unique<NonceFreezeAttack>());
  suite.push_back(std::make_unique<BramStagingAttack>());
  suite.push_back(std::make_unique<HiddenModuleAttack>());
  suite.push_back(std::make_unique<MaliciousUpdateInjection>());
  suite.push_back(std::make_unique<ExternalTapAttack>());
  return suite;
}

}  // namespace sacha::attacks
