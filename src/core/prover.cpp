#include "core/prover.hpp"

#include <algorithm>

#include "bitstream/packet.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace sacha::core {

namespace bs = sacha::bitstream;

SachaProver::SachaProver(const fabric::DeviceModel& device,
                         std::string device_id, const crypto::AesKey& key,
                         ProverOptions options)
    : device_id_(std::move(device_id)),
      options_(options),
      memory_(device),
      icap_(memory_, config::device_idcode(device)),
      command_buffer_(options.command_buffer_bytes),
      mac_(key),
      icap_clock_(sim::icap_domain()) {}

SachaProver::SachaProver(SachaProver&& other) noexcept
    : device_id_(std::move(other.device_id_)),
      options_(other.options_),
      memory_(std::move(other.memory_)),
      icap_(std::move(other.icap_)),
      command_buffer_(std::move(other.command_buffer_)),
      mac_(std::move(other.mac_)),
      icap_clock_(std::move(other.icap_clock_)),
      last_mac_(other.last_mac_),
      fault_(other.fault_),
      boot_words_(std::move(other.boot_words_)) {
  icap_.rebind(memory_);
}

void SachaProver::boot(std::span<const std::uint32_t> static_words) {
  boot_words_.assign(static_words.begin(), static_words.end());
  const std::uint32_t wpf = memory_.words_per_frame();
  for (std::uint32_t i = 0; i < static_words.size() / wpf; ++i) {
    memory_.write_frame(i, static_words.subspan(std::size_t{i} * wpf, wpf));
  }
}

void SachaProver::inject_crash(std::uint32_t reboot_after_packets) {
  static obs::Counter& crashes =
      obs::MetricsRegistry::global().counter("sacha.prover.faults.crashes");
  crashes.add(1);
  fault_.crashed = true;
  fault_.reboot_after = reboot_after_packets;
  (log_debug() << "prover crash injected")
      .kv("device", device_id_)
      .kv("reboot_after", reboot_after_packets);
}

void SachaProver::inject_stall(std::uint32_t packets) {
  static obs::Counter& stalls =
      obs::MetricsRegistry::global().counter("sacha.prover.faults.stalls");
  stalls.add(1);
  fault_.stall_remaining += packets;
  (log_debug() << "prover ICAP stall injected")
      .kv("device", device_id_)
      .kv("packets", packets);
}

void SachaProver::reboot() {
  static obs::Counter& reboots =
      obs::MetricsRegistry::global().counter("sacha.prover.faults.reboots");
  reboots.add(1);
  // Volatile configuration memory is gone; only BootMem survives the power
  // cycle. Zero everything, then reload the static partition.
  memory_.clear();
  const std::uint32_t wpf = memory_.words_per_frame();
  const std::span<const std::uint32_t> boot(boot_words_);
  for (std::uint32_t i = 0; i < boot_words_.size() / wpf; ++i) {
    memory_.write_frame(i, boot.subspan(std::size_t{i} * wpf, wpf));
  }
  if (mac_.busy()) mac_.abort();
  last_mac_.reset();
  fault_.crashed = false;
  fault_.reboot_after = 0;
  fault_.stall_remaining = 0;
  ++fault_.reboots;
  (log_debug() << "prover rebooted from BootMem").kv("device", device_id_);
}

void SachaProver::set_key(const crypto::AesKey& key) { mac_.rekey(key); }

SachaProver::HandleResult SachaProver::error_result(ProverStatus status) {
  static obs::Counter& errors =
      obs::MetricsRegistry::global().counter("sacha.prover.errors");
  errors.add(1);
  (log_debug() << "prover rejected command")
      .kv("device", device_id_)
      .kv("status", static_cast<int>(status));
  HandleResult result;
  result.response = Response{.type = ResponseType::kError, .status = status};
  return result;
}

bool SachaProver::drop_at_fault_gate() {
  // Fault gate: a crashed or stalled device never sees the packet — from
  // the verifier's side this is indistinguishable from wire loss, which is
  // exactly the point (only retry behaviour and typed failure reporting
  // distinguish them at the fleet layer).
  if (!fault_.faulted()) return false;
  static obs::Counter& dropped = obs::MetricsRegistry::global().counter(
      "sacha.prover.faults.packets_dropped");
  ++fault_.packets_dropped;
  dropped.add(1);
  if (fault_.stall_remaining > 0) {
    --fault_.stall_remaining;
  } else if (fault_.reboot_after > 0 && --fault_.reboot_after == 0) {
    // Crashed: the device powers back up after this packet is lost; the
    // *next* packet reaches a freshly booted (application-less) device.
    reboot();
  }
  return true;
}

SachaProver::HandleResult SachaProver::handle_packet(
    ByteSpan packet, std::vector<std::uint32_t> frame_buffer, MacFold* fold) {
  // The gate stays ahead of the decode: a crashed device drops even an
  // undecodable packet.
  if (drop_at_fault_gate()) return HandleResult{.dropped = true};
  auto decoded = Command::decode(packet);
  if (!decoded.ok()) return error_result(ProverStatus::kBadCommand);
  return stage_and_run(decoded.value(), std::move(frame_buffer), fold);
}

SachaProver::HandleResult SachaProver::handle(
    const Command& command, std::vector<std::uint32_t> frame_buffer,
    MacFold* fold) {
  if (drop_at_fault_gate()) return HandleResult{.dropped = true};
  return stage_and_run(command, std::move(frame_buffer), fold);
}

namespace {

/// `words` without its leading and trailing runs of NOOP words: the
/// padding a decoded packet carries after its program (and any before it).
std::span<const std::uint32_t> trim_noop_padding(
    std::span<const std::uint32_t> words) {
  while (!words.empty() && words.back() == bs::kNoopWord) {
    words = words.first(words.size() - 1);
  }
  while (!words.empty() && words.front() == bs::kNoopWord) {
    words = words.subspan(1);
  }
  return words;
}

}  // namespace

SachaProver::HandleResult SachaProver::stage_and_run(
    const Command& command, std::vector<std::uint32_t>&& frame_buffer,
    MacFold* fold) {
  // The RX FSM strips NOOP padding and stages the effective command in the
  // BRAM buffer before the ICAP domain picks it up. The buffer is sized for
  // one frame's program; a command whose effective (non-NOOP) words do not
  // fit cannot be staged and is rejected — this is the bounded-memory
  // property at the implementation level. (`padding` words are NOOPs too,
  // so they never count.) The model enforces the bound by counting, then
  // runs the ICAP on the command's own words: the padding runs at either
  // end are cut off the span, and the NOOPs left inside parse in place and
  // cost the port nothing, as if stripped. The effective words are never
  // more than the trimmed ones, so they are counted only when the trimmed
  // program alone would not fit.
  const std::span<const std::uint32_t> program =
      trim_noop_padding(command.stream);
  if (program.size() * 4 > command_buffer_.free()) {
    const std::size_t effective =
        program.size() - static_cast<std::size_t>(std::count(
                             program.begin(), program.end(), bs::kNoopWord));
    if (effective * 4 > command_buffer_.free()) {
      return error_result(ProverStatus::kBadCommand);
    }
  }

  HandleResult result;
  switch (command.type) {
    case CommandType::kIcapConfig: {
      // A configuration command opens a new attestation round: any MAC
      // computation left over from an aborted readback phase is discarded,
      // so stale state can never leak into the next session's checksum.
      if (mac_.busy()) mac_.abort();
      const std::uint64_t cycles_before = icap_.stats().cycles;
      const Status outcome = icap_.execute(program, frame_buffer);
      result.icap_time =
          icap_clock_.cycles_to_time(icap_.stats().cycles - cycles_before);
      if (!outcome.ok()) {
        result.response =
            Response{.type = ResponseType::kError, .status = ProverStatus::kIcapError};
        return result;
      }
      // Fire and forget: the PoC does not acknowledge configuration writes.
      result.response = std::nullopt;
      return result;
    }

    case CommandType::kIcapReadback: {
      const std::uint64_t cycles_before = icap_.stats().cycles;
      const Status outcome = icap_.execute(program, frame_buffer);
      result.icap_time =
          icap_clock_.cycles_to_time(icap_.stats().cycles - cycles_before);
      if (!outcome.ok()) {
        result.response =
            Response{.type = ResponseType::kError, .status = ProverStatus::kIcapError};
        return result;
      }
      if (frame_buffer.empty()) {
        // A readback command whose program reads nothing is malformed.
        result.response = Response{.type = ResponseType::kError,
                                   .status = ProverStatus::kBadCommand};
        return result;
      }
      if (!mac_.busy()) result.mac_init_time = mac_.init();
      // Frame fast path: MAC the readback words in place (or leave that
      // fold to the driver), then move their storage into the response —
      // no copy between the ICAP output, the AES-CMAC engine and TX.
      result.mac_update_time =
          mac_.update(std::span<const std::uint32_t>(frame_buffer), fold);
      result.response = Response{.type = ResponseType::kFrameData,
                                 .status = ProverStatus::kOk,
                                 .frame_words = std::move(frame_buffer)};
      return result;
    }

    case CommandType::kMacChecksum: {
      if (!mac_.busy()) {
        result.response = Response{.type = ResponseType::kError,
                                   .status = ProverStatus::kNoMacPending};
        return result;
      }
      Response response{.type = ResponseType::kMacValue, .status = ProverStatus::kOk};
      response.mac = mac_.finalize(result.mac_finalize_time);
      last_mac_ = response.mac;
      result.response = std::move(response);
      return result;
    }
  }
  return error_result(ProverStatus::kBadCommand);
}

Result<crypto::AesKey> key_from_puf(const puf::SramPuf& puf,
                                    const puf::HelperData& helper,
                                    Rng& noise_rng) {
  const BitVec response = puf.read(noise_rng);
  auto key = puf::reproduce(response, helper);
  if (!key.has_value()) {
    return Result<crypto::AesKey>::error("fuzzy extractor failed to decode");
  }
  return *key;
}

}  // namespace sacha::core
