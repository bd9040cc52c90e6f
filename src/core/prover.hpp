// SACHa prover — the device side of the protocol.
//
// Models the static partition of Fig. 10 end to end: network packets are
// decoded (RX domain), NOOP padding is stripped, the effective command must
// fit the bounded BRAM staging buffer, the ICAP executes the embedded
// program (ICAP domain), readback data flows through the AES-CMAC engine
// and back out (TX domain). The model stages by count: it checks the bound
// on the effective words and runs the ICAP on the command's own words,
// with no copy in between. Every handled command reports the simulated
// device time it consumed, split by component, so the session ledger can
// reproduce the A2/A4/A5/A6/A7 rows of Table 3.
//
// The prover is deliberately *thin*: it has no golden reference, no notion
// of "expected" configuration, and never refuses a well-formed write — a
// compromised configuration is detected by the verifier, not the device.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "config/bram_buffer.hpp"
#include "config/config_memory.hpp"
#include "config/icap.hpp"
#include "core/mac_engine.hpp"
#include "core/protocol.hpp"
#include "fabric/partition.hpp"
#include "puf/fuzzy_extractor.hpp"
#include "sim/clock.hpp"

namespace sacha::core {

/// Where the prover's MAC key comes from (§5.2.1).
enum class KeySource : std::uint8_t {
  kKeyRegister,  // provisioned register in the StatPart (PoC implementation)
  kStaticPuf,    // weak PUF in the StatPart
  kDynamicPuf,   // PUF circuit shipped by the Vrf in the DynPart
};

struct ProverOptions {
  KeySource key_source = KeySource::kKeyRegister;
  /// Command staging memory (the PoC sizes it for a single frame + header).
  std::uint64_t command_buffer_bytes = 2 * 2'304;  // two 18-kbit BRAMs
};

/// Injectable device fault state, driven by the fault harness (fault::
/// FaultInjector). Faults make the device unresponsive or lose volatile
/// state — they never make it forge responses, so the security argument is
/// untouched: a faulty device can only fail attestation, not pass wrongly.
struct ProverFaultState {
  /// Power loss: the device is unreachable and its volatile configuration
  /// memory is gone. `reboot_after` counts incoming packets until the
  /// device comes back up from BootMem (0 = stays down forever).
  bool crashed = false;
  std::uint32_t reboot_after = 0;
  /// Busy ICAP: the next `stall_remaining` incoming packets are dropped at
  /// the device (the RX FSM cannot stage them while the ICAP holds the
  /// buffer). Clears on its own — the transient the retransmit path heals.
  std::uint32_t stall_remaining = 0;
  /// Lifetime counters for reports and tests.
  std::uint64_t packets_dropped = 0;
  std::uint32_t reboots = 0;

  bool faulted() const { return crashed || stall_remaining > 0; }
};

class SachaProver {
 public:
  /// `device_id` names the device in the verifier's enrollment database.
  SachaProver(const fabric::DeviceModel& device, std::string device_id,
              const crypto::AesKey& key, ProverOptions options = {});

  // Movable (the ICAP is re-pointed at the moved configuration memory);
  // copying a device makes no physical sense.
  SachaProver(SachaProver&& other) noexcept;
  SachaProver& operator=(SachaProver&&) = delete;
  SachaProver(const SachaProver&) = delete;
  SachaProver& operator=(const SachaProver&) = delete;

  /// Power-on: BootMem loads the static partition's configuration into the
  /// (volatile) StatMem. `static_words` holds frames [0, n) back to back.
  void boot(std::span<const std::uint32_t> static_words);

  struct HandleResult {
    std::optional<Response> response;  // nullopt: fire-and-forget config
    sim::SimDuration icap_time = 0;    // A2 or A4
    sim::SimDuration mac_init_time = 0;      // A5 (first readback only)
    sim::SimDuration mac_update_time = 0;    // A6
    sim::SimDuration mac_finalize_time = 0;  // A7
    /// The device never processed the packet (crashed or stalled ICAP).
    /// The session driver treats this exactly like wire loss: no response,
    /// no dedup-cache entry, retransmission may still succeed later.
    bool dropped = false;
  };

  /// The device's one intake for a decoded command: the fault gate (a
  /// crashed or stalled device drops it), the staging bound on the
  /// effective (non-NOOP) words, then the ICAP program. A readback reads
  /// into `frame_buffer`'s storage, which moves on into the response: a
  /// driver that hands back the previous response's words reads back
  /// without allocating.
  /// A readback's MAC update runs at once, or, given an empty `fold`
  /// slot, goes into it over the response's words: the driver keeps them
  /// alive and runs the fold before the device handles another command.
  HandleResult handle(const Command& command,
                      std::vector<std::uint32_t> frame_buffer = {},
                      MacFold* fold = nullptr);

  /// Raw-packet entry point: the fault gate, then decode, then handle()'s
  /// staging bound and program. Undecodable packets produce an error
  /// response.
  HandleResult handle_packet(ByteSpan packet,
                             std::vector<std::uint32_t> frame_buffer = {},
                             MacFold* fold = nullptr);

  /// Rekeys the MAC engine (DynPart-PUF key rotation after the verifier
  /// ships a new PUF circuit; §5.2.1 option 2).
  void set_key(const crypto::AesKey& key);

  // -- Fault injection (test/fault-harness surface) ------------------------

  /// Crashes the device: unreachable, volatile state lost. It reboots from
  /// BootMem after `reboot_after_packets` further incoming packets (0 =
  /// stays down). A rebooted device has lost its DynMem configuration and
  /// MAC state, so only a full fresh-nonce reconfiguration can attest it.
  void inject_crash(std::uint32_t reboot_after_packets = 0);

  /// Stalls the ICAP for the next `packets` incoming packets (dropped at
  /// the device, as if lost on the wire).
  void inject_stall(std::uint32_t packets);

  const ProverFaultState& fault_state() const { return fault_; }

  /// H_Prv of the most recent MAC_checksum, kept in the attestation
  /// evidence register so the signature extension can sign it.
  const std::optional<crypto::Mac>& last_mac() const { return last_mac_; }

  const std::string& device_id() const { return device_id_; }
  config::ConfigMemory& memory() { return memory_; }
  const config::ConfigMemory& memory() const { return memory_; }
  config::Icap& icap() { return icap_; }
  config::BramBuffer& command_buffer() { return command_buffer_; }
  const ProverOptions& options() const { return options_; }

 private:
  HandleResult error_result(ProverStatus status);
  /// Applies the fault gate to one incoming packet: true when a crashed or
  /// stalled device drops it (counters and reboot countdown advance).
  bool drop_at_fault_gate();
  /// handle() after the fault gate.
  HandleResult stage_and_run(const Command& command,
                             std::vector<std::uint32_t>&& frame_buffer,
                             MacFold* fold);
  /// Power-cycle recovery: zero the volatile configuration memory, reload
  /// the BootMem image, reset the MAC engine.
  void reboot();

  std::string device_id_;
  ProverOptions options_;
  config::ConfigMemory memory_;
  config::Icap icap_;
  config::BramBuffer command_buffer_;
  MacEngine mac_;
  sim::ClockDomain icap_clock_;
  std::optional<crypto::Mac> last_mac_;
  ProverFaultState fault_;
  /// What boot() loaded, frames [0, n) as flat words — kept so a
  /// crash/reboot cycle can restore the non-volatile BootMem content (the
  /// static partition only; masks are architectural, not BootMem state).
  std::vector<std::uint32_t> boot_words_;
};

/// Derives the prover key from a PUF read using the enrollment helper data
/// (used at boot for kStaticPuf, or after circuit reconfiguration for
/// kDynamicPuf). Fails when the fuzzy extractor cannot decode.
Result<crypto::AesKey> key_from_puf(const puf::SramPuf& puf,
                                    const puf::HelperData& helper,
                                    Rng& noise_rng);

}  // namespace sacha::core
