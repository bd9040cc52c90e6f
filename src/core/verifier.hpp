// SACHa verifier.
//
// Owns everything the device does not: the golden configuration (static
// design + intended application + session nonce), the register-bit mask
// Msk, the shared MAC key, and the protocol schedule (which frames to
// configure, and the order — any permutation, §6.1 — in which to read the
// configuration memory back). After the run it checks two things (Fig. 9):
//   1. MAC_K(received frames, in readback order) equals the device's MAC —
//      the data came from the keyed device and was not modified in flight;
//   2. Msk(received frames) equals Msk(golden frames) for every step, with
//      every configuration frame covered — the device is configured exactly
//      as intended, nonce included.
//
// Two execution modes produce bit-identical verdicts:
//   - kStreaming (default): responses are folded into a running CMAC and
//     masked-compared against the shared GoldenModel the moment they
//     arrive; nothing is retained per step, so finish() is O(1) checks and
//     a fleet of verifiers holds one golden image between them.
//   - kRetained: the seed behaviour — buffer every response and do all the
//     work in finish() (byte re-serialisation for the MAC, per-frame
//     architectural_mask regeneration for the compare). Kept as the
//     differential-testing oracle and the bench baseline.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bitstream/bitgen.hpp"
#include "bitstream/golden_model.hpp"
#include "core/failure.hpp"
#include "core/protocol.hpp"
#include "crypto/prg.hpp"
#include "fabric/partition.hpp"

namespace sacha::core {

enum class ReadbackOrder : std::uint8_t {
  kSequentialFromZero,    // 0, 1, ..., N-1
  kSequentialFromOffset,  // i, i+1, ..., (i+N-1) % N  (the PoC's choice)
  kRandomPermutation,     // any permutation (§6.1 allows this)
};

enum class VerifyMode : std::uint8_t {
  kStreaming,  // verify responses as they arrive, retain nothing
  kRetained,   // buffer the transcript, verify in finish() (seed behaviour)
};

struct VerifierOptions {
  ReadbackOrder order = ReadbackOrder::kSequentialFromOffset;
  /// NOOP-pad command streams to these sizes, matching the proof of
  /// concept's measured packet sizes (A1 and A3 of Table 3). Streams larger
  /// than the pad target are sent unpadded.
  std::uint32_t config_pad_words = 266;
  std::uint32_t readback_pad_words = 414;
  /// Frames per ICAP_config command (1 in the PoC; the §6.1 buffer-size
  /// trade-off sweeps this).
  std::uint32_t frames_per_config = 1;
  /// Frames per ICAP_readback command (1 in the PoC). Values > 1 force
  /// sequential order.
  std::uint32_t frames_per_readback = 1;
  /// Refresh session (§5.2.2): reconfigure *only* the nonce partition and
  /// read the whole memory back — "the Vrf can request a fresh checksum of
  /// the Prv's configuration without changing the intended application".
  /// Requires that a full session previously installed the application;
  /// the full-memory readback still proves the entire configuration.
  bool refresh_only = false;
  /// Probe sessions (epoch scheduler): with refresh_only set and a coverage
  /// in (0,1), begin() samples only that fraction of the memory for
  /// readback (nonce frame always included), in a fresh random order per
  /// session. The verdict then proves only the *probed* frames — a tamper
  /// outside the sample is invisible to the probe — so a probe pass must
  /// never substitute for a full attestation (the epoch scheduler treats a
  /// probe pass as "no new evidence of staleness", nothing more). 1.0 keeps
  /// the full-memory refresh readback.
  double probe_coverage = 1.0;
  VerifyMode mode = VerifyMode::kStreaming;
};

class SachaVerifier {
 public:
  SachaVerifier(fabric::Floorplan plan, bitstream::DesignSpec static_spec,
                bitstream::DesignSpec app_spec, crypto::AesKey key,
                std::uint64_t session_seed, VerifierOptions options = {});

  /// Shares a pre-built golden model instead of interning one (a fleet
  /// coordinator that already holds the model for this device type skips
  /// the cache lookup). The model must have been built for this floorplan
  /// and these specs.
  SachaVerifier(fabric::Floorplan plan,
                std::shared_ptr<const bitstream::GoldenModel> model,
                crypto::AesKey key, std::uint64_t session_seed,
                VerifierOptions options = {});

  /// Golden image of the base static partition (the one starting at frame
  /// 0) — what the BootMem is provisioned with. Additional static islands
  /// are provisioned separately and covered by golden_frame().
  const bitstream::ConfigImage& static_image() const;

  /// The frame that holds the session nonce (its own tiny reconfigurable
  /// partition at the top of the dynamic region, §5.2.2).
  std::uint32_t nonce_frame_index() const { return model_->nonce_frame(); }
  std::uint64_t nonce() const { return nonce_; }

  /// (Re)starts a session: draws a fresh nonce and a fresh readback order.
  void begin();

  /// Why the schedule frozen at begin() cannot run, or nullopt when it can:
  /// some message of it would not fit the wire's 16-bit length field
  /// (kMaxBodyBytes). A session driver rejects such a schedule before
  /// sending anything; finish() then reports this detail as kDecodeError,
  /// in process and over a socket alike.
  const std::optional<std::string>& schedule_error() const {
    return schedule_error_;
  }

  std::size_t command_count() const;
  /// Command `index` of the schedule frozen at begin(), built at its exact
  /// size; NOOP padding is a count (Command::padding), not words.
  Command command(std::size_t index) const;

  /// Feeds the response (or its absence, for fire-and-forget configuration
  /// commands) of command `index` back to the verifier. Takes the response
  /// by value: frame payloads are moved, never copied, into whatever
  /// buffering the mode requires (none in streaming mode).
  Status on_response(std::size_t index, std::optional<Response> response);

  struct Verdict {
    bool protocol_ok = false;  // every step answered, no prover errors
    bool mac_ok = false;       // H_Prv == H_Vrf
    bool config_ok = false;    // Msk(B_Prv) == Msk(B_Vrf), full coverage
    std::string detail;        // first failure, for logs
    /// Typed cause as far as the verifier can tell (kNone on success):
    /// missing data maps to kTimeoutExhausted, error responses to
    /// kDeviceError, malformed/duplicate responses to kDecodeError, then
    /// the crypto checks to kMacMismatch / kMaskedCompareMismatch. The
    /// session driver overrides this with transport causes it saw first.
    FailureKind kind = FailureKind::kNone;
    bool ok() const { return protocol_ok && mac_ok && config_ok; }
  };
  Verdict finish() const;

  /// The planned readback schedule: (first frame, frame count) per step.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& readback_steps()
      const {
    return steps_;
  }

  const fabric::Floorplan& floorplan() const { return plan_; }
  const VerifierOptions& options() const { return options_; }

  /// Switches between full sessions and §5.2.2 nonce-refresh sessions for
  /// subsequent begin() calls (typical lifecycle: one full install, then
  /// periodic cheap refreshes).
  void set_refresh_only(bool refresh) { options_.refresh_only = refresh; }
  /// Sets the probe sample fraction for subsequent refresh-only begin()
  /// calls (see VerifierOptions::probe_coverage). Clamped to (0, 1].
  void set_probe_coverage(double coverage) {
    options_.probe_coverage =
        coverage < 1.0 ? (coverage > 0.0 ? coverage : 1.0) : 1.0;
  }
  /// True when the current schedule (frozen at begin()) is a sampled probe:
  /// its verdict covers only the probed subset of frames.
  bool probe_session() const {
    return options_.refresh_only && options_.probe_coverage < 1.0;
  }
  const bitstream::DesignSpec& app_spec() const { return model_->app_spec(); }

  /// Replaces the intended application (secure code update: the next
  /// session ships and attests the new design). Re-interns the golden
  /// model for the new spec.
  void set_app_spec(bitstream::DesignSpec spec);

  /// The golden configuration of a frame (static design, application, or
  /// the current session's nonce frame). Used by the state-attestation
  /// extension to build expected-state references.
  const bitstream::Frame& golden_frame(std::uint32_t index) const;

  /// The shared golden reference. Fleet members provisioned identically
  /// return the same object (use_count exposes the sharing).
  const std::shared_ptr<const bitstream::GoldenModel>& golden_model() const {
    return model_;
  }

  /// Checks a device MAC over arbitrary data under the shared session key
  /// (constant-time). Used by protocol extensions that add readback phases.
  bool verify_mac(ByteSpan data, const crypto::Mac& mac) const;

  /// H_Vrf: the MAC recomputed over the received readback transcript, or
  /// nullopt while steps are missing. finish() compares this against the
  /// device's H_Prv; the signature extension signs/verifies it instead.
  /// In streaming mode this is the incrementally folded MAC — no transcript
  /// is retained or re-serialised.
  std::optional<crypto::Mac> expected_mac() const;

  /// Readback bytes currently buffered for verification: the full ~9.2 MB
  /// (Virtex-6) transcript in retained mode, 0 in streaming mode once the
  /// in-order absorb has drained (out-of-order arrivals buffer only the
  /// gap). The fleet benches report this per member.
  std::size_t retained_readback_bytes() const;

 private:
  std::size_t config_command_count() const;
  Command make_config_command(std::size_t slot) const;
  Command make_readback_command(std::size_t step) const;
  /// A command whose stream is NOOP-padded to `target_words` on the wire.
  static Command padded(CommandType type, std::uint32_t frame_nb,
                        std::vector<std::uint32_t> stream,
                        std::uint32_t target_words);
  std::optional<std::string> check_message_sizes() const;
  /// Records a protocol failure; the first one recorded is the verdict's.
  Status fail(FailureKind kind, std::string message);
  /// Streaming path: folds step `step`'s words into the running CMAC and
  /// masked-compares them against the golden model in place. Out-of-order
  /// arrivals are buffered (moved, not copied) until their turn so the MAC
  /// sees readback order.
  void absorb_response(std::size_t step, std::vector<std::uint32_t>&& words);
  void absorb_in_order(std::size_t step, std::span<const std::uint32_t> words);

  fabric::Floorplan plan_;
  bitstream::BitGen bitgen_;
  std::uint32_t idcode_;
  crypto::AesKey key_;
  std::uint64_t session_seed_;
  VerifierOptions options_;

  /// Immutable golden reference (regions, images, flat mask / masked-golden
  /// tables), interned so identical fleet members share one copy.
  std::shared_ptr<const bitstream::GoldenModel> model_;

  bitstream::ConfigImage nonce_image_;
  /// Current nonce frame content under its architectural mask (the nonce
  /// frame's row in the golden model is zero because its content is
  /// per-session; this is the session overlay).
  std::vector<std::uint32_t> nonce_masked_;
  std::uint64_t nonce_ = 0;
  std::uint64_t session_counter_ = 0;

  std::vector<std::pair<std::uint32_t, std::uint32_t>> steps_;
  /// Frames the frozen schedule reads back (all of them outside probe
  /// sessions). finish()'s coverage check requires exactly these — a probe
  /// verdict is scoped to its sample by construction.
  std::vector<char> scheduled_;
  /// config_command_count() and words-per-frame, frozen at begin():
  /// on_response runs once per response (28k+ times on a Virtex-6 session),
  /// so the region walk and geometry chasing move out of the hot path.
  std::size_t config_commands_ = 0;
  std::uint32_t words_per_frame_ = 0;

  // -- Streaming state (kStreaming) ----------------------------------------
  crypto::Cmac stream_cmac_;
  std::optional<crypto::Mac> streamed_mac_;  // set once all absorbed
  std::size_t next_stream_step_ = 0;
  /// Out-of-order arrivals parked (moved) until the in-order absorb reaches
  /// them. Empty for the session driver, which delivers in step order.
  std::map<std::size_t, std::vector<std::uint32_t>> pending_;
  std::vector<char> step_done_;
  std::vector<char> covered_;
  /// First masked mismatch in step order (the compare stops there, matching
  /// the retained verdict's first-failure detail).
  std::optional<std::uint32_t> mismatch_frame_;

  // -- Retained state (kRetained, the seed behaviour) ----------------------
  // Per-step received readback words (repeated frames may legitimately
  // return different register bits, so data is kept per step, not per frame).
  std::vector<std::optional<std::vector<std::uint32_t>>> received_;

  std::optional<crypto::Mac> received_mac_;
  /// The first protocol failure (detail and typed kind) of the session.
  std::optional<std::string> protocol_error_;
  FailureKind protocol_failure_ = FailureKind::kNone;
  std::optional<std::string> schedule_error_;
};

}  // namespace sacha::core
