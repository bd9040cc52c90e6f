// SACHa verifier.
//
// Owns everything the device does not: the golden configuration (static
// design + intended application + session nonce), the register-bit mask
// Msk, the shared MAC key, and the protocol schedule (which frames to
// configure, and the order — any permutation, §6.1 — in which to read the
// configuration memory back). It checks two things (Fig. 9):
//   1. MAC_K(received frames, in readback order) equals the device's MAC —
//      the data came from the keyed device and was not modified in flight;
//   2. Msk(received frames) equals Msk(golden frames) for every step, with
//      every configuration frame covered — the device is configured exactly
//      as intended, nonce included.
//
// One pass, in schedule order: each readback response is folded into a
// running CMAC and masked-compared against the shared GoldenModel the
// moment it arrives, and its words stay with the caller. No readback is
// buffered, so finish() is O(1) checks and a fleet of verifiers holds one
// golden image between them. The seed verifier, which buffered the
// transcript and did all the work in finish(), lives on as the test-only
// oracle in tests/reference_verifier.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bitstream/bitgen.hpp"
#include "bitstream/golden_model.hpp"
#include "core/failure.hpp"
#include "core/mac_engine.hpp"
#include "core/protocol.hpp"
#include "crypto/prg.hpp"
#include "fabric/partition.hpp"

namespace sacha::core {

enum class ReadbackOrder : std::uint8_t {
  kSequentialFromZero,    // 0, 1, ..., N-1
  kSequentialFromOffset,  // i, i+1, ..., (i+N-1) % N  (the PoC's choice)
  kRandomPermutation,     // any permutation (§6.1 allows this)
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

  /// Golden rows of the base static partition (the one starting at frame
  /// 0), back to back — what the BootMem is provisioned with. Additional
  /// static islands are provisioned separately and covered by
  /// golden_words(). Views the golden model: valid until set_app_spec().
  std::span<const std::uint32_t> static_image() const {
    return model_->static_words();
  }

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
  /// The same, built into `out` in its stream's storage: a driver that
  /// keeps one Command for a session builds every command without
  /// allocating.
  void command_into(std::size_t index, Command& out) const;

  /// Feeds the response (or its absence, for fire-and-forget configuration
  /// commands) of command `index` back to the verifier. Readback responses
  /// absorb in schedule order:
  ///   - the chain's next step is folded into the MAC and compared;
  ///   - a step the chain has passed is a duplicate (kDecodeError);
  ///   - a step ahead of the chain is never kept: behind a failed step it
  ///     is dropped unread, since that failure is already the verdict;
  ///     otherwise it arrived out of order (kDecodeError).
  Status on_response(std::size_t index, std::optional<Response> response);
  /// The same for a response the caller keeps: frame words absorb in place
  /// and stay in `response`, so the caller can reuse their storage. A step
  /// that absorbs runs a full `fold` (the device's) in the same pass.
  Status on_response_in_place(std::size_t index,
                              std::optional<Response>& response,
                              MacFold* fold = nullptr);

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
  /// extension to build expected-state references. Valid until the next
  /// begin() or set_app_spec().
  std::span<const std::uint32_t> golden_words(std::uint32_t index) const;
  /// The same words as a Frame.
  bitstream::Frame golden_frame(std::uint32_t index) const {
    const std::span<const std::uint32_t> words = golden_words(index);
    return bitstream::Frame({words.begin(), words.end()});
  }

  /// The shared golden reference. Fleet members provisioned identically
  /// return the same object (use_count exposes the sharing).
  const std::shared_ptr<const bitstream::GoldenModel>& golden_model() const {
    return model_;
  }

  /// Checks a device MAC over arbitrary data under the shared session key
  /// (constant-time). Used by protocol extensions that add readback phases.
  bool verify_mac(ByteSpan data, const crypto::Mac& mac) const;

  /// H_Vrf: the MAC folded over the readback transcript, or nullopt until
  /// every step has been absorbed. finish() compares this against the
  /// device's H_Prv; the signature extension signs/verifies it instead.
  std::optional<crypto::Mac> expected_mac() const { return streamed_mac_; }

 private:
  std::size_t config_command_count() const;
  void make_config_command(std::size_t slot, Command& out) const;
  void make_readback_command(std::size_t step, Command& out) const;
  /// Sets `out`'s type and frame number, and pads its stream with NOOPs to
  /// `target_words` on the wire.
  static void set_padded(Command& out, CommandType type,
                         std::uint32_t frame_nb, std::uint32_t target_words);
  /// A command stream whose words are fixed but for the FAR word and one
  /// more slot: the first payload word of a single-frame configuration, or
  /// the FDRO count word of a readback (held with a zero count).
  struct StreamTemplate {
    std::vector<std::uint32_t> words;
    std::uint32_t far_at = 0;
    std::uint32_t slot_at = 0;
  };
  /// Copies `t` into `out`'s stream with the FAR word of `frame` and
  /// `payload` (if any) at the template's slot.
  void stamp(const StreamTemplate& t, std::uint32_t frame,
             std::span<const std::uint32_t> payload, Command& out) const;
  std::optional<std::string> check_message_sizes() const;
  /// Records a protocol failure; the first one recorded is the verdict's.
  Status fail(FailureKind kind, std::string message);
  /// Folds the chain's next step into the running CMAC, with a full `fold`,
  /// and masked-compares its frames against the golden model, in place.
  void absorb(std::span<const std::uint32_t> words, MacFold* fold);

  fabric::Floorplan plan_;
  bitstream::BitGen bitgen_;
  std::uint32_t idcode_;
  crypto::AesKey key_;
  std::uint64_t session_seed_;
  VerifierOptions options_;

  /// Immutable golden reference (regions, golden and mask tables),
  /// interned so identical fleet members share one copy.
  std::shared_ptr<const bitstream::GoldenModel> model_;

  /// Built once per verifier (they depend only on the IDCODE and the
  /// frame size): single-frame ICAP_config, and ICAP_readback with a
  /// type-1 or a type-2 FDRO count.
  StreamTemplate config_template_;
  StreamTemplate readback_short_;
  StreamTemplate readback_long_;

  /// The session's nonce frame (the model's row for it is zero).
  bitstream::ConfigImage nonce_image_;
  std::uint64_t nonce_ = 0;
  std::uint64_t session_counter_ = 0;

  std::vector<std::pair<std::uint32_t, std::uint32_t>> steps_;
  /// Frames the frozen schedule reads back (all of them outside probe
  /// sessions). finish()'s coverage check requires exactly these — a probe
  /// verdict is scoped to its sample by construction.
  std::vector<char> scheduled_;
  /// config_command_count(), frozen at begin(), and words-per-frame, set at
  /// construction: on_response runs once per response (28k+ times on a
  /// Virtex-6 session), so the region walk and geometry chasing move out of
  /// the hot path.
  std::size_t config_commands_ = 0;
  std::uint32_t words_per_frame_ = 0;

  // -- The readback chain ---------------------------------------------------
  crypto::Cmac stream_cmac_;
  std::optional<crypto::Mac> streamed_mac_;  // set once all absorbed
  /// Steps [0, next_stream_step_) are absorbed; the next is the chain's.
  std::size_t next_stream_step_ = 0;
  std::vector<char> covered_;
  /// First masked mismatch in step order (the compare stops there: the
  /// verdict names the first failing frame).
  std::optional<std::uint32_t> mismatch_frame_;

  std::optional<crypto::Mac> received_mac_;
  /// The first protocol failure (detail and typed kind) of the session.
  std::optional<std::string> protocol_error_;
  FailureKind protocol_failure_ = FailureKind::kNone;
  std::optional<std::string> schedule_error_;
};

}  // namespace sacha::core
