// Length-prefixed wire framing for the real-socket attestation transport.
//
// The simulated channel (channel.hpp) carries *time*; this layer carries
// *bytes*. A TCP stream between `attestd` and a remote prover is a sequence
// of frames, each one command, response, or control message:
//
//   offset  size  field
//   0       2     magic 0x5341 ("SA")
//   2       1     protocol version (kWireVersion, the only one spoken)
//   3       1     frame kind (FrameKind)
//   4       4     payload length in bytes (<= kMaxFramePayload)
//   8       n     payload
//
// The decoder is incremental and transport-agnostic: feed() takes whatever
// byte run the socket produced (a 1-byte read, a coalesced burst of ten
// frames, a frame cut mid-header) and next() yields complete frames in
// order. Malformed input — bad magic, any version but kWireVersion, an
// unknown kind, a length above the bound — is a typed, unrecoverable
// decode error: a byte stream is unframeable once desynchronised, so the
// connection must be dropped (the session maps it to
// FailureKind::kDecodeError). A *truncated* stream is not an error at this
// layer; the caller sees the missing-frame timeout or the peer's close.
//
// Payload contents reuse the existing protocol codecs (Command::encode /
// Response::encode); HELLO, HELLO_ACK, REPORT, ERROR and the update frames
// add small codecs of their own here. HELLO and REPORT always end with the
// trace-context tail; HELLO_ACK carries a shard-redirect tail only when it
// is a redirect. See PROTOCOL.md "Wire format (socket transport)".
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "core/failure.hpp"
#include "core/protocol.hpp"
#include "crypto/cmac.hpp"
#include "obs/trace.hpp"

namespace sacha::net {

inline constexpr std::uint16_t kWireMagic = 0x5341;  // "SA"
/// The one wire version: a frame with any other header version poisons
/// the stream. It reads 4 because three earlier layouts preceded it.
inline constexpr std::uint8_t kWireVersion = 4;
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Upper bound on a frame payload. The largest legitimate frame is a
/// batched-readback FrameData response (frames_per_readback * words_per
/// frame * 4 bytes); 16 MiB leaves room for any device in the fabric
/// library while rejecting hostile lengths before any allocation.
inline constexpr std::size_t kMaxFramePayload = 16u << 20;

enum class FrameKind : std::uint8_t {
  kHello = 1,     // prover -> verifier: identify device, open a session
  kHelloAck = 2,  // verifier -> prover: session accepted, schedule length
  kCommand = 3,   // verifier -> prover: one Command::encode() packet
  kResponse = 4,  // prover -> verifier: optional Response::encode() packet
  kReport = 5,    // verifier -> prover: end-of-session verdict
  kError = 6,     // either direction: typed abort, connection closes
  // OTA frames. The verifier offers a staged signed manifest only after a
  // PASSING session's REPORT; the prover answers with its gate decision.
  kUpdateOffer = 7,   // verifier -> prover: signed manifest, opaque bytes
  kUpdateStatus = 8,  // prover -> verifier: accept/reject + gate state
};

/// True when `kind` is a value the protocol defines.
constexpr bool frame_kind_valid(std::uint8_t kind) {
  return kind >= static_cast<std::uint8_t>(FrameKind::kHello) &&
         kind <= static_cast<std::uint8_t>(FrameKind::kUpdateStatus);
}

struct Frame {
  FrameKind kind = FrameKind::kError;
  Bytes payload;

  bool operator==(const Frame&) const = default;
};

/// Serialises header + payload.
Bytes encode_frame(const Frame& frame);

/// Incremental frame reassembly over an arbitrary byte-chunk sequence.
class FrameDecoder {
 public:
  /// Appends raw socket bytes (any split: single bytes, half headers,
  /// multiple coalesced frames).
  void feed(ByteSpan data);

  /// Returns the next complete frame, nullopt when more bytes are needed,
  /// or a decode error (bad magic/version/kind/length). After an error the
  /// decoder is poisoned: every further next() fails — the stream cannot be
  /// re-synchronised and the connection must be torn down.
  Result<std::optional<Frame>> next();

  /// Bytes buffered but not yet consumed by a complete frame.
  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }
  bool poisoned() const { return poisoned_; }

 private:
  Bytes buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already handed out
  bool poisoned_ = false;
};

// -- HELLO ------------------------------------------------------------------

/// Device scale registry shared by attestd and the load generator: both
/// sides must provision bit-identical devices from (scale, seed) alone.
enum class DeviceScale : std::uint8_t {
  kSmall = 0,     // 16-frame test device (sub-millisecond sessions)
  kSoftcore = 1,  // 30-frame softcore floorplan (heterogeneous fleets)
  kVirtex6 = 2,   // full XC6VLX240T proof-of-concept floorplan
};

constexpr const char* to_string(DeviceScale scale) {
  switch (scale) {
    case DeviceScale::kSmall:
      return "small";
    case DeviceScale::kSoftcore:
      return "softcore";
    case DeviceScale::kVirtex6:
      return "virtex6";
  }
  return "unknown";
}

/// Opening frame of every session: identifies the device and pins the
/// deterministic inputs both sides need for a bit-identical protocol run
/// (provisioning seed, session seed for the register-churn RNG, churn
/// probability). The verifier rejects scales its registry does not serve.
/// On the wire the body opens with a u16 copy of kWireVersion, which the
/// decoder checks.
struct HelloMsg {
  DeviceScale scale = DeviceScale::kSmall;
  std::uint32_t member_index = 0;  // registry slot: provisioning seed offset
  std::uint64_t base_seed = 0;     // fleet provisioning seed
  std::uint64_t session_seed = 0;  // per-session seed (churn RNG derivation)
  double flip_probability = 0.25;  // register churn at the phase boundary
  std::string device_id;
  /// Trace context: the client-minted 128-bit timeline key and its
  /// deterministic head-sampling decision, propagated so both processes
  /// record spans under one id. {0,0} / false when the client traces
  /// nothing.
  obs::TraceId trace{};
  bool sampled = false;

  Bytes encode() const;
  static Result<HelloMsg> decode(ByteSpan payload);
  bool operator==(const HelloMsg&) const = default;
};

/// The verifier's answer to a HELLO. Like HELLO, the body opens with a
/// u16 copy of kWireVersion.
struct HelloAckMsg {
  std::uint32_t command_count = 0;  // schedule length, for client progress
  /// Shard redirect tail: non-empty `redirect_host` tells the client this
  /// endpoint is a coordinator and its session is owned by the shard at
  /// host:port — reconnect there and resend the HELLO. Absent on the wire
  /// when the host is empty: the ACK then means "session accepted here".
  std::string redirect_host;
  std::uint16_t redirect_port = 0;

  bool is_redirect() const { return !redirect_host.empty(); }

  Bytes encode() const;
  static Result<HelloAckMsg> decode(ByteSpan payload);
  bool operator==(const HelloAckMsg&) const = default;
};

// -- REPORT -----------------------------------------------------------------

/// End-of-session verdict streamed back to the prover-side client (the load
/// generator aggregates these into fleet results). `mac` is H_Vrf — equal
/// to the device's H_Prv whenever mac_ok.
struct ReportMsg {
  bool protocol_ok = false;
  bool mac_ok = false;
  bool config_ok = false;
  core::FailureKind failure = core::FailureKind::kNone;
  bool mac_present = false;
  crypto::Mac mac{};
  std::uint64_t commands = 0;
  std::uint64_t wall_ns = 0;  // server-side session wall-clock
  std::string detail;
  /// Trace context echoed back from the HELLO. Lets the client assert both
  /// sides agreed on the timeline key.
  obs::TraceId trace{};
  bool sampled = false;

  bool attested() const { return protocol_ok && mac_ok && config_ok; }

  Bytes encode() const;
  static Result<ReportMsg> decode(ByteSpan payload);
  bool operator==(const ReportMsg&) const = default;
};

// -- UPDATE -----------------------------------------------------------------

/// A staged signed update, offered after a passing session. The manifest
/// bytes are an update::SignedManifest::encode() blob — opaque at this
/// layer (sacha_net sits below sacha_update), verified by the receiver
/// against its provisioned trusted root before any gate transition.
struct UpdateOfferMsg {
  std::uint64_t version = 0;  // manifest version, for logging/refusal
  Bytes manifest;             // update::SignedManifest::encode()

  Bytes encode() const;
  static Result<UpdateOfferMsg> decode(ByteSpan payload);
  bool operator==(const UpdateOfferMsg&) const = default;
};

/// The prover's answer to an UPDATE_OFFER: whether its manifest check and
/// update gate accepted the offer, and the gate state it landed in
/// ("Staged", "RolledBack", ...). The server counts these per fleet; a
/// refusal never affects the attestation verdict already reported.
struct UpdateStatusMsg {
  std::uint64_t version = 0;
  bool accepted = false;
  std::string state;   // update::to_string(UpdateState) at the device
  std::string detail;  // refusal reason / manifest-check detail

  Bytes encode() const;
  static Result<UpdateStatusMsg> decode(ByteSpan payload);
  bool operator==(const UpdateStatusMsg&) const = default;
};

// -- ERROR ------------------------------------------------------------------

/// Typed abort: the sender closes the connection after this frame. The
/// failure kind maps 1:1 onto the session taxonomy so a remote failure is
/// indistinguishable, for reporting purposes, from a local one.
struct ErrorMsg {
  core::FailureKind failure = core::FailureKind::kDecodeError;
  std::string detail;

  Bytes encode() const;
  static Result<ErrorMsg> decode(ByteSpan payload);
  bool operator==(const ErrorMsg&) const = default;
};

}  // namespace sacha::net
