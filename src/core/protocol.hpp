// SACHa wire protocol.
//
// The attestation runs as a repetition of three commands (paper §6.1):
//   1. ICAP_config(frame)      — update configuration memory,
//   2. ICAP_readback(frame_nb) — read a frame back, step the MAC,
//   3. MAC_checksum            — finalize the MAC and return it.
// Commands carry the actual ICAP program words; responses carry frame data
// or the final MAC. Serialisation is defensive on parse — the prover faces
// the open network.
//
// Wire layout (all big-endian):
//   command:  [type u8][flags u8][length u16][frame_nb u32 ?][stream words]
//   response: [type u8][status u8][payload bytes]
// `length` counts the bytes after the 4-byte header, so a message body is
// at most kMaxBodyBytes long. frame_nb is present only for ICAP_readback.
// Streams may carry trailing NOOP padding: the proof-of-concept's per-frame
// packets carry ISE-style padding, which the RX FSM strips before the words
// reach the ICAP. In memory the padding is a word count (Command::padding);
// only encode() spells it out as NOOP words.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/cmac.hpp"

namespace sacha::core {

enum class CommandType : std::uint8_t {
  kIcapConfig = 1,
  kIcapReadback = 2,
  kMacChecksum = 3,
};

/// Largest message body the 16-bit length field can describe.
inline constexpr std::size_t kMaxBodyBytes = 0xffff;

struct Command {
  CommandType type = CommandType::kIcapConfig;
  std::uint32_t frame_nb = 0;         // readback only: first frame to read
  std::vector<std::uint32_t> stream;  // ICAP program
  /// NOOP words that follow `stream` on the wire. decode() leaves every
  /// received word in `stream` and this at 0.
  std::uint32_t padding = 0;

  /// Wire form. A command whose body would exceed kMaxBodyBytes encodes to
  /// an empty buffer, which every decoder rejects: a wrapped length never
  /// reaches the wire.
  Bytes encode() const;
  static Result<Command> decode(ByteSpan wire);

  /// Bytes of the encoded command (what the network carries).
  std::size_t wire_payload_bytes() const;
  /// The body fits the 16-bit length field.
  bool encodable() const { return wire_payload_bytes() - 4 <= kMaxBodyBytes; }

  bool operator==(const Command&) const = default;
};

enum class ResponseType : std::uint8_t {
  kAck = 1,        // config accepted (only sent in reliable mode)
  kFrameData = 2,  // readback result
  kMacValue = 3,   // final checksum
  kError = 4,
};

/// Error codes carried in the response status byte.
enum class ProverStatus : std::uint8_t {
  kOk = 0,
  kBadCommand = 1,
  kIcapError = 2,
  kNoMacPending = 3,
};

struct Response {
  ResponseType type = ResponseType::kAck;
  ProverStatus status = ProverStatus::kOk;
  std::vector<std::uint32_t> frame_words;  // kFrameData
  crypto::Mac mac{};                       // kMacValue

  /// The acknowledgement a reliable transport returns for a
  /// fire-and-forget command.
  static Response ack() { return Response{}; }
  /// Frame data or a MAC value: what Table 3 books as a sendback (A8,
  /// A10). Acks and errors are not.
  bool is_sendback() const {
    return type == ResponseType::kFrameData || type == ResponseType::kMacValue;
  }

  /// Wire form; empty when the body would exceed kMaxBodyBytes.
  Bytes encode() const;
  static Result<Response> decode(ByteSpan wire);

  std::size_t wire_payload_bytes() const;
  bool encodable() const { return wire_payload_bytes() - 4 <= kMaxBodyBytes; }

  bool operator==(const Response&) const = default;
};

}  // namespace sacha::core
