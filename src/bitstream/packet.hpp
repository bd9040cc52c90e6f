// Configuration packet codec.
//
// Xilinx configuration ports (ICAP included) speak a word-oriented command
// language: a sync word, then type-1 packets that read or write
// configuration registers (FAR, FDRI, FDRO, CMD, CRC, ...). We implement a
// faithful subset sufficient for partial configuration and readback; the
// synthetic partial bitstreams the verifier ships are encoded in this
// format, and the ICAP model decodes it. Parsing is defensive: attestation
// must survive malformed input from the network.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "fabric/geometry.hpp"

namespace sacha::bitstream {

inline constexpr std::uint32_t kSyncWord = 0xAA995566;
inline constexpr std::uint32_t kNoopWord = 0x20000000;
/// Largest word count a type-1 header carries; longer FDRI/FDRO bursts add
/// a type-2 header.
inline constexpr std::uint32_t kType1MaxCount = 0x7ff;

/// Configuration registers (subset of the Virtex-6 set).
enum class ConfigReg : std::uint32_t {
  kCrc = 0,
  kFar = 1,
  kFdri = 2,  // frame data input
  kFdro = 3,  // frame data output
  kCmd = 4,
  kIdcode = 12,
};

/// CMD register opcodes.
enum class CmdOp : std::uint32_t {
  kNull = 0,
  kWcfg = 1,    // enable configuration writes
  kRcfg = 4,    // enable configuration reads
  kDesync = 13,
};

// Decoded operations, in stream order.
struct OpSync {
  bool operator==(const OpSync&) const = default;
};
struct OpNoop {
  bool operator==(const OpNoop&) const = default;
};
struct OpWriteFar {
  fabric::FrameAddress address;
  bool operator==(const OpWriteFar&) const = default;
};
struct OpCmd {
  CmdOp op = CmdOp::kNull;
  bool operator==(const OpCmd&) const = default;
};
struct OpWriteIdcode {
  std::uint32_t idcode = 0;
  bool operator==(const OpWriteIdcode&) const = default;
};
struct OpWriteFrames {
  /// View into the parsed stream (a multiple of words-per-frame).
  std::span<const std::uint32_t> words;
  bool operator==(const OpWriteFrames& other) const {
    return std::ranges::equal(words, other.words);
  }
};
struct OpReadRequest {
  std::uint32_t word_count = 0;
  bool operator==(const OpReadRequest&) const = default;
};
struct OpCrc {
  std::uint32_t value = 0;
  bool operator==(const OpCrc&) const = default;
};

using ConfigOp = std::variant<OpSync, OpNoop, OpWriteFar, OpCmd, OpWriteIdcode,
                              OpWriteFrames, OpReadRequest, OpCrc>;

/// Builds a word stream from operations.
class PacketWriter {
 public:
  PacketWriter() = default;
  /// Writes into `storage`, cleared but keeping its capacity: a caller that
  /// hands back the stream it took last time builds the next one without
  /// allocating.
  explicit PacketWriter(std::vector<std::uint32_t> storage)
      : words_(std::move(storage)) {
    words_.clear();
  }

  /// Capacity for `words` words, so a stream of known size is built with
  /// one allocation.
  void reserve(std::size_t words) { words_.reserve(words); }

  void sync();
  void noop(std::uint32_t count = 1);
  void write_far(const fabric::FrameAddress& address);
  void cmd(CmdOp op);
  void write_idcode(std::uint32_t idcode);
  void write_frames(std::span<const std::uint32_t> words);
  /// The FDRI header of a `word_count`-word burst whose payload the caller
  /// appends next (frames that are not contiguous in memory).
  void write_frames_header(std::uint32_t word_count);
  /// Appends raw words (a payload announced by a header).
  void append(std::span<const std::uint32_t> words);
  void read_request(std::uint32_t word_count);
  void crc(std::uint32_t value);

  const std::vector<std::uint32_t>& words() const { return words_; }
  /// Moves the stream out; the writer is empty afterwards.
  std::vector<std::uint32_t> take() { return std::move(words_); }
  Bytes to_bytes() const;

 private:
  void type1(std::uint32_t opcode, ConfigReg reg, std::uint32_t word_count);
  void type2(std::uint32_t opcode, std::uint32_t word_count);
  std::vector<std::uint32_t> words_;
};

/// Parses a word stream back into operations, replacing the contents of
/// `ops` (a list the caller reuses, so a steady stream of commands parses
/// without allocating). FDRI ops view `words`, which must outlive `ops`'
/// use. Returns an error for unknown registers/opcodes, truncated payloads,
/// or data before the sync word.
Status parse_packets(std::span<const std::uint32_t> words,
                     std::vector<ConfigOp>& ops);

/// Convenience form of the above with a fresh list.
Result<std::vector<ConfigOp>> parse_packets(std::span<const std::uint32_t> words);

/// Convenience: bytes -> words (big-endian); size must be a multiple of 4.
Result<std::vector<std::uint32_t>> words_from_bytes(ByteSpan data);

/// Running CRC over a word stream (the model uses a reflected CRC-32 over
/// big-endian bytes; the real device uses a hardware CRC — only internal
/// consistency matters here).
class StreamCrc {
 public:
  void update(std::span<const std::uint32_t> words);
  std::uint32_t value() const { return ~crc_; }
  void reset() { crc_ = 0xffffffff; }

 private:
  std::uint32_t crc_ = 0xffffffff;
};

/// StreamCrc over one whole stream.
std::uint32_t stream_crc(std::span<const std::uint32_t> words);

}  // namespace sacha::bitstream
