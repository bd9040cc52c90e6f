#include "bitstream/packet.hpp"

#include <array>
#include <cassert>

namespace sacha::bitstream {

namespace {

// Type-1 packet header layout (Virtex-6 style):
//   [31:29] = 001, [28:27] = opcode (00 nop, 01 read, 10 write),
//   [26:13] = register address, [12:11] = reserved, [10:0] = word count.
// Type-2 packets ([31:29] = 010) extend the word count of the preceding
// type-1 packet to 27 bits for long FDRI/FDRO bursts.
constexpr std::uint32_t kType1 = 0x1u << 29;
constexpr std::uint32_t kType2 = 0x2u << 29;
constexpr std::uint32_t kOpcodeNop = 0x0u << 27;
constexpr std::uint32_t kOpcodeRead = 0x1u << 27;
constexpr std::uint32_t kOpcodeWrite = 0x2u << 27;
constexpr std::uint32_t kType2MaxCount = 0x07ffffff;

std::uint32_t header_type(std::uint32_t word) { return word >> 29; }
std::uint32_t header_opcode(std::uint32_t word) { return (word >> 27) & 0x3; }
std::uint32_t header_reg(std::uint32_t word) { return (word >> 13) & 0x3fff; }
std::uint32_t header_count1(std::uint32_t word) { return word & kType1MaxCount; }
std::uint32_t header_count2(std::uint32_t word) { return word & kType2MaxCount; }

}  // namespace

void PacketWriter::type1(std::uint32_t opcode, ConfigReg reg,
                         std::uint32_t word_count) {
  assert(word_count <= kType1MaxCount);
  words_.push_back(kType1 | opcode | (static_cast<std::uint32_t>(reg) << 13) |
                   word_count);
}

void PacketWriter::type2(std::uint32_t opcode, std::uint32_t word_count) {
  assert(word_count <= kType2MaxCount);
  words_.push_back(kType2 | opcode | word_count);
}

void PacketWriter::sync() { words_.push_back(kSyncWord); }

void PacketWriter::noop(std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) words_.push_back(kNoopWord);
}

void PacketWriter::write_far(const fabric::FrameAddress& address) {
  type1(kOpcodeWrite, ConfigReg::kFar, 1);
  words_.push_back(address.pack());
}

void PacketWriter::cmd(CmdOp op) {
  type1(kOpcodeWrite, ConfigReg::kCmd, 1);
  words_.push_back(static_cast<std::uint32_t>(op));
}

void PacketWriter::write_idcode(std::uint32_t idcode) {
  type1(kOpcodeWrite, ConfigReg::kIdcode, 1);
  words_.push_back(idcode);
}

void PacketWriter::write_frames(std::span<const std::uint32_t> words) {
  write_frames_header(static_cast<std::uint32_t>(words.size()));
  append(words);
}

void PacketWriter::write_frames_header(std::uint32_t word_count) {
  if (word_count <= kType1MaxCount) {
    type1(kOpcodeWrite, ConfigReg::kFdri, word_count);
  } else {
    // Long burst: zero-length type-1 header followed by a type-2 extension.
    type1(kOpcodeWrite, ConfigReg::kFdri, 0);
    type2(kOpcodeWrite, word_count);
  }
}

void PacketWriter::append(std::span<const std::uint32_t> words) {
  words_.insert(words_.end(), words.begin(), words.end());
}

void PacketWriter::read_request(std::uint32_t word_count) {
  if (word_count <= kType1MaxCount) {
    type1(kOpcodeRead, ConfigReg::kFdro, word_count);
  } else {
    type1(kOpcodeRead, ConfigReg::kFdro, 0);
    type2(kOpcodeRead, word_count);
  }
}

void PacketWriter::crc(std::uint32_t value) {
  type1(kOpcodeWrite, ConfigReg::kCrc, 1);
  words_.push_back(value);
}

Bytes PacketWriter::to_bytes() const {
  Bytes out;
  out.reserve(words_.size() * 4);
  for (std::uint32_t w : words_) put_u32be(out, w);
  return out;
}

Status parse_packets(std::span<const std::uint32_t> words,
                     std::vector<ConfigOp>& ops) {
  ops.clear();
  std::size_t i = 0;
  bool synced = false;
  while (i < words.size()) {
    const std::uint32_t w = words[i];
    if (!synced) {
      if (w == kSyncWord) {
        ops.push_back(OpSync{});
        synced = true;
        ++i;
        continue;
      }
      return Status::error(
          "data before sync word at offset " + std::to_string(i));
    }
    if (w == kNoopWord) {
      ops.push_back(OpNoop{});
      ++i;
      continue;
    }
    if (header_type(w) != 1) {
      return Status::error(
          "unexpected packet type at offset " + std::to_string(i));
    }
    const std::uint32_t opcode = header_opcode(w);
    const std::uint32_t reg = header_reg(w);
    std::uint32_t count = header_count1(w);
    ++i;
    // A zero-count type-1 may be extended by a type-2 packet.
    if (count == 0 && i < words.size() && header_type(words[i]) == 2) {
      if (header_opcode(words[i]) != opcode) {
        return Status::error(
            "type-2 opcode mismatch at offset " + std::to_string(i));
      }
      count = header_count2(words[i]);
      ++i;
    }
    if (opcode == kOpcodeRead >> 27) {
      if (static_cast<ConfigReg>(reg) != ConfigReg::kFdro) {
        return Status::error(
            "read from unsupported register " + std::to_string(reg));
      }
      ops.push_back(OpReadRequest{count});
      continue;
    }
    if (opcode != kOpcodeWrite >> 27) {
      return Status::error(
          "unsupported opcode at offset " + std::to_string(i - 1));
    }
    if (i + count > words.size()) {
      return Status::error(
          "truncated payload: need " + std::to_string(count) + " words at offset " +
          std::to_string(i));
    }
    switch (static_cast<ConfigReg>(reg)) {
      case ConfigReg::kFar:
        if (count != 1) {
          return Status::error("FAR write count != 1");
        }
        ops.push_back(OpWriteFar{fabric::FrameAddress::unpack(words[i])});
        break;
      case ConfigReg::kCmd: {
        if (count != 1) {
          return Status::error("CMD write count != 1");
        }
        const std::uint32_t op = words[i];
        if (op != static_cast<std::uint32_t>(CmdOp::kNull) &&
            op != static_cast<std::uint32_t>(CmdOp::kWcfg) &&
            op != static_cast<std::uint32_t>(CmdOp::kRcfg) &&
            op != static_cast<std::uint32_t>(CmdOp::kDesync)) {
          return Status::error("unknown CMD opcode " +
                                                      std::to_string(op));
        }
        ops.push_back(OpCmd{static_cast<CmdOp>(op)});
        break;
      }
      case ConfigReg::kIdcode:
        if (count != 1) {
          return Status::error("IDCODE write count != 1");
        }
        ops.push_back(OpWriteIdcode{words[i]});
        break;
      case ConfigReg::kFdri:
        ops.push_back(OpWriteFrames{words.subspan(i, count)});
        break;
      case ConfigReg::kCrc:
        if (count != 1) {
          return Status::error("CRC write count != 1");
        }
        ops.push_back(OpCrc{words[i]});
        break;
      default:
        return Status::error(
            "write to unsupported register " + std::to_string(reg));
    }
    i += count;
  }
  return Status();
}

Result<std::vector<ConfigOp>> parse_packets(
    std::span<const std::uint32_t> words) {
  std::vector<ConfigOp> ops;
  const Status parsed = parse_packets(words, ops);
  if (!parsed.ok()) {
    return Result<std::vector<ConfigOp>>::error(parsed.message());
  }
  return ops;
}

Result<std::vector<std::uint32_t>> words_from_bytes(ByteSpan data) {
  if (data.size() % 4 != 0) {
    return Result<std::vector<std::uint32_t>>::error(
        "byte stream not word aligned: " + std::to_string(data.size()));
  }
  std::vector<std::uint32_t> words(data.size() / 4);
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = get_u32be(data, i * 4);
  }
  return words;
}

namespace {

// Byte-at-a-time table for the reflected CRC-32 (poly 0xEDB88320); equal to
// the bitwise definition, eight times fewer steps.
constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int b = 0; b < 8; ++b) c = (c >> 1) ^ (0xEDB88320u & (~(c & 1u) + 1u));
    table[n] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

}  // namespace

void StreamCrc::update(std::span<const std::uint32_t> words) {
  std::uint32_t crc = crc_;
  for (const std::uint32_t w : words) {
    // Big-endian byte expansion of each word.
    crc = kCrcTable[(crc ^ (w >> 24)) & 0xff] ^ (crc >> 8);
    crc = kCrcTable[(crc ^ (w >> 16)) & 0xff] ^ (crc >> 8);
    crc = kCrcTable[(crc ^ (w >> 8)) & 0xff] ^ (crc >> 8);
    crc = kCrcTable[(crc ^ w) & 0xff] ^ (crc >> 8);
  }
  crc_ = crc;
}

std::uint32_t stream_crc(std::span<const std::uint32_t> words) {
  StreamCrc crc;
  crc.update(words);
  return crc.value();
}

}  // namespace sacha::bitstream
