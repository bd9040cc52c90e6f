#include "core/protocol.hpp"

#include <bit>
#include <cstring>

#include "bitstream/packet.hpp"

namespace sacha::core {

namespace {

// Word-at-a-time big-endian packing: the codec moves up to ~85 MB per
// Virtex-6 session when it runs, so it stores whole words, not bytes.
std::uint32_t to_big_endian(std::uint32_t w) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap32(w);
  } else {
    return w;
  }
}

void store_be32(std::uint8_t* p, std::uint32_t w) {
  const std::uint32_t be = to_big_endian(w);
  std::memcpy(p, &be, sizeof(be));
}

std::uint32_t load_be32(const std::uint8_t* p) {
  std::uint32_t be;
  std::memcpy(&be, p, sizeof(be));
  return to_big_endian(be);
}

/// Header shared by commands and responses: type, flags/status, length.
std::uint8_t* put_header(Bytes& out, std::uint8_t type, std::uint8_t second) {
  const std::size_t body = out.size() - 4;
  out[0] = type;
  out[1] = second;
  out[2] = static_cast<std::uint8_t>(body >> 8);
  out[3] = static_cast<std::uint8_t>(body);
  return out.data() + 4;
}

void load_words(const std::uint8_t* p, std::vector<std::uint32_t>& words,
                std::size_t count) {
  words.resize(count);
  for (std::size_t i = 0; i < count; ++i) words[i] = load_be32(p + i * 4);
}

}  // namespace

Bytes Command::encode() const {
  if (!encodable()) return {};
  Bytes out(wire_payload_bytes());
  std::uint8_t* p = put_header(out, static_cast<std::uint8_t>(type), 0);
  if (type == CommandType::kIcapReadback) {
    store_be32(p, frame_nb);
    p += 4;
  }
  for (std::uint32_t w : stream) {
    store_be32(p, w);
    p += 4;
  }
  for (std::uint32_t i = 0; i < padding; ++i) {
    store_be32(p, bitstream::kNoopWord);
    p += 4;
  }
  return out;
}

Result<Command> Command::decode(ByteSpan wire) {
  using R = Result<Command>;
  if (wire.size() < 4) return R::error("command shorter than header");
  Command cmd;
  const std::uint8_t type = wire[0];
  if (type < 1 || type > 3) {
    return R::error("unknown command type " + std::to_string(type));
  }
  cmd.type = static_cast<CommandType>(type);
  const std::uint16_t length = get_u16be(wire, 2);
  if (4 + static_cast<std::size_t>(length) > wire.size()) {
    return R::error("command length exceeds packet");
  }
  ByteSpan body = wire.subspan(4, length);
  if (cmd.type == CommandType::kIcapReadback) {
    if (body.size() < 4) return R::error("readback command missing frame_nb");
    cmd.frame_nb = load_be32(body.data());
    body = body.subspan(4);
  }
  if (body.size() % 4 != 0) return R::error("command stream not word aligned");
  load_words(body.data(), cmd.stream, body.size() / 4);
  return cmd;
}

std::size_t Command::wire_payload_bytes() const {
  return 4 + (type == CommandType::kIcapReadback ? 4 : 0) +
         (stream.size() + padding) * 4;
}

Bytes Response::encode() const {
  if (!encodable()) return {};
  Bytes out(wire_payload_bytes());
  std::uint8_t* p = put_header(out, static_cast<std::uint8_t>(type),
                               static_cast<std::uint8_t>(status));
  if (type == ResponseType::kFrameData) {
    for (std::uint32_t w : frame_words) {
      store_be32(p, w);
      p += 4;
    }
  } else if (type == ResponseType::kMacValue) {
    std::memcpy(p, mac.data(), mac.size());
  }
  return out;
}

Result<Response> Response::decode(ByteSpan wire) {
  using R = Result<Response>;
  if (wire.size() < 4) return R::error("response shorter than header");
  Response resp;
  const std::uint8_t type = wire[0];
  if (type < 1 || type > 4) {
    return R::error("unknown response type " + std::to_string(type));
  }
  resp.type = static_cast<ResponseType>(type);
  resp.status = static_cast<ProverStatus>(wire[1]);
  const std::uint16_t length = get_u16be(wire, 2);
  if (4 + static_cast<std::size_t>(length) > wire.size()) {
    return R::error("response length exceeds packet");
  }
  const ByteSpan body = wire.subspan(4, length);
  if (resp.type == ResponseType::kFrameData) {
    if (body.size() % 4 != 0) return R::error("frame data not word aligned");
    load_words(body.data(), resp.frame_words, body.size() / 4);
  } else if (resp.type == ResponseType::kMacValue) {
    if (body.size() != crypto::kAesBlockSize) {
      return R::error("MAC response wrong size");
    }
    std::copy(body.begin(), body.end(), resp.mac.begin());
  }
  return resp;
}

std::size_t Response::wire_payload_bytes() const {
  std::size_t body = 0;
  if (type == ResponseType::kFrameData) body = frame_words.size() * 4;
  if (type == ResponseType::kMacValue) body = crypto::kAesBlockSize;
  return 4 + body;
}

}  // namespace sacha::core
