#include "net/wire.hpp"

#include <bit>
#include <cstring>

#include "obs/metrics.hpp"

namespace sacha::net {

namespace {

/// Trace-context tail that ends every HELLO and REPORT:
/// [trace.hi u64][trace.lo u64][flags u8], flags bit 0 = sampled.
constexpr std::size_t kTraceTailBytes = 8 + 8 + 1;

void put_trace_tail(Bytes& out, const obs::TraceId& trace, bool sampled) {
  put_u64be(out, trace.hi);
  put_u64be(out, trace.lo);
  out.push_back(sampled ? 1 : 0);
}

/// Reads the tail that must fill exactly the rest of `in` after `offset`.
bool get_trace_tail(ByteSpan in, std::size_t offset, obs::TraceId& trace,
                    bool& sampled) {
  if (in.size() - offset != kTraceTailBytes) return false;
  trace.hi = get_u64be(in, offset);
  trace.lo = get_u64be(in, offset + 8);
  sampled = (in[offset + 16] & 1) != 0;
  return true;
}

/// One central place for the decode-error counter so every malformed-input
/// path is counted, whether or not it also poisons a stream.
void count_decode_error() {
  static obs::Counter& errors =
      obs::MetricsRegistry::global().counter("sacha.net.decode_errors");
  errors.add(1);
}

/// Bounded defensive string read: [u16 length][bytes]. Advances `offset`.
Result<std::string> get_string(ByteSpan in, std::size_t& offset,
                               std::size_t max_len, const char* what) {
  if (offset + 2 > in.size()) {
    return Result<std::string>::error(std::string("truncated ") + what +
                                      " length");
  }
  const std::size_t len = get_u16be(in, offset);
  offset += 2;
  if (len > max_len) {
    return Result<std::string>::error(std::string(what) + " too long");
  }
  if (offset + len > in.size()) {
    return Result<std::string>::error(std::string("truncated ") + what);
  }
  std::string out(reinterpret_cast<const char*>(in.data() + offset), len);
  offset += len;
  return out;
}

void put_string(Bytes& out, const std::string& s) {
  put_u16be(out, static_cast<std::uint16_t>(s.size()));
  append(out, ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()),
                       s.size()));
}

}  // namespace

Bytes encode_frame(const Frame& frame) {
  Bytes out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  put_u16be(out, kWireMagic);
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(frame.kind));
  put_u32be(out, static_cast<std::uint32_t>(frame.payload.size()));
  append(out, frame.payload);
  return out;
}

void FrameDecoder::feed(ByteSpan data) {
  // Compact lazily: once the consumed prefix outgrows the live tail, slide
  // the tail down so the buffer does not grow without bound on long
  // sessions (thousands of frames through one connection).
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  append(buffer_, data);
}

Result<std::optional<Frame>> FrameDecoder::next() {
  using Out = Result<std::optional<Frame>>;
  if (poisoned_) {
    return Out::error("frame stream poisoned by earlier decode error");
  }
  // Poisoning is terminal for the stream, so count the transition exactly
  // once per connection; individual malformed inputs count separately.
  const auto poison = [this](std::string message) {
    poisoned_ = true;
    count_decode_error();
    static obs::Counter& poisoned_conns =
        obs::MetricsRegistry::global().counter("sacha.net.poisoned_conns");
    poisoned_conns.add(1);
    return Out::error(std::move(message));
  };
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return Out(std::nullopt);
  const ByteSpan in(buffer_.data() + consumed_, available);
  const std::uint16_t magic = get_u16be(in, 0);
  if (magic != kWireMagic) {
    return poison("bad frame magic");
  }
  const std::uint8_t version = in[2];
  if (version != kWireVersion) {
    return poison("unsupported wire version " + std::to_string(version));
  }
  const std::uint8_t kind = in[3];
  if (!frame_kind_valid(kind)) {
    return poison("unknown frame kind " + std::to_string(kind));
  }
  const std::uint32_t length = get_u32be(in, 4);
  if (length > kMaxFramePayload) {
    return poison("frame payload length " + std::to_string(length) +
                  " exceeds bound");
  }
  if (available < kFrameHeaderBytes + length) return Out(std::nullopt);
  Frame frame;
  frame.kind = static_cast<FrameKind>(kind);
  frame.payload.assign(in.begin() + kFrameHeaderBytes,
                       in.begin() + kFrameHeaderBytes + length);
  consumed_ += kFrameHeaderBytes + length;
  return Out(std::optional<Frame>(std::move(frame)));
}

// -- HELLO ------------------------------------------------------------------

Bytes HelloMsg::encode() const {
  Bytes out;
  put_u16be(out, kWireVersion);
  out.push_back(static_cast<std::uint8_t>(scale));
  out.push_back(0);  // reserved
  put_u32be(out, member_index);
  put_u64be(out, base_seed);
  put_u64be(out, session_seed);
  put_u64be(out, std::bit_cast<std::uint64_t>(flip_probability));
  put_string(out, device_id);
  put_trace_tail(out, trace, sampled);
  return out;
}

Result<HelloMsg> HelloMsg::decode(ByteSpan payload) {
  constexpr std::size_t kFixed = 2 + 1 + 1 + 4 + 8 + 8 + 8;
  if (payload.size() < kFixed + 2) {
    return Result<HelloMsg>::error("truncated HELLO");
  }
  if (get_u16be(payload, 0) != kWireVersion) {
    return Result<HelloMsg>::error("unsupported HELLO version");
  }
  HelloMsg msg;
  const std::uint8_t scale = payload[2];
  if (scale > static_cast<std::uint8_t>(DeviceScale::kVirtex6)) {
    return Result<HelloMsg>::error("unknown device scale " +
                                   std::to_string(scale));
  }
  msg.scale = static_cast<DeviceScale>(scale);
  msg.member_index = get_u32be(payload, 4);
  msg.base_seed = get_u64be(payload, 8);
  msg.session_seed = get_u64be(payload, 16);
  msg.flip_probability = std::bit_cast<double>(get_u64be(payload, 24));
  if (!(msg.flip_probability >= 0.0 && msg.flip_probability <= 1.0)) {
    return Result<HelloMsg>::error("flip probability out of range");
  }
  std::size_t offset = kFixed;
  auto id = get_string(payload, offset, 256, "device id");
  if (!id.ok()) return Result<HelloMsg>::error(id.message());
  msg.device_id = std::move(id).take();
  if (!get_trace_tail(payload, offset, msg.trace, msg.sampled)) {
    return Result<HelloMsg>::error("HELLO must end with its trace context");
  }
  return msg;
}

Bytes HelloAckMsg::encode() const {
  Bytes out;
  put_u16be(out, kWireVersion);
  put_u32be(out, command_count);
  // Shard redirect tail: only on the wire when present, so a plain accept
  // is exactly 6 bytes.
  if (is_redirect()) {
    put_string(out, redirect_host);
    put_u16be(out, redirect_port);
  }
  return out;
}

Result<HelloAckMsg> HelloAckMsg::decode(ByteSpan payload) {
  if (payload.size() < 6) {
    return Result<HelloAckMsg>::error("bad HELLO_ACK size");
  }
  if (get_u16be(payload, 0) != kWireVersion) {
    return Result<HelloAckMsg>::error("unsupported HELLO_ACK version");
  }
  HelloAckMsg msg;
  msg.command_count = get_u32be(payload, 2);
  // Presence of the redirect tail is keyed on the remaining byte count —
  // 0 from a plain accept, a length-prefixed host + u16 port from a
  // coordinator, anything else malformed.
  if (payload.size() == 6) return msg;
  std::size_t offset = 6;
  auto host = get_string(payload, offset, 256, "redirect host");
  if (!host.ok()) return Result<HelloAckMsg>::error(host.message());
  msg.redirect_host = std::move(host).take();
  if (msg.redirect_host.empty()) {
    return Result<HelloAckMsg>::error("empty redirect host");
  }
  if (payload.size() - offset != 2) {
    return Result<HelloAckMsg>::error("trailing bytes after HELLO_ACK");
  }
  msg.redirect_port = get_u16be(payload, offset);
  return msg;
}

// -- REPORT -----------------------------------------------------------------

Bytes ReportMsg::encode() const {
  Bytes out;
  out.push_back(protocol_ok ? 1 : 0);
  out.push_back(mac_ok ? 1 : 0);
  out.push_back(config_ok ? 1 : 0);
  out.push_back(static_cast<std::uint8_t>(failure));
  out.push_back(mac_present ? 1 : 0);
  append(out, ByteSpan(mac.data(), mac.size()));
  put_u64be(out, commands);
  put_u64be(out, wall_ns);
  put_string(out, detail);
  put_trace_tail(out, trace, sampled);
  return out;
}

Result<ReportMsg> ReportMsg::decode(ByteSpan payload) {
  constexpr std::size_t kFixed = 5 + sizeof(crypto::Mac) + 8 + 8;
  if (payload.size() < kFixed + 2) {
    return Result<ReportMsg>::error("truncated REPORT");
  }
  ReportMsg msg;
  msg.protocol_ok = payload[0] != 0;
  msg.mac_ok = payload[1] != 0;
  msg.config_ok = payload[2] != 0;
  if (payload[3] > static_cast<std::uint8_t>(core::FailureKind::kPeerDisconnect)) {
    return Result<ReportMsg>::error("unknown failure kind " +
                                    std::to_string(payload[3]));
  }
  msg.failure = static_cast<core::FailureKind>(payload[3]);
  msg.mac_present = payload[4] != 0;
  std::memcpy(msg.mac.data(), payload.data() + 5, sizeof(crypto::Mac));
  msg.commands = get_u64be(payload, 5 + sizeof(crypto::Mac));
  msg.wall_ns = get_u64be(payload, 5 + sizeof(crypto::Mac) + 8);
  std::size_t offset = kFixed;
  auto detail = get_string(payload, offset, 1024, "report detail");
  if (!detail.ok()) return Result<ReportMsg>::error(detail.message());
  msg.detail = std::move(detail).take();
  if (!get_trace_tail(payload, offset, msg.trace, msg.sampled)) {
    return Result<ReportMsg>::error("REPORT must end with its trace context");
  }
  return msg;
}

// -- UPDATE -----------------------------------------------------------------

Bytes UpdateOfferMsg::encode() const {
  Bytes out;
  put_u64be(out, version);
  put_u32be(out, static_cast<std::uint32_t>(manifest.size()));
  append(out, manifest);
  return out;
}

Result<UpdateOfferMsg> UpdateOfferMsg::decode(ByteSpan payload) {
  if (payload.size() < 12) {
    return Result<UpdateOfferMsg>::error("truncated UPDATE_OFFER");
  }
  UpdateOfferMsg msg;
  msg.version = get_u64be(payload, 0);
  const std::size_t len = get_u32be(payload, 8);
  if (len > kMaxFramePayload || 12 + len != payload.size()) {
    return Result<UpdateOfferMsg>::error("bad UPDATE_OFFER manifest length");
  }
  msg.manifest.assign(payload.begin() + 12, payload.begin() + 12 + len);
  return msg;
}

Bytes UpdateStatusMsg::encode() const {
  Bytes out;
  put_u64be(out, version);
  out.push_back(accepted ? 1 : 0);
  put_string(out, state);
  put_string(out, detail);
  return out;
}

Result<UpdateStatusMsg> UpdateStatusMsg::decode(ByteSpan payload) {
  if (payload.size() < 8 + 1 + 2 + 2) {
    return Result<UpdateStatusMsg>::error("truncated UPDATE_STATUS");
  }
  UpdateStatusMsg msg;
  msg.version = get_u64be(payload, 0);
  msg.accepted = (payload[8] & 1) != 0;
  std::size_t offset = 9;
  auto state = get_string(payload, offset, 64, "update status state");
  if (!state.ok()) return Result<UpdateStatusMsg>::error(state.message());
  msg.state = std::move(state).take();
  auto detail = get_string(payload, offset, 1024, "update status detail");
  if (!detail.ok()) return Result<UpdateStatusMsg>::error(detail.message());
  msg.detail = std::move(detail).take();
  if (offset != payload.size()) {
    return Result<UpdateStatusMsg>::error("trailing bytes after UPDATE_STATUS");
  }
  return msg;
}

// -- ERROR ------------------------------------------------------------------

Bytes ErrorMsg::encode() const {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(failure));
  put_string(out, detail);
  return out;
}

Result<ErrorMsg> ErrorMsg::decode(ByteSpan payload) {
  if (payload.size() < 3) {
    return Result<ErrorMsg>::error("truncated ERROR");
  }
  if (payload[0] > static_cast<std::uint8_t>(core::FailureKind::kPeerDisconnect)) {
    return Result<ErrorMsg>::error("unknown failure kind " +
                                   std::to_string(payload[0]));
  }
  ErrorMsg msg;
  msg.failure = static_cast<core::FailureKind>(payload[0]);
  std::size_t offset = 1;
  auto detail = get_string(payload, offset, 1024, "error detail");
  if (!detail.ok()) return Result<ErrorMsg>::error(detail.message());
  msg.detail = std::move(detail).take();
  if (offset != payload.size()) {
    return Result<ErrorMsg>::error("trailing bytes after ERROR");
  }
  return msg;
}

}  // namespace sacha::net
