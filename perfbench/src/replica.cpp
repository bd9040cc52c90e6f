#include "replica.hpp"

#include <cstdio>
#include <span>

#include "net/attest_client.hpp"
#include "net/wire.hpp"

namespace perfbench {

using sacha::Bytes;
using sacha::ByteSpan;
using sacha::core::Command;
using sacha::core::CommandType;
using sacha::core::FailureKind;
using sacha::core::Response;
using sacha::core::ResponseType;
namespace actions = sacha::core::actions;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSession:
      return "core.session";
    case Layer::kVerifierBegin:
      return "core.verifier.begin";
    case Layer::kVerifierCommand:
      return "core.verifier.command";
    case Layer::kEncode:
      return "core.protocol.encode";
    case Layer::kDecode:
      return "core.protocol.decode";
    case Layer::kChannel:
      return "net.channel";
    case Layer::kChurn:
      return "config.churn";
    case Layer::kProverConfig:
      return "core.prover.config";
    case Layer::kProverReadback:
      return "core.prover.readback";
    case Layer::kAbsorb:
      return "core.verifier.absorb";
    case Layer::kVerifierFinish:
      return "core.verifier.finish";
    case Layer::kLedger:
      return "sim.ledger";
    case Layer::kCount:
      break;
  }
  return "unknown";
}

void SpanRecorder::reserve(std::size_t spans, std::size_t words) {
  spans_.reserve(spans);
  captured_.reserve(words);
}

void SpanRecorder::begin_session() {
  spans_.clear();
  captured_.clear();
  allocs_.fill(0);
  origin_ns_ = clock_ns();
  root_allocs_ = thread_allocs();
  spans_.push_back(Span{0, 0, Span::kNoParent, Layer::kSession});
}

void SpanRecorder::close(Layer layer, std::uint64_t t0, std::uint64_t a0) {
  const std::uint64_t a1 = thread_allocs();
  const std::uint64_t t1 = clock_ns();
  allocs_[static_cast<std::size_t>(layer)] += a1 - a0;
  spans_.push_back(Span{t0 - origin_ns_, t1 - origin_ns_, 0, layer});
}

void SpanRecorder::end_session() {
  spans_[0].end_ns = clock_ns() - origin_ns_;
  std::uint64_t child_allocs = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i) child_allocs += allocs_[i];
  allocs_[static_cast<std::size_t>(Layer::kSession)] =
      thread_allocs() - root_allocs_ - child_allocs;
}

std::array<double, kLayerCount> SpanRecorder::self_ns() const {
  // Children are recorded after their parent, so a reverse pass has every
  // child's duration charged to its parent before the parent is visited.
  std::array<double, kLayerCount> self{};
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (std::size_t i = spans_.size(); i-- > 0;) {
    const Span& s = spans_[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    self[static_cast<std::size_t>(s.layer)] += d - child_ns[i];
    if (s.parent != Span::kNoParent) child_ns[s.parent] += d;
  }
  return self;
}

double SpanRecorder::wall_ns() const {
  return spans_.empty() ? 0.0
                        : static_cast<double>(spans_[0].end_ns - spans_[0].start_ns);
}

namespace {

/// Ledger rows for one command round, as SessionMachine books them.
struct ActionKeys {
  const char* send;
  const char* device;
  const char* reply;
};

ActionKeys keys_for(CommandType type) {
  switch (type) {
    case CommandType::kIcapConfig:
      return {actions::kA1, actions::kA2, nullptr};
    case CommandType::kIcapReadback:
      return {actions::kA3, actions::kA4, actions::kA8};
    case CommandType::kMacChecksum:
      return {actions::kA9, nullptr, actions::kA10};
  }
  return {nullptr, nullptr, nullptr};
}

// Spans one command round can record: verifier.command, encode, channel,
// the prover, the reply's encode and channel, decode and absorb, plus up to
// eight ledger rows (send, uplink latency, device, A5, A6, A7, reply,
// downlink latency).
constexpr std::size_t kMaxSpansPerCommand = 16;
// The session span, begin, churn and finish.
constexpr std::size_t kSessionSpans = 4;

double elapsed_ns(std::uint64_t t0) {
  return static_cast<double>(SpanRecorder::clock_ns() - t0);
}

}  // namespace

TracedSession run_traced_session(
    sacha::core::SachaVerifier& verifier, sacha::core::SachaProver& prover,
    const sacha::crypto::AesKey& key,
    const sacha::core::SessionOptions& options,
    const std::function<void(sacha::core::SachaProver&)>& after_config,
    SpanRecorder& rec) {
  TracedSession out;
  sacha::sim::TimeLedger& ledger = out.ledger;
  const sacha::net::WireModel& wire = options.channel.wire;
  sacha::net::Channel channel(options.channel, options.seed);
  FailureKind transport = FailureKind::kNone;
  const auto note = [&transport](FailureKind kind) {
    if (transport == FailureKind::kNone) transport = kind;
  };
  const auto book = [&](const char* key, sacha::sim::SimDuration d) {
    rec.call(Layer::kLedger, [&] { ledger.add(key, d); });
    out.total_ns += d;
  };

  // Readback words in step order, for the shadow splits after the session.
  const auto& model = *verifier.golden_model();
  const std::uint32_t words_per_frame = model.words_per_frame();
  // The schedule is fixed only at begin(), so size for the longest session
  // the model allows: one config command per frame plus the nonce frame,
  // one readback step per frame, and the MAC checksum.
  const std::size_t frames = model.total_frames();
  rec.reserve(kMaxSpansPerCommand * (2 * frames + 2) + kSessionSpans,
              frames * words_per_frame);
  std::vector<std::uint32_t>& captured = rec.captured();

  rec.begin_session();
  rec.call(Layer::kVerifierBegin, [&] { verifier.begin(); });
  const std::size_t commands = verifier.command_count();
  bool config_done = false;
  for (std::size_t i = 0; i < commands; ++i) {
    const Command command =
        rec.call(Layer::kVerifierCommand, [&] { return verifier.command(i); });
    if (!config_done && command.type != CommandType::kIcapConfig) {
      config_done = true;
      if (after_config) after_config(prover);
      rec.call(Layer::kChurn, [&] {
        sacha::core::apply_register_churn(prover, options.seed,
                                          options.register_flip_probability);
      });
    }
    const ActionKeys keys = keys_for(command.type);
    std::optional<Response> response;
    const Bytes packet = rec.call(Layer::kEncode, [&] { return command.encode(); });
    out.encoded_bytes += packet.size();
    const auto uplink =
        rec.call(Layer::kChannel, [&] { return channel.transfer(packet.size()); });
    const sacha::sim::SimDuration wire_up = wire.frame_time(packet.size());
    book(keys.send, wire_up);
    if (uplink.has_value()) {
      book(actions::kNetLatency, *uplink - wire_up);
      const Layer device = command.type == CommandType::kIcapConfig
                               ? Layer::kProverConfig
                               : Layer::kProverReadback;
      sacha::core::SachaProver::HandleResult result =
          rec.call(device, [&] { return prover.handle_packet(packet); });
      if (!result.dropped) {
        if (result.icap_time > 0 && keys.device != nullptr) {
          book(keys.device, result.icap_time);
        }
        if (result.mac_init_time > 0) book(actions::kA5, result.mac_init_time);
        if (result.mac_update_time > 0) book(actions::kA6, result.mac_update_time);
        if (result.mac_finalize_time > 0) {
          book(actions::kA7, result.mac_finalize_time);
        }
      }
      if (!result.dropped && result.response.has_value()) {
        const Bytes reply = rec.call(Layer::kEncode,
                                     [&] { return result.response->encode(); });
        out.encoded_bytes += reply.size();
        const auto downlink = rec.call(
            Layer::kChannel, [&] { return channel.transfer(reply.size()); });
        const sacha::sim::SimDuration wire_down = wire.frame_time(reply.size());
        const char* reply_key = keys.reply;
        if (result.response->type == ResponseType::kAck ||
            result.response->type == ResponseType::kError) {
          reply_key = actions::kAck;
        }
        if (reply_key != nullptr) book(reply_key, wire_down);
        if (downlink.has_value()) {
          book(actions::kNetLatency, *downlink - wire_down);
          auto decoded =
              rec.call(Layer::kDecode, [&] { return Response::decode(reply); });
          if (decoded.ok()) {
            response = std::move(decoded).take();
            if (response->type == ResponseType::kAck) response.reset();
          } else {
            note(FailureKind::kDecodeError);
          }
          if (response.has_value() && response->type == ResponseType::kError) {
            note(FailureKind::kDeviceError);
          }
        }
      }
    }
    if (response.has_value() && response->type == ResponseType::kFrameData) {
      captured.insert(captured.end(), response->frame_words.begin(),
                      response->frame_words.end());
    }
    rec.call(Layer::kAbsorb,
             [&] { (void)verifier.on_response(i, std::move(response)); });
  }
  const sacha::core::SachaVerifier::Verdict verdict =
      rec.call(Layer::kVerifierFinish, [&] { return verifier.finish(); });
  rec.end_session();

  for (const char* row : {actions::kA1, actions::kA2, actions::kA3, actions::kA4,
                          actions::kA5, actions::kA6, actions::kA7, actions::kA8,
                          actions::kA9, actions::kA10}) {
    out.theoretical_ns += ledger.total(row);
  }
  out.outcome.attested = verdict.ok();
  out.outcome.failure = transport != FailureKind::kNone ? transport : verdict.kind;
  out.outcome.mac = verifier.expected_mac();
  out.self_ns = rec.self_ns();
  out.allocs = rec.allocs();
  out.wall_ns = rec.wall_ns();

  // Shadow splits: the prover's CMAC and the verifier's masked compare, run
  // again over the words this session read back, off the session path.
  std::uint64_t t0 = SpanRecorder::clock_ns();
  sacha::crypto::Cmac cmac(key);
  cmac.update(std::span<const std::uint32_t>(captured));
  const sacha::crypto::Mac shadow_mac = cmac.finalize();
  out.cmac_ns = elapsed_ns(t0);
  out.shadow_mac_matches =
      out.outcome.mac.has_value() && shadow_mac == *out.outcome.mac;

  std::size_t offset = 0;
  t0 = SpanRecorder::clock_ns();
  for (const auto& [first, count] : verifier.readback_steps()) {
    for (std::uint32_t f = first; f < first + count; ++f) {
      if (offset + words_per_frame > captured.size()) break;
      if (f != model.nonce_frame()) {
        ++out.shadow_frames_compared;
        out.shadow_frames_matched += model.frame_matches(
            f, std::span<const std::uint32_t>(captured.data() + offset,
                                              words_per_frame));
      }
      offset += words_per_frame;
    }
  }
  out.masked_compare_ns = elapsed_ns(t0);
  return out;
}

namespace {

/// Frames one message and reassembles it on the other side, as TcpChannel
/// and FrameDecoder do across a socket.
struct WirePipe {
  ServiceSession& out;

  std::optional<Bytes> carry(sacha::net::FrameKind kind, Bytes payload) {
    std::uint64_t t0 = SpanRecorder::clock_ns();
    const Bytes framed = sacha::net::encode_frame(
        sacha::net::Frame{kind, std::move(payload)});
    out.wire_encode_ns += elapsed_ns(t0);
    t0 = SpanRecorder::clock_ns();
    sacha::net::FrameDecoder decoder;
    decoder.feed(framed);
    auto frame = decoder.next();
    out.wire_decode_ns += elapsed_ns(t0);
    if (!frame.ok() || !frame.value().has_value() ||
        frame.value()->kind != kind) {
      return std::nullopt;
    }
    return std::move(frame).take()->payload;
  }
};

}  // namespace

ServiceSession run_service_session(
    const sacha::net::HelloMsg& hello,
    std::function<void(sacha::core::SachaProver&)> after_config,
    sacha::core::AuditLog& audit) {
  using sacha::net::FrameKind;
  ServiceSession out;
  WirePipe pipe{out};
  const auto timed = [](double& acc, auto&& f) -> decltype(auto) {
    const std::uint64_t t0 = SpanRecorder::clock_ns();
    struct Add {
      double& acc;
      std::uint64_t t0;
      ~Add() { acc += elapsed_ns(t0); }
    } add{acc, t0};
    return f();
  };

  // HELLO: client encodes, server decodes and provisions the verifier.
  Bytes hello_bytes = timed(out.wire_encode_ns, [&] { return hello.encode(); });
  auto hello_payload = pipe.carry(FrameKind::kHello, std::move(hello_bytes));
  if (!hello_payload.has_value()) return out;
  auto decoded_hello = timed(out.wire_decode_ns, [&] {
    return sacha::net::HelloMsg::decode(*hello_payload);
  });
  if (!decoded_hello.ok()) return out;
  const sacha::net::HelloMsg server_hello = std::move(decoded_hello).take();
  sacha::core::SachaVerifier verifier = timed(
      out.verifier_for_ns, [&] { return sacha::net::verifier_for(server_hello); });
  std::optional<sacha::core::VerifierSession> session;
  timed(out.verifier_session_ns, [&] { session.emplace(verifier); });

  // HELLO_ACK, then the client provisions its device.
  sacha::net::HelloAckMsg ack;
  ack.command_count = static_cast<std::uint32_t>(session->command_count());
  Bytes ack_bytes = timed(out.wire_encode_ns, [&] { return ack.encode(); });
  auto ack_payload = pipe.carry(FrameKind::kHelloAck, std::move(ack_bytes));
  if (!ack_payload.has_value()) return out;
  const bool ack_ok = timed(out.wire_decode_ns, [&] {
    return sacha::net::HelloAckMsg::decode(*ack_payload).ok();
  });
  if (!ack_ok) return out;
  std::optional<sacha::net::ProverAgent> agent;
  timed(out.prover_for_ns, [&] { agent.emplace(hello, std::move(after_config)); });

  // Command rounds.
  while (!session->done()) {
    std::optional<Bytes> command =
        timed(out.verifier_session_ns, [&] { return session->next_command_wire(); });
    if (!command.has_value()) break;
    auto command_payload = pipe.carry(FrameKind::kCommand, std::move(*command));
    if (!command_payload.has_value()) break;
    Bytes reply = timed(out.agent_ns,
                        [&] { return agent->handle_command(*command_payload); });
    auto reply_payload = pipe.carry(FrameKind::kResponse, std::move(reply));
    if (!reply_payload.has_value()) break;
    // RESPONSE payload: u8 has_response, then Response::encode() if set.
    std::optional<Response> response;
    bool well_formed = !reply_payload->empty();
    if (well_formed && (*reply_payload)[0] != 0) {
      auto r = timed(out.wire_decode_ns, [&] {
        return Response::decode(
            ByteSpan(reply_payload->data() + 1, reply_payload->size() - 1));
      });
      well_formed = r.ok();
      if (well_formed) response = std::move(r).take();
    }
    if (!well_formed) {
      session->note_failure(FailureKind::kDecodeError);
      break;
    }
    timed(out.verifier_session_ns,
          [&] { session->on_response(std::move(response)); });
  }
  const sacha::core::VerifierSession::Report report =
      timed(out.verifier_session_ns, [&] { return session->finish(); });

  // REPORT back to the client, then the audit entry attestd appends.
  sacha::net::ReportMsg msg;
  msg.protocol_ok = report.verdict.protocol_ok;
  msg.mac_ok = report.verdict.mac_ok;
  msg.config_ok = report.verdict.config_ok;
  msg.failure = report.failure;
  msg.mac_present = report.expected_mac.has_value();
  if (msg.mac_present) msg.mac = *report.expected_mac;
  msg.commands = report.commands;
  msg.detail = report.verdict.detail;
  msg.trace = hello.trace;
  Bytes report_bytes = timed(out.wire_encode_ns, [&] { return msg.encode(); });
  auto report_payload = pipe.carry(FrameKind::kReport, std::move(report_bytes));
  if (!report_payload.has_value()) return out;
  auto received = timed(out.wire_decode_ns, [&] {
    return sacha::net::ReportMsg::decode(*report_payload);
  });
  if (!received.ok()) return out;

  sacha::core::AttestationReport audit_report;
  audit_report.verdict = report.verdict;
  audit_report.failure = report.failure;
  audit_report.trace_id = hello.trace;
  timed(out.audit_ns, [&] {
    return audit.append(hello.device_id, verifier.nonce(), audit_report);
  });

  out.outcome.attested = received.value().attested();
  out.outcome.failure = received.value().failure;
  if (received.value().mac_present) out.outcome.mac = received.value().mac;
  return out;
}

bool write_spans(const std::string& path, std::uint64_t session_id,
                 const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fprintf(f, "perfbench-spans v1 session=%llu spans=%zu layers=",
               static_cast<unsigned long long>(session_id), spans.size());
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ",", layer_name(static_cast<Layer>(i)));
  }
  std::fputc('\n', f);
  for (const Span& s : spans) {
    const std::uint64_t fields[4] = {s.start_ns, s.end_ns, s.parent,
                                     static_cast<std::uint64_t>(s.layer)};
    std::fwrite(fields, sizeof(fields), 1, f);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
