// Wire-codec tests: framing round-trips under arbitrary byte splits,
// truncation semantics, malformed-header rejection (typed + poisoning,
// every header version but the current one included), the pinned bytes of
// the session-opening and verdict frames, and the HELLO/REPORT/ERROR
// message codecs.
#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "core/protocol.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace sacha;
using net::Frame;
using net::FrameDecoder;
using net::FrameKind;

namespace {

/// Feeds `stream` into a fresh decoder in random chunks (sizes 1..max_chunk)
/// and returns every decoded frame.
std::vector<Frame> decode_split(const Bytes& stream, Rng& rng,
                                std::size_t max_chunk) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  std::size_t at = 0;
  while (at < stream.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.below(max_chunk), stream.size() - at);
    decoder.feed(ByteSpan(stream.data() + at, n));
    at += n;
    for (;;) {
      auto frame = decoder.next();
      EXPECT_TRUE(frame.ok()) << frame.message();
      if (!frame.ok() || !frame.value().has_value()) break;
      frames.push_back(*std::move(frame).take());
    }
  }
  return frames;
}

Bytes random_payload(Rng& rng, std::size_t max_len) {
  Bytes payload(rng.below(max_len + 1));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
  return payload;
}

TEST(WireFraming, RoundTripsEveryKindUnderRandomSplits) {
  Rng rng(2026);
  for (int round = 0; round < 50; ++round) {
    std::vector<Frame> sent;
    Bytes stream;
    const std::size_t count = 1 + rng.below(8);
    for (std::size_t i = 0; i < count; ++i) {
      Frame frame;
      frame.kind = static_cast<FrameKind>(1 + rng.below(8));
      frame.payload = random_payload(rng, 300);
      append(stream, net::encode_frame(frame));
      sent.push_back(std::move(frame));
    }
    // max_chunk 1 = strict byte-at-a-time on the first rounds.
    const std::size_t max_chunk = round < 5 ? 1 : 1 + rng.below(64);
    const std::vector<Frame> got = decode_split(stream, rng, max_chunk);
    EXPECT_EQ(got, sent);
  }
}

TEST(WireFraming, CoalescedBurstDecodesInOrder) {
  Bytes stream;
  std::vector<Frame> sent;
  for (std::uint8_t i = 0; i < 10; ++i) {
    Frame frame{FrameKind::kCommand, Bytes(i, i)};
    append(stream, net::encode_frame(frame));
    sent.push_back(std::move(frame));
  }
  FrameDecoder decoder;
  decoder.feed(stream);  // one feed, ten frames
  std::vector<Frame> got;
  for (;;) {
    auto frame = decoder.next();
    ASSERT_TRUE(frame.ok());
    if (!frame.value().has_value()) break;
    got.push_back(*std::move(frame).take());
  }
  EXPECT_EQ(got, sent);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireFraming, TruncatedFrameIsNotAnError) {
  const Bytes stream =
      net::encode_frame({FrameKind::kResponse, Bytes(100, 0xab)});
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(ByteSpan(stream.data(), cut));
    auto frame = decoder.next();
    ASSERT_TRUE(frame.ok()) << "cut at " << cut << ": " << frame.message();
    EXPECT_FALSE(frame.value().has_value());
    EXPECT_FALSE(decoder.poisoned());
    // The rest of the bytes complete the frame.
    decoder.feed(ByteSpan(stream.data() + cut, stream.size() - cut));
    auto completed = decoder.next();
    ASSERT_TRUE(completed.ok());
    ASSERT_TRUE(completed.value().has_value());
    EXPECT_EQ(completed.value()->payload.size(), 100u);
  }
}

void expect_poisons(Bytes header_start) {
  FrameDecoder decoder;
  header_start.resize(net::kFrameHeaderBytes, 0);
  decoder.feed(header_start);
  auto frame = decoder.next();
  EXPECT_FALSE(frame.ok());
  EXPECT_TRUE(decoder.poisoned());
  // Poisoned is permanent: even a well-formed frame fails now.
  decoder.feed(net::encode_frame({FrameKind::kHello, {}}));
  EXPECT_FALSE(decoder.next().ok());
}

TEST(WireFraming, MalformedHeadersPoisonTheDecoder) {
  expect_poisons({0xde, 0xad});                          // bad magic
  expect_poisons({0x53, 0x41, 99, 1});                   // unknown version
  expect_poisons({0x53, 0x41, net::kWireVersion, 0});    // kind below range
  expect_poisons({0x53, 0x41, net::kWireVersion, 9});    // first unassigned
  expect_poisons({0x53, 0x41, net::kWireVersion, 200});  // kind above range
  expect_poisons({0x53, 0x41, net::kWireVersion, 3,      // oversize length
                  0xff, 0xff, 0xff, 0xff});
}

TEST(WireFraming, CommandAndResponseSurviveFraming) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    core::Command command;
    command.type = static_cast<core::CommandType>(1 + rng.below(3));
    // frame_nb rides the wire only for readback commands.
    if (command.type == core::CommandType::kIcapReadback) {
      command.frame_nb = static_cast<std::uint32_t>(rng.below(1000));
    }
    command.stream.resize(rng.below(50));
    for (auto& w : command.stream)
      w = static_cast<std::uint32_t>(rng.next_u64());
    core::Response response;
    response.type = core::ResponseType::kFrameData;
    response.frame_words.resize(rng.below(50));
    for (auto& w : response.frame_words)
      w = static_cast<std::uint32_t>(rng.next_u64());

    Bytes stream;
    append(stream, net::encode_frame({FrameKind::kCommand, command.encode()}));
    append(stream,
           net::encode_frame({FrameKind::kResponse, response.encode()}));
    const std::vector<Frame> got = decode_split(stream, rng, 7);
    ASSERT_EQ(got.size(), 2u);
    auto command_back = core::Command::decode(got[0].payload);
    ASSERT_TRUE(command_back.ok());
    EXPECT_EQ(command_back.value(), command);
    auto response_back = core::Response::decode(got[1].payload);
    ASSERT_TRUE(response_back.ok());
    EXPECT_EQ(response_back.value(), response);
  }
}

TEST(WireMessages, HelloRoundTrip) {
  net::HelloMsg hello;
  hello.scale = net::DeviceScale::kSoftcore;
  hello.member_index = 11;
  hello.base_seed = 0x1122334455667788ULL;
  hello.session_seed = 99;
  hello.flip_probability = 0.625;
  hello.device_id = "node-11";
  auto back = net::HelloMsg::decode(hello.encode());
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value(), hello);
}

TEST(WireMessages, HelloRejectsBadFields) {
  net::HelloMsg hello;
  Bytes wire = hello.encode();
  // Trailing garbage.
  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(net::HelloMsg::decode(trailing).ok());
  // Truncation at every length.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(net::HelloMsg::decode(ByteSpan(wire.data(), cut)).ok());
  }
  // Unknown device scale.
  Bytes bad_scale = wire;
  bad_scale[2] = 77;
  EXPECT_FALSE(net::HelloMsg::decode(bad_scale).ok());
  // The body's own version field must name the current wire version.
  Bytes old_version = wire;
  old_version[1] = 3;
  EXPECT_FALSE(net::HelloMsg::decode(old_version).ok());
}

TEST(WireMessages, HelloCarriesTraceContext) {
  net::HelloMsg hello;
  hello.device_id = "traced-device";
  hello.trace = obs::make_trace_id("traced-device", 77);
  hello.sampled = true;
  ASSERT_TRUE(hello.trace.valid());
  auto back = net::HelloMsg::decode(hello.encode());
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value(), hello);
  EXPECT_EQ(back.value().trace, hello.trace);
  EXPECT_TRUE(back.value().sampled);
  // A HELLO missing its trace tail is malformed: the tail is not optional.
  Bytes truncated = hello.encode();
  truncated.resize(truncated.size() - 17);  // strip [hi u64][lo u64][flags u8]
  EXPECT_FALSE(net::HelloMsg::decode(truncated).ok());
}

TEST(WireMessages, HelloAckRoundTrip) {
  net::HelloAckMsg ack;
  ack.command_count = 123456;
  auto back = net::HelloAckMsg::decode(ack.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), ack);
}

TEST(WireMessages, HelloAckRedirectTailRoundTrip) {
  net::HelloAckMsg ack;
  ack.command_count = 9;
  ack.redirect_host = "10.1.2.3";
  ack.redirect_port = 7461;
  ASSERT_TRUE(ack.is_redirect());
  const Bytes wire = ack.encode();
  // The tail rides after the plain 6-byte ACK body.
  EXPECT_GT(wire.size(), std::size_t{6});
  auto back = net::HelloAckMsg::decode(wire);
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value(), ack);
  EXPECT_TRUE(back.value().is_redirect());
}

TEST(WireMessages, HelloAckPlainSixByteBodyStillAccepts) {
  // A plain accept is exactly [version u16][command_count u32], read as
  // "session accepted here", no redirect.
  net::HelloAckMsg plain;
  plain.command_count = 42;
  const Bytes wire = plain.encode();
  ASSERT_EQ(wire.size(), std::size_t{6});
  auto back = net::HelloAckMsg::decode(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back.value().is_redirect());
  EXPECT_EQ(back.value().command_count, 42u);
  // The version field must name the current wire version.
  Bytes old_version = wire;
  old_version[1] = 3;
  EXPECT_FALSE(net::HelloAckMsg::decode(old_version).ok());
}

TEST(WireMessages, HelloAckRejectsTruncatedOrTrailingRedirectTail) {
  net::HelloAckMsg ack;
  ack.redirect_host = "shard.example";
  ack.redirect_port = 19;
  const Bytes wire = ack.encode();
  // Any cut inside the tail is malformed, not silently a plain ACK.
  for (std::size_t cut = 7; cut < wire.size(); ++cut) {
    Bytes truncated(wire.begin(), wire.begin() + cut);
    EXPECT_FALSE(net::HelloAckMsg::decode(truncated).ok()) << cut;
  }
  // Garbage after a complete tail is rejected too.
  Bytes trailing = wire;
  trailing.push_back(0x00);
  EXPECT_FALSE(net::HelloAckMsg::decode(trailing).ok());
}

TEST(WireMessages, ReportRoundTrip) {
  net::ReportMsg report;
  report.protocol_ok = true;
  report.mac_ok = true;
  report.config_ok = false;
  report.failure = core::FailureKind::kMacMismatch;
  report.mac_present = true;
  for (std::size_t i = 0; i < report.mac.size(); ++i)
    report.mac[i] = static_cast<std::uint8_t>(i * 7);
  report.commands = 49;
  report.wall_ns = 123456789;
  report.detail = "config mismatch in frame 5";
  auto back = net::ReportMsg::decode(report.encode());
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value(), report);
  EXPECT_FALSE(back.value().attested());

  Bytes trailing = report.encode();
  trailing.push_back(1);
  EXPECT_FALSE(net::ReportMsg::decode(trailing).ok());
}

TEST(WireMessages, ReportRequiresTraceContext) {
  net::ReportMsg report;
  report.protocol_ok = true;
  report.mac_ok = true;
  report.config_ok = true;
  report.commands = 12;
  report.wall_ns = 3'000'000;
  report.detail = "ok";
  report.trace = obs::make_trace_id("echo-device", 5);
  report.sampled = true;
  auto back = net::ReportMsg::decode(report.encode());
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value(), report);

  // A REPORT without its 17-byte trace tail is malformed, and so is any
  // other trailing length.
  Bytes no_tail = report.encode();
  no_tail.resize(no_tail.size() - 17);
  EXPECT_FALSE(net::ReportMsg::decode(no_tail).ok());
  Bytes partial = report.encode();
  partial.resize(partial.size() - 1);
  EXPECT_FALSE(net::ReportMsg::decode(partial).ok());
}

TEST(WireFraming, OnlyTheCurrentVersionDecodes) {
  // One wire version: a header naming any other poisons the stream,
  // including the versions the protocol grew out of.
  for (const std::uint8_t version : {0, 1, 2, 3, 5}) {
    SCOPED_TRACE(static_cast<int>(version));
    expect_poisons({0x53, 0x41, version,
                    static_cast<std::uint8_t>(FrameKind::kHello)});
  }
  FrameDecoder decoder;
  decoder.feed(net::encode_frame({FrameKind::kHello, Bytes{1, 2, 3}}));
  auto got = decoder.next();
  ASSERT_TRUE(got.ok()) << got.message();
  ASSERT_TRUE(got.value().has_value());
  EXPECT_EQ(got.value()->payload, (Bytes{1, 2, 3}));
  EXPECT_FALSE(decoder.poisoned());
}

/// The exact bytes a session opens and closes with: a HELLO, the two forms
/// of HELLO_ACK and a REPORT, each as a whole frame. Any change here is a
/// change to what every peer sends or receives.
TEST(WireMessages, SessionFramesArePinned) {
  const obs::TraceId trace{0x0102030405060708ULL, 0x090a0b0c0d0e0f10ULL};
  const auto framed = [](FrameKind kind, Bytes payload) {
    return to_hex(net::encode_frame(Frame{kind, std::move(payload)}));
  };

  net::HelloMsg hello;
  hello.scale = net::DeviceScale::kSoftcore;
  hello.member_index = 11;
  hello.base_seed = 0x1122334455667788ULL;
  hello.session_seed = 99;
  hello.flip_probability = 0.625;
  hello.device_id = "node-11";
  hello.trace = trace;
  hello.sampled = true;
  EXPECT_EQ(framed(FrameKind::kHello, hello.encode()),
            "534104010000003a"                  // magic, v4, HELLO, 58 bytes
            "0004" "01" "00" "0000000b"         // version, scale, -, member
            "1122334455667788"                  // base seed
            "0000000000000063"                  // session seed
            "3fe4000000000000"                  // flip probability 0.625
            "0007" "6e6f64652d3131"             // "node-11"
            "0102030405060708" "090a0b0c0d0e0f10" "01");  // trace, sampled

  net::HelloAckMsg plain;
  plain.command_count = 123456;
  EXPECT_EQ(framed(FrameKind::kHelloAck, plain.encode()),
            "5341040200000006" "0004" "0001e240");

  net::HelloAckMsg redirect;
  redirect.redirect_host = "127.0.0.1";
  redirect.redirect_port = 7461;
  EXPECT_EQ(framed(FrameKind::kHelloAck, redirect.encode()),
            "5341040200000013" "0004" "00000000"
            "0009" "3132372e302e302e31" "1d25");  // "127.0.0.1", port

  net::ReportMsg report;
  report.protocol_ok = true;
  report.mac_ok = true;
  report.config_ok = true;
  report.mac_present = true;
  for (std::size_t i = 0; i < report.mac.size(); ++i) {
    report.mac[i] = static_cast<std::uint8_t>(i * 7);
  }
  report.commands = 49;
  report.wall_ns = 123456789;
  report.detail = "ok";
  report.trace = trace;
  report.sampled = true;
  EXPECT_EQ(framed(FrameKind::kReport, report.encode()),
            "534104050000003a"                  // magic, v4, REPORT, 58 bytes
            "0101010001"                        // verdict, kNone, mac present
            "00070e151c232a31383f464d545b6269"  // H_Vrf
            "0000000000000031"                  // commands
            "00000000075bcd15"                  // wall ns
            "0002" "6f6b"                       // "ok"
            "0102030405060708" "090a0b0c0d0e0f10" "01");  // trace, sampled
}

TEST(WireMessages, ErrorRoundTripAndBoundsCheck) {
  net::ErrorMsg error;
  error.failure = core::FailureKind::kPeerDisconnect;
  error.detail = "peer went away";
  auto back = net::ErrorMsg::decode(error.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), error);

  Bytes bad = error.encode();
  bad[0] = 250;  // failure kind beyond the taxonomy
  EXPECT_FALSE(net::ErrorMsg::decode(bad).ok());
}

TEST(WireMessages, UpdateOfferRoundTripAndTruncation) {
  net::UpdateOfferMsg offer;
  offer.version = 42;
  offer.manifest = {0x5a, 0x01, 0xfe, 0x00, 0x33};  // opaque at this layer
  auto back = net::UpdateOfferMsg::decode(offer.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), offer);

  Bytes wire = offer.encode();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes truncated(wire.begin(), wire.begin() + cut);
    EXPECT_FALSE(net::UpdateOfferMsg::decode(truncated).ok())
        << "decoded a " << cut << "-byte prefix";
  }
  // Length field pointing past the payload must refuse, not over-read.
  Bytes lying = wire;
  lying[8] = 0xff;  // manifest length low byte
  EXPECT_FALSE(net::UpdateOfferMsg::decode(lying).ok());
}

TEST(WireMessages, UpdateStatusRoundTripAndTruncation) {
  net::UpdateStatusMsg status;
  status.version = 42;
  status.accepted = true;
  status.state = "Committed";
  status.detail = "post-attest passed";
  auto back = net::UpdateStatusMsg::decode(status.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), status);

  net::UpdateStatusMsg refusal;
  refusal.version = 42;
  refusal.accepted = false;
  refusal.state = "Idle";
  refusal.detail = "manifest: bad signature";
  auto back2 = net::UpdateStatusMsg::decode(refusal.encode());
  ASSERT_TRUE(back2.ok());
  EXPECT_EQ(back2.value(), refusal);

  Bytes wire = status.encode();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes truncated(wire.begin(), wire.begin() + cut);
    EXPECT_FALSE(net::UpdateStatusMsg::decode(truncated).ok())
        << "decoded a " << cut << "-byte prefix";
  }
}

TEST(WireFraming, UpdateFramesSurviveByteAtATimeFraming) {
  net::UpdateOfferMsg offer;
  offer.version = 7;
  offer.manifest.assign(129, 0xab);
  Frame frame{FrameKind::kUpdateOffer, offer.encode()};
  const Bytes stream = net::encode_frame(frame);

  net::FrameDecoder decoder;
  std::optional<Frame> got;
  for (std::uint8_t byte : stream) {
    decoder.feed(Bytes{byte});
    auto next = decoder.next();
    ASSERT_TRUE(next.ok());
    if (next.value().has_value()) got = *std::move(next).take();
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, FrameKind::kUpdateOffer);
  auto back = net::UpdateOfferMsg::decode(got->payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), offer);
}

TEST(WireFraming, DecodeErrorsAndPoisonedConnsAreCounted) {
  obs::set_enabled(true);
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t errors0 =
      registry.counter("sacha.net.decode_errors").value();
  const std::uint64_t poisoned0 =
      registry.counter("sacha.net.poisoned_conns").value();
  FrameDecoder decoder;
  decoder.feed(Bytes(net::kFrameHeaderBytes, 0));  // bad magic
  EXPECT_FALSE(decoder.next().ok());
  EXPECT_EQ(registry.counter("sacha.net.decode_errors").value(), errors0 + 1);
  EXPECT_EQ(registry.counter("sacha.net.poisoned_conns").value(),
            poisoned0 + 1);
  // Draining an already-poisoned stream is not a fresh decode error.
  EXPECT_FALSE(decoder.next().ok());
  EXPECT_EQ(registry.counter("sacha.net.decode_errors").value(), errors0 + 1);
  obs::set_enabled(false);
}

TEST(WireFraming, FuzzRandomBytesNeverCrash) {
  Rng rng(0xf22);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder decoder;
    Bytes noise = random_payload(rng, 512);
    decoder.feed(noise);
    // Drain until error or exhaustion; must never crash or loop forever.
    for (int steps = 0; steps < 1000; ++steps) {
      auto frame = decoder.next();
      if (!frame.ok() || !frame.value().has_value()) break;
    }
  }
}

}  // namespace
