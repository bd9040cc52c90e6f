// Tests for frames, masks, the configuration packet codec and the synthetic
// bitgen: round trips, determinism, mask semantics, and defensive parsing of
// malformed streams.
#include <gtest/gtest.h>

#include <algorithm>

#include "bitstream/bitgen.hpp"
#include "bitstream/frame.hpp"
#include "bitstream/golden_model.hpp"
#include "bitstream/masked_compare.hpp"
#include "bitstream/packet.hpp"
#include "common/rng.hpp"
#include "fabric/device.hpp"

namespace sacha::bitstream {
namespace {

fabric::DeviceModel test_device() { return fabric::DeviceModel::small_test_device(); }

/// The test device split into a static and a dynamic partition, the shape
/// a GoldenModel needs.
fabric::Floorplan test_floorplan() {
  fabric::Floorplan plan(test_device());
  plan.add_partition({"StatPart",
                      fabric::PartitionKind::kStatic,
                      fabric::FrameRange{0, 4},
                      {.clb = 20, .bram18 = 2, .iob = 4, .dcm = 1, .icap = 1}});
  plan.add_partition({"DynPart",
                      fabric::PartitionKind::kDynamic,
                      fabric::FrameRange{4, 12},
                      {.clb = 80, .bram18 = 6, .iob = 12, .dcm = 1, .icap = 0}});
  EXPECT_TRUE(plan.validate().ok());
  return plan;
}

Frame random_frame(Rng& rng, std::uint32_t words) {
  Frame f(words);
  for (std::uint32_t i = 0; i < words; ++i) {
    f.set_word(i, static_cast<std::uint32_t>(rng.next_u64()));
  }
  return f;
}

// ------------------------------------------------------------------ Frame

TEST(Frame, ByteSerializationRoundTrip) {
  Rng rng(1);
  const Frame f = random_frame(rng, 81);
  EXPECT_EQ(Frame::from_bytes(f.to_bytes()), f);
}

TEST(Frame, ByteSizeIsFourPerWord) {
  EXPECT_EQ(Frame(81).to_bytes().size(), 324u);
}

TEST(Frame, BitManipulation) {
  Frame f(2);
  f.set_bit(0, true);
  f.set_bit(33, true);
  EXPECT_EQ(f.word(0), 1u);
  EXPECT_EQ(f.word(1), 2u);
  EXPECT_TRUE(f.get_bit(33));
  f.flip_bit(33);
  EXPECT_FALSE(f.get_bit(33));
  EXPECT_EQ(f.word(1), 0u);
}

TEST(Frame, ApplyMaskClearsRegisterBits) {
  Frame f(1, 0xffffffff);
  FrameMask m(1, 0xffffffff);
  m.set_bit(5, false);
  m.set_bit(31, false);
  const Frame masked = apply_mask(f, m);
  EXPECT_FALSE(masked.get_bit(5));
  EXPECT_FALSE(masked.get_bit(31));
  EXPECT_TRUE(masked.get_bit(0));
}

TEST(Frame, MaskedEqualIgnoresRegisterBits) {
  Rng rng(2);
  const Frame a = random_frame(rng, 4);
  Frame b = a;
  FrameMask mask(4, 0xffffffff);
  mask.set_bit(17, false);
  b.flip_bit(17);  // differs only at a register position
  EXPECT_TRUE(masked_equal(a, b, mask));
  b.flip_bit(40);  // now differs at a config position
  EXPECT_FALSE(masked_equal(a, b, mask));
}

TEST(Frame, ApplyMaskIsIdempotent) {
  Rng rng(3);
  const Frame f = random_frame(rng, 8);
  FrameMask m(8, 0xffffffff);
  for (int i = 0; i < 30; ++i) {
    m.set_bit(static_cast<std::uint32_t>(rng.below(8 * 32)), false);
  }
  const Frame once = apply_mask(f, m);
  EXPECT_EQ(apply_mask(once, m), once);
}

// ----------------------------------------------------------------- Packets

TEST(Packets, WriterParserRoundTrip) {
  PacketWriter w;
  w.sync();
  w.noop(2);
  w.write_idcode(0x0424A093);
  w.cmd(CmdOp::kWcfg);
  w.write_far(fabric::FrameAddress{fabric::BlockType::kLogic, 1, 2, 3});
  const std::vector<std::uint32_t> payload(8, 0xdeadbeef);
  w.write_frames(payload);
  w.crc(stream_crc(payload));
  w.cmd(CmdOp::kDesync);

  auto parsed = parse_packets(w.words());
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  const auto& ops = parsed.value();
  ASSERT_EQ(ops.size(), 9u);
  EXPECT_TRUE(std::holds_alternative<OpSync>(ops[0]));
  EXPECT_TRUE(std::holds_alternative<OpNoop>(ops[1]));
  EXPECT_TRUE(std::holds_alternative<OpNoop>(ops[2]));
  EXPECT_EQ(std::get<OpWriteIdcode>(ops[3]).idcode, 0x0424A093u);
  EXPECT_EQ(std::get<OpCmd>(ops[4]).op, CmdOp::kWcfg);
  EXPECT_EQ(std::get<OpWriteFar>(ops[5]).address,
            (fabric::FrameAddress{fabric::BlockType::kLogic, 1, 2, 3}));
  EXPECT_EQ(std::get<OpWriteFrames>(ops[6]), OpWriteFrames{payload});
  EXPECT_TRUE(std::holds_alternative<OpCrc>(ops[7]));
  EXPECT_EQ(std::get<OpCmd>(ops[8]).op, CmdOp::kDesync);
}

TEST(Packets, LongBurstUsesType2) {
  PacketWriter w;
  w.sync();
  w.cmd(CmdOp::kWcfg);
  const std::vector<std::uint32_t> payload(5'000, 0xabcdef01);
  w.write_frames(payload);
  auto parsed = parse_packets(w.words());
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  bool found = false;
  for (const auto& op : parsed.value()) {
    if (const auto* wr = std::get_if<OpWriteFrames>(&op)) {
      EXPECT_EQ(wr->words.size(), 5'000u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Packets, LongReadRequestUsesType2) {
  PacketWriter w;
  w.sync();
  w.read_request(100'000);
  auto parsed = parse_packets(w.words());
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(std::get<OpReadRequest>(parsed.value()[1]).word_count, 100'000u);
}

TEST(Packets, RejectsDataBeforeSync) {
  const std::vector<std::uint32_t> words = {0x12345678, kSyncWord};
  EXPECT_FALSE(parse_packets(words).ok());
}

TEST(Packets, RejectsTruncatedPayload) {
  PacketWriter w;
  w.sync();
  w.write_frames(std::vector<std::uint32_t>(8, 1));
  auto words = w.words();
  words.pop_back();  // drop one payload word
  EXPECT_FALSE(parse_packets(words).ok());
}

TEST(Packets, RejectsUnknownCmd) {
  // Hand-build a CMD write with an unsupported opcode value.
  std::vector<std::uint32_t> words = {kSyncWord,
                                      (0x1u << 29) | (0x2u << 27) | (4u << 13) | 1,
                                      0x7f};
  EXPECT_FALSE(parse_packets(words).ok());
}

TEST(Packets, RejectsUnknownRegisterWrite) {
  std::vector<std::uint32_t> words = {
      kSyncWord, (0x1u << 29) | (0x2u << 27) | (9u << 13) | 1, 0};
  EXPECT_FALSE(parse_packets(words).ok());
}

TEST(Packets, EmptyStreamParsesToNothing) {
  auto parsed = parse_packets(std::span<const std::uint32_t>{});
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().empty());
}

TEST(Packets, WordsFromBytesRejectsMisaligned) {
  EXPECT_FALSE(words_from_bytes(Bytes{1, 2, 3}).ok());
  EXPECT_TRUE(words_from_bytes(Bytes{1, 2, 3, 4}).ok());
}

TEST(Packets, StreamCrcDetectsChange) {
  std::vector<std::uint32_t> words = {1, 2, 3, 4};
  const std::uint32_t before = stream_crc(words);
  words[2] ^= 0x100;
  EXPECT_NE(before, stream_crc(words));
}

// ---------------------------------------------------------- masked compare

TEST(MaskedCompare, WideRoutineMatchesTheScalarOracle) {
  // Lengths across every SIMD tail shape, one flipped bit per case, on and
  // off the mask.
  Rng rng(41);
  for (std::size_t n = 0; n <= 90; ++n) {
    std::vector<std::uint32_t> golden(n), mask(n), received(n);
    for (std::size_t i = 0; i < n; ++i) {
      golden[i] = static_cast<std::uint32_t>(rng.next_u64());
      mask[i] = static_cast<std::uint32_t>(rng.next_u64());
      received[i] = golden[i] ^ (~mask[i] & static_cast<std::uint32_t>(
                                                rng.next_u64()));
    }
    EXPECT_TRUE(
        masked_words_equal(received.data(), golden.data(), mask.data(), n));
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::uint32_t bit : {0u, 17u, 31u}) {
        received[i] ^= 1u << bit;
        const bool scalar = masked_words_equal_scalar(
            received.data(), golden.data(), mask.data(), n);
        EXPECT_EQ(scalar, ((mask[i] >> bit) & 1u) == 0);
        EXPECT_EQ(masked_words_equal(received.data(), golden.data(),
                                     mask.data(), n),
                  scalar)
            << "n " << n << " word " << i << " bit " << bit;
        received[i] ^= 1u << bit;
      }
    }
  }
}

// ------------------------------------------------------------------ BitGen

TEST(BitGen, GenerateIsDeterministic) {
  const BitGen gen(test_device());
  const fabric::FrameRange range{4, 12};
  const DesignSpec spec{"app-v1", 7};
  EXPECT_EQ(gen.generate(range, spec), gen.generate(range, spec));
}

TEST(BitGen, DifferentDesignsDiffer) {
  const BitGen gen(test_device());
  const fabric::FrameRange range{0, 16};
  const auto a = gen.generate(range, {"app-v1", 7});
  const auto b = gen.generate(range, {"app-v2", 7});
  EXPECT_NE(a.frames, b.frames);
}

TEST(BitGen, DifferentSeedsDiffer) {
  const BitGen gen(test_device());
  const fabric::FrameRange range{0, 16};
  EXPECT_NE(gen.generate(range, {"app", 1}).frames,
            gen.generate(range, {"app", 2}).frames);
}

TEST(BitGen, MaskIsArchitecturalNotDesignSpecific) {
  // Two models of different application designs compare every frame under
  // the same mask: the architectural one, which no design moves.
  const fabric::Floorplan plan = test_floorplan();
  const GoldenModel a(plan, {"static", 1}, {"app-v1", 7});
  const GoldenModel b(plan, {"static", 1}, {"app-v2", 99});
  for (std::uint32_t f = 0; f < test_device().total_frames(); ++f) {
    const FrameMask expected = architectural_mask(test_device(), f);
    EXPECT_TRUE(std::ranges::equal(a.mask_words(f), expected.words())) << f;
    EXPECT_TRUE(std::ranges::equal(b.mask_words(f), expected.words())) << f;
  }
}

TEST(BitGen, MaskDensityIsRoughlyTwoPercent) {
  const auto dev = fabric::DeviceModel::xc6vlx240t();
  const FrameMask mask = architectural_mask(dev, 1'000);
  std::uint32_t zeros = 0;
  for (std::uint32_t b = 0; b < mask.bit_count(); ++b) zeros += !mask.get_bit(b);
  // 2% of 2,592 bits = ~52 positions (draws may collide, so <=).
  EXPECT_GT(zeros, 30u);
  EXPECT_LE(zeros, 52u);
}

TEST(BitGen, NonceFrameEmbedsNonce) {
  const BitGen gen(test_device());
  const ConfigImage image = gen.nonce_frame(0x0123456789abcdefULL);
  ASSERT_EQ(image.size(), 1u);
  EXPECT_EQ(image.frames[0].word(0), 0x01234567u);
  EXPECT_EQ(image.frames[0].word(1), 0x89abcdefu);
  // The verifier compares the nonce frame under the frame's architectural
  // mask, like every other frame.
  const GoldenModel model(test_floorplan(), {"static", 1}, {"app", 1});
  EXPECT_TRUE(std::ranges::equal(
      model.mask_words(model.nonce_frame()),
      architectural_mask(test_device(), model.nonce_frame()).words()));
}

TEST(BitGen, AssembleParsesBack) {
  const BitGen gen(test_device());
  const fabric::FrameRange range{4, 3};
  const ConfigImage image = gen.generate(range, {"app", 1});
  std::vector<std::uint32_t> payload(range.count * 8);
  gen.generate_into(range, {"app", 1}, payload);
  const auto words = gen.assemble(payload, range.first, 0x1234);
  auto parsed = parse_packets(words);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  // The payload must contain all three frames back to back.
  for (const auto& op : parsed.value()) {
    if (const auto* wr = std::get_if<OpWriteFrames>(&op)) {
      ASSERT_EQ(wr->words.size(), 3u * 8u);
      for (std::uint32_t f = 0; f < 3; ++f) {
        for (std::uint32_t w = 0; w < 8; ++w) {
          EXPECT_EQ(wr->words[f * 8 + w], image.frames[f].word(w));
        }
      }
    }
  }
}

TEST(BitGen, SingleFrameStreamIsSelfContained) {
  const BitGen gen(test_device());
  Rng rng(5);
  const Frame frame = random_frame(rng, 8);
  const auto words = gen.assemble_single_frame(frame.words(), 9, 0x1234);
  auto parsed = parse_packets(words);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  bool saw_far = false, saw_frame = false;
  for (const auto& op : parsed.value()) {
    if (const auto* far = std::get_if<OpWriteFar>(&op)) {
      EXPECT_EQ(test_device().geometry().linear_index(far->address), 9u);
      saw_far = true;
    }
    if (const auto* wr = std::get_if<OpWriteFrames>(&op)) {
      EXPECT_EQ(*wr, OpWriteFrames{frame.words()});
      saw_frame = true;
    }
  }
  EXPECT_TRUE(saw_far);
  EXPECT_TRUE(saw_frame);
}

TEST(Fnv1a, KnownValuesAndSeparation) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_NE(fnv1a("ab"), fnv1a("ba"));
}

// Property sweep: bitgen images always shape-match their range.
class BitGenRangeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BitGenRangeSweep, ImageShapeMatchesRange) {
  const BitGen gen(test_device());
  const fabric::FrameRange range{0, GetParam()};
  const ConfigImage image = gen.generate(range, {"shape", 3});
  EXPECT_EQ(image.frames.size(), GetParam());
  for (const Frame& f : image.frames) EXPECT_EQ(f.size(), 8u);
  for (std::uint32_t i = 0; i < range.count; ++i) {
    EXPECT_EQ(architectural_mask(test_device(), range.first + i).size(), 8u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitGenRangeSweep,
                         ::testing::Values(1u, 2u, 5u, 12u, 16u));

}  // namespace
}  // namespace sacha::bitstream
