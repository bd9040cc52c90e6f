// Tests for the configuration-memory + ICAP substrate: write/readback
// semantics, live register-bit injection, command-stream interpretation,
// cycle accounting against Table 3, and the bounded BRAM buffer.
#include <gtest/gtest.h>

#include "bitstream/bitgen.hpp"
#include "config/bram_buffer.hpp"
#include "config/config_memory.hpp"
#include "config/icap.hpp"

namespace sacha::config {
namespace {

namespace bs = sacha::bitstream;

fabric::DeviceModel test_device() { return fabric::DeviceModel::small_test_device(); }

bs::Frame pattern_frame(std::uint32_t words, std::uint32_t base) {
  bs::Frame f(words);
  for (std::uint32_t i = 0; i < words; ++i) f.set_word(i, base + i);
  return f;
}

// ------------------------------------------------------------ ConfigMemory

TEST(ConfigMemory, StartsZeroed) {
  ConfigMemory mem(test_device());
  for (std::uint32_t i = 0; i < mem.total_frames(); ++i) {
    EXPECT_EQ(mem.config_frame(i), bs::Frame(mem.words_per_frame()));
  }
}

TEST(ConfigMemory, WriteThenReadConfigBits) {
  ConfigMemory mem(test_device());
  const bs::Frame f = pattern_frame(8, 100);
  mem.write_frame(3, f);
  EXPECT_EQ(mem.config_frame(3), f);
}

TEST(ConfigMemory, FreshReadbackEqualsWrittenFrame) {
  // Immediately after configuration, flip-flops hold their INIT values, so
  // readback matches the written frame bit for bit.
  ConfigMemory mem(test_device());
  const bs::Frame f = pattern_frame(8, 0xabcd0000);
  mem.write_frame(5, f);
  EXPECT_EQ(mem.readback_frame(5), f);
}

TEST(ConfigMemory, TickedRegistersDivergeOnlyAtMaskZeroBits) {
  ConfigMemory mem(test_device());
  const bs::Frame f = pattern_frame(8, 0x5555aaaa);
  for (std::uint32_t i = 0; i < mem.total_frames(); ++i) mem.write_frame(i, f);
  Rng rng(42);
  mem.tick_registers(rng, 0.5);
  bool any_diverged = false;
  for (std::uint32_t i = 0; i < mem.total_frames(); ++i) {
    const bs::Frame rb = mem.readback_frame(i);
    const bs::FrameMask& msk = mem.mask(i);
    for (std::uint32_t b = 0; b < rb.bit_count(); ++b) {
      if (msk.get_bit(b)) {
        EXPECT_EQ(rb.get_bit(b), f.get_bit(b)) << "config bit changed";
      } else if (rb.get_bit(b) != f.get_bit(b)) {
        any_diverged = true;
      }
    }
  }
  EXPECT_TRUE(any_diverged) << "tick_registers had no observable effect";
}

TEST(ConfigMemory, MaskedReadbackAlwaysMatchesGolden) {
  // The paper's verification step: Msk applied to readback equals Msk
  // applied to the golden frame, regardless of register activity.
  ConfigMemory mem(test_device());
  const bs::Frame golden = pattern_frame(8, 0x12340000);
  mem.write_frame(2, golden);
  Rng rng(7);
  mem.tick_registers(rng, 1.0);  // maximal register churn
  const bs::FrameMask& msk = mem.mask(2);
  EXPECT_EQ(bs::apply_mask(mem.readback_frame(2), msk),
            bs::apply_mask(golden, msk));
}

TEST(ConfigMemory, RewriteResetsRegisterState) {
  ConfigMemory mem(test_device());
  const bs::Frame f = pattern_frame(8, 1);
  mem.write_frame(0, f);
  Rng rng(9);
  mem.tick_registers(rng, 1.0);
  mem.write_frame(0, f);  // reconfiguration re-initialises the FFs
  EXPECT_EQ(mem.readback_frame(0), f);
}

TEST(ConfigMemory, SetRegisterBitIsObservable) {
  ConfigMemory mem(test_device());
  // Find a register (mask-0) bit in frame 0.
  const bs::FrameMask& msk = mem.mask(0);
  std::optional<std::uint32_t> reg_bit;
  for (std::uint32_t b = 0; b < msk.bit_count(); ++b) {
    if (!msk.get_bit(b)) {
      reg_bit = b;
      break;
    }
  }
  ASSERT_TRUE(reg_bit.has_value()) << "test device frame 0 has no register bits";
  mem.set_register_bit(0, *reg_bit, true);
  EXPECT_TRUE(mem.readback_frame(0).get_bit(*reg_bit));
  EXPECT_FALSE(mem.config_frame(0).get_bit(*reg_bit));
}

// -------------------------------------------------------------------- ICAP

class IcapTest : public ::testing::Test {
 protected:
  IcapTest()
      : device_(test_device()),
        gen_(device_),
        mem_(device_),
        icap_(mem_, device_idcode(device_)) {}

  fabric::DeviceModel device_;
  bs::BitGen gen_;
  ConfigMemory mem_;
  Icap icap_;
};

TEST_F(IcapTest, SingleFrameConfig) {
  const bs::Frame f = pattern_frame(8, 0xc0de0000);
  const auto words =
      gen_.assemble_single_frame(f.words(), 6, device_idcode(device_));
  auto result = icap_.execute(words);
  ASSERT_TRUE(result.ok()) << result.message();
  EXPECT_TRUE(result.value().empty());
  EXPECT_EQ(mem_.config_frame(6), f);
  EXPECT_EQ(icap_.stats().frames_written, 1u);
}

TEST_F(IcapTest, BurstConfigWritesContiguousFrames) {
  const fabric::FrameRange range{4, 5};
  const bs::ConfigImage image = gen_.generate(range, {"burst", 1});
  std::vector<std::uint32_t> payload(range.count * 8);
  gen_.generate_into(range, {"burst", 1}, payload);
  const auto words =
      gen_.assemble(payload, range.first, device_idcode(device_));
  auto result = icap_.execute(words);
  ASSERT_TRUE(result.ok()) << result.message();
  for (std::uint32_t i = 0; i < range.count; ++i) {
    EXPECT_EQ(mem_.config_frame(range.first + i), image.frames[i]);
  }
}

TEST_F(IcapTest, ReadbackReturnsLiveFrame) {
  const bs::Frame f = pattern_frame(8, 0xfeed0000);
  auto cfg = icap_.execute(
      gen_.assemble_single_frame(f.words(), 2, device_idcode(device_)));
  ASSERT_TRUE(cfg.ok());

  bs::PacketWriter w;
  w.sync();
  w.cmd(bs::CmdOp::kRcfg);
  w.write_far(device_.geometry().address_of(2));
  w.read_request(8);
  w.cmd(bs::CmdOp::kDesync);
  auto result = icap_.execute(w.words());
  ASSERT_TRUE(result.ok()) << result.message();
  EXPECT_EQ(result.value(), f.words());
  EXPECT_EQ(icap_.stats().frames_read, 1u);
}

TEST_F(IcapTest, RejectsWrongIdcode) {
  const bs::Frame f = pattern_frame(8, 1);
  const auto words = gen_.assemble_single_frame(f.words(), 0, 0xdead0000);
  EXPECT_FALSE(icap_.execute(words).ok());
  EXPECT_EQ(mem_.config_frame(0), bs::Frame(8));  // nothing written
}

TEST_F(IcapTest, RejectsWriteWithoutWcfg) {
  bs::PacketWriter w;
  w.sync();
  w.write_far(device_.geometry().address_of(0));
  w.write_frames(std::vector<std::uint32_t>(8, 1));
  EXPECT_FALSE(icap_.execute(w.words()).ok());
}

TEST_F(IcapTest, RejectsReadWithoutRcfg) {
  bs::PacketWriter w;
  w.sync();
  w.read_request(8);
  EXPECT_FALSE(icap_.execute(w.words()).ok());
}

TEST_F(IcapTest, RejectsMisalignedWrite) {
  bs::PacketWriter w;
  w.sync();
  w.cmd(bs::CmdOp::kWcfg);
  w.write_far(device_.geometry().address_of(0));
  w.write_frames(std::vector<std::uint32_t>(7, 1));  // 7 != words_per_frame
  EXPECT_FALSE(icap_.execute(w.words()).ok());
}

TEST_F(IcapTest, RejectsWritePastEnd) {
  bs::PacketWriter w;
  w.sync();
  w.cmd(bs::CmdOp::kWcfg);
  w.write_far(device_.geometry().address_of(15));  // last frame
  w.write_frames(std::vector<std::uint32_t>(16, 1));  // two frames
  EXPECT_FALSE(icap_.execute(w.words()).ok());
}

TEST_F(IcapTest, RejectsReadPastEnd) {
  bs::PacketWriter w;
  w.sync();
  w.cmd(bs::CmdOp::kRcfg);
  w.write_far(device_.geometry().address_of(15));
  w.read_request(16);
  EXPECT_FALSE(icap_.execute(w.words()).ok());
}

TEST_F(IcapTest, CrcMismatchRejected) {
  bs::PacketWriter w;
  w.sync();
  w.cmd(bs::CmdOp::kWcfg);
  w.write_far(device_.geometry().address_of(0));
  const std::vector<std::uint32_t> payload(8, 3);
  w.write_frames(payload);
  w.crc(bs::stream_crc(payload) ^ 1);  // corrupted CRC
  EXPECT_FALSE(icap_.execute(w.words()).ok());
}

TEST_F(IcapTest, CrcMatchAccepted) {
  bs::PacketWriter w;
  w.sync();
  w.cmd(bs::CmdOp::kWcfg);
  w.write_far(device_.geometry().address_of(0));
  const std::vector<std::uint32_t> payload(8, 3);
  w.write_frames(payload);
  w.crc(bs::stream_crc(payload));
  EXPECT_TRUE(icap_.execute(w.words()).ok());
}

TEST_F(IcapTest, FarAutoIncrementAcrossStreams) {
  // FAR persists between command streams, like the silicon.
  bs::PacketWriter w1;
  w1.sync();
  w1.cmd(bs::CmdOp::kWcfg);
  w1.write_far(device_.geometry().address_of(3));
  w1.write_frames(std::vector<std::uint32_t>(8, 0x11));
  ASSERT_TRUE(icap_.execute(w1.words()).ok());

  bs::PacketWriter w2;  // no FAR write: continues at frame 4
  w2.sync();
  w2.cmd(bs::CmdOp::kWcfg);
  w2.write_frames(std::vector<std::uint32_t>(8, 0x22));
  ASSERT_TRUE(icap_.execute(w2.words()).ok());
  EXPECT_EQ(mem_.config_frame(4), bs::Frame(8, 0x22));
}

// -------------------------------------------------- Virtex-6 cycle costs

TEST(IcapTiming, SingleFrameConfigCyclesMatchTable3) {
  // Table 3 row A2: Prv performs ICAP_config in 1,834 ns at 100 MHz, i.e.
  // ~183 cycles. Our model: 91 stream words + 81 data-extra + 11 commit.
  const auto device = fabric::DeviceModel::xc6vlx240t();
  const bs::BitGen gen(device);
  ConfigMemory mem(device);
  Icap icap(mem, device_idcode(device));
  const bs::Frame f(device.geometry().words_per_frame(), 0x1);
  auto r = icap.execute(
      gen.assemble_single_frame(f.words(), 0, device_idcode(device)));
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(icap.stats().cycles, 183u);
}

TEST(IcapTiming, SingleFrameReadbackCyclesMatchTable3) {
  // Table 3 row A4: ICAP_readback takes 24,044 ns => ~2,404 cycles.
  const auto device = fabric::DeviceModel::xc6vlx240t();
  ConfigMemory mem(device);
  Icap icap(mem, device_idcode(device));
  bs::PacketWriter w;
  w.sync();
  w.write_idcode(device_idcode(device));
  w.cmd(bs::CmdOp::kRcfg);
  w.write_far(device.geometry().address_of(0));
  w.read_request(device.geometry().words_per_frame());
  w.cmd(bs::CmdOp::kDesync);
  auto r = icap.execute(w.words());
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(icap.stats().cycles, 2'404u);
}

// -------------------------------------------------------------- BramBuffer

TEST(BramBuffer, StoresWithinCapacity) {
  BramBuffer buf(100);
  EXPECT_TRUE(buf.store("a", Bytes(60, 1)));
  EXPECT_EQ(buf.used(), 60u);
  EXPECT_TRUE(buf.store("b", Bytes(40, 2)));
  EXPECT_EQ(buf.free(), 0u);
}

TEST(BramBuffer, RejectsOverCapacity) {
  BramBuffer buf(100);
  EXPECT_TRUE(buf.store("a", Bytes(60, 1)));
  EXPECT_FALSE(buf.store("b", Bytes(41, 2)));
  EXPECT_EQ(buf.used(), 60u);
  EXPECT_FALSE(buf.load("b").has_value());
}

TEST(BramBuffer, ReplaceAccountsCorrectly) {
  BramBuffer buf(100);
  EXPECT_TRUE(buf.store("a", Bytes(80, 1)));
  EXPECT_TRUE(buf.store("a", Bytes(90, 2)));  // replacing frees the old 80
  EXPECT_EQ(buf.used(), 90u);
  EXPECT_EQ(buf.load("a")->size(), 90u);
}

TEST(BramBuffer, EraseAndClear) {
  BramBuffer buf(100);
  buf.store("a", Bytes(10, 1));
  buf.store("b", Bytes(20, 2));
  EXPECT_TRUE(buf.erase("a"));
  EXPECT_FALSE(buf.erase("a"));
  EXPECT_EQ(buf.used(), 20u);
  buf.clear();
  EXPECT_EQ(buf.used(), 0u);
}

TEST(BramBuffer, DynPartBramCannotStagePartialBitstream) {
  // The adversary-visible staging memory (DynPart BRAM, 760 x 18 kbit) is
  // ~1.7 MB; the partial bitstream is ~8.6 MB. The bounded-memory premise.
  const auto device = fabric::DeviceModel::xc6vlx240t();
  BramBuffer staging(fabric::bram_capacity_bytes({.bram18 = 760}));
  const std::uint64_t partial =
      device.bitstream_bytes(fabric::kVirtex6DynamicFrames);
  EXPECT_FALSE(staging.store("stash", Bytes(partial, 0)));
}

}  // namespace
}  // namespace sacha::config
