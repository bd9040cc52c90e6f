// Differential and pinned tests of the device model.
//
// config::ConfigMemory stores one flat configuration array plus one bit per
// register position. ReferenceConfigMemory (tests/reference_config_memory.hpp)
// is the plain three-table model it replaced. Random operation sequences run
// on both, on every factory device, and after each operation every frame's
// readback, configuration and mask must agree, and churn must leave both
// Rngs at the same draw. A SHA-256 over a Virtex-6's full readback pins the
// model's output.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/env.hpp"
#include "bitstream/bitgen.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "config/config_memory.hpp"
#include "core/prover.hpp"
#include "crypto/sha256.hpp"
#include "reference_config_memory.hpp"

namespace sacha {
namespace {

namespace bs = sacha::bitstream;
using testing::ReferenceConfigMemory;

bs::Frame random_frame(Rng& rng, std::uint32_t words) {
  bs::Frame f(words);
  for (std::uint32_t w = 0; w < words; ++w) {
    f.set_word(w, static_cast<std::uint32_t>(rng.next_u64()));
  }
  return f;
}

/// Every frame agrees in both models: readback (as a Frame and as the
/// ICAP's streamed words), configuration and mask.
void expect_same(const config::ConfigMemory& memory,
                 const ReferenceConfigMemory& ref, const std::string& step) {
  ASSERT_EQ(memory.total_frames(), ref.total_frames());
  std::vector<std::uint32_t> streamed;
  std::vector<std::uint32_t> expected;
  for (std::uint32_t f = 0; f < ref.total_frames(); ++f) {
    const bs::Frame readback = ref.readback_frame(f);
    ASSERT_EQ(memory.readback_frame(f), readback) << step << ", frame " << f;
    ASSERT_EQ(memory.config_frame(f), ref.config_frame(f)) << step << ", frame " << f;
    ASSERT_EQ(memory.mask(f), ref.mask(f)) << step << ", frame " << f;
    memory.readback_into(f, streamed);
    expected.insert(expected.end(), readback.words().begin(), readback.words().end());
  }
  ASSERT_EQ(streamed, expected) << step;
}

struct DeviceCase {
  const char* name;
  fabric::DeviceModel (*make)();
  std::uint32_t rounds;  // rounds of every operation kind
};

void PrintTo(const DeviceCase& c, std::ostream* os) { *os << c.name; }

class DeviceModelDiff : public ::testing::TestWithParam<DeviceCase> {};

enum class Op {
  kWrite,
  kWritePreserving,
  kSetRegisterBit,
  kSetConfigBit,
  kTick,
  kReboot,
};
constexpr std::uint32_t kOpKinds = 6;

TEST_P(DeviceModelDiff, RandomOperationsMatchTheReferenceModel) {
  const fabric::DeviceModel device = GetParam().make();
  const std::uint32_t words = device.geometry().words_per_frame();
  const std::uint32_t frames = device.total_frames();
  Rng pick(0xd1ff ^ frames);

  core::SachaProver prover(device, "diff", crypto::AesKey{});
  ReferenceConfigMemory ref(device);
  std::vector<bs::Frame> boot;
  std::vector<std::uint32_t> boot_words;
  for (std::uint32_t i = 0; i < frames / 4; ++i) {
    boot.push_back(random_frame(pick, words));
    boot_words.insert(boot_words.end(), boot.back().words().begin(),
                      boot.back().words().end());
  }
  prover.boot(boot_words);
  ref.reboot(boot);
  config::ConfigMemory& memory = prover.memory();
  expect_same(memory, ref, "boot");

  // A frame's bits of one kind (register = mask 0, configuration = mask 1).
  const auto bits_of_kind = [&ref](std::uint32_t f, bool config_bit) {
    std::vector<std::uint32_t> bits;
    for (std::uint32_t b = 0; b < ref.mask(f).bit_count(); ++b) {
      if (ref.mask(f).get_bit(b) == config_bit) bits.push_back(b);
    }
    return bits;
  };

  const double kProbabilities[] = {0.0, 0.25, 1.0, 1.5};
  std::uint32_t ticks = 0;
  for (std::uint32_t round = 0; round < GetParam().rounds; ++round) {
    std::vector<std::uint32_t> order = pick.permutation(kOpKinds);
    for (std::uint32_t kind : order) {
      const auto f = static_cast<std::uint32_t>(pick.below(frames));
      std::string step = "round " + std::to_string(round) + " op " + std::to_string(kind);
      switch (static_cast<Op>(kind)) {
        case Op::kWrite: {
          // Half through the Frame overload, half through the span one.
          const bs::Frame frame = random_frame(pick, words);
          if (pick.chance(0.5)) {
            memory.write_frame(f, frame);
          } else {
            memory.write_frame(f, std::span<const std::uint32_t>(frame.words()));
          }
          ref.write_frame(f, frame.words());
          break;
        }
        case Op::kWritePreserving: {
          // Flip a few bits of every kind, as an SEU or an adversary would.
          bs::Frame frame = ref.config_frame(f);
          for (int k = 0; k < 8; ++k) {
            frame.flip_bit(static_cast<std::uint32_t>(pick.below(words * 32)));
          }
          for (std::uint32_t b : bits_of_kind(f, false)) {
            if (pick.chance(0.5)) frame.flip_bit(b);
          }
          memory.write_frame_preserving_registers(f, frame);
          ref.write_frame_preserving_registers(f, frame);
          break;
        }
        case Op::kSetRegisterBit:
        case Op::kSetConfigBit: {
          const std::vector<std::uint32_t> bits =
              bits_of_kind(f, static_cast<Op>(kind) == Op::kSetConfigBit);
          if (bits.empty()) break;
          for (int k = 0; k < 4; ++k) {
            const std::uint32_t b = bits[pick.below(bits.size())];
            const bool value = pick.chance(0.5);
            memory.set_register_bit(f, b, value);
            ref.set_register_bit(f, b, value);
          }
          break;
        }
        case Op::kTick: {
          const double p = kProbabilities[ticks++ % 4];
          step += " p=" + std::to_string(p);
          const std::uint64_t seed = pick.next_u64();
          Rng a(seed);
          Rng b(seed);
          memory.tick_registers(a, p);
          ref.tick_registers(b, p);
          EXPECT_EQ(a.next_u64(), b.next_u64()) << step << ": Rngs diverged";
          break;
        }
        case Op::kReboot: {
          // A crash with a one-packet countdown reboots from BootMem as the
          // next packet is dropped.
          prover.inject_crash(1);
          core::Command command;
          command.type = core::CommandType::kMacChecksum;
          ASSERT_TRUE(prover.handle(command).dropped);
          ASSERT_FALSE(prover.fault_state().crashed);
          ref.reboot(boot);
          break;
        }
      }
      expect_same(memory, ref, step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(ticks, 4u) << "every flip probability must be exercised";
}

INSTANTIATE_TEST_SUITE_P(
    Devices, DeviceModelDiff,
    ::testing::Values(DeviceCase{"small", &fabric::DeviceModel::small_test_device, 40},
                      DeviceCase{"softcore", &fabric::DeviceModel::softcore_test_device, 40},
                      DeviceCase{"xc6vlx240t", &fabric::DeviceModel::xc6vlx240t, 4}),
    [](const ::testing::TestParamInfo<DeviceCase>& info) {
      return std::string(info.param.name);
    });

TEST(RegisterPositionsTable, OneTablePerDeviceTypeWhileHeld) {
  const fabric::DeviceModel small = fabric::DeviceModel::small_test_device();
  std::weak_ptr<const bs::RegisterPositions> weak;
  {
    const config::ConfigMemory a(small);
    const config::ConfigMemory b(small);
    const config::ConfigMemory other(fabric::DeviceModel::softcore_test_device());
    EXPECT_EQ(a.register_positions(), b.register_positions());
    EXPECT_NE(a.register_positions(), other.register_positions());
    const bs::RegisterPositions& table = *a.register_positions();
    ASSERT_EQ(table.frames(), small.total_frames());
    for (std::uint32_t f = 0; f < table.frames(); ++f) {
      EXPECT_EQ(table.mask(f), bs::architectural_mask(small, f)) << "frame " << f;
      EXPECT_EQ(table.first(f + 1) - table.first(f), table.of(f).size());
    }
    weak = a.register_positions();
  }
  EXPECT_TRUE(weak.expired()) << "the table outlived every memory holding it";
}

TEST(RegisterPositionsTable, RejectsFramesBeyondSixteenBitOffsets) {
  const fabric::DeviceModel wide(
      "WIDE2", fabric::ResourceCounts{},
      fabric::ConfigGeometry(fabric::BlockGeometry{1, 1, 1},
                             fabric::BlockGeometry{1, 1, 1},
                             /*words_per_frame=*/2049));
  EXPECT_THROW(bs::RegisterPositions table(wide), std::length_error);
}

// SHA-256 over all 28,488 Virtex-6 readback frames (big-endian words) after
// boot, one full configuration with the golden design and one register tick
// at p = 0.25 from Rng(2019). Computed on the three-table model this layout
// replaced.
constexpr const char* kPinnedVirtex6Readback =
    "e554862ae49ba69339e9b05475ea422d0e60290f79c689d55d53fcf59f26b37d";

TEST(DeviceModelPins, Virtex6ReadbackAfterBootConfigurationAndTick) {
  const attacks::AttackEnv env = attacks::AttackEnv::virtex6(1);
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  config::ConfigMemory& memory = prover.memory();
  const auto static_frames = static_cast<std::uint32_t>(
      verifier.static_image().size() / memory.words_per_frame());
  for (std::uint32_t f = static_frames; f < memory.total_frames(); ++f) {
    memory.write_frame(f, verifier.golden_frame(f));
  }
  Rng rng(2019);
  memory.tick_registers(rng, 0.25);

  crypto::Sha256 sha;
  for (std::uint32_t f = 0; f < memory.total_frames(); ++f) {
    sha.update(memory.readback_frame(f).to_bytes());
  }
  const crypto::Sha256Digest digest = sha.finalize();
  EXPECT_EQ(to_hex(ByteSpan(digest.data(), digest.size())), kPinnedVirtex6Readback);
}

}  // namespace
}  // namespace sacha
