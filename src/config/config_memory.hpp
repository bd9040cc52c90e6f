// Configuration memory with live register-state readback.
//
// The memory stores the *written configuration bits* of every frame and the
// *runtime values* of the device's flip-flops. Which bits of a frame are
// register (flip-flop state) bits is architectural — fixed positions per
// frame in the silicon — so the positions come from one table per device
// type (bitstream::RegisterPositions), shared by every ConfigMemory of that
// type. Reading a frame back returns configuration bits merged with the
// current register values, exactly the effect that forces the paper's
// verifier to apply Msk before comparing (§6.1).
//
// Layout, as the silicon holds it: one flat array of configuration words
// (frames x words_per_frame) and one bit per register position, numbered
// by the shared table. That bit holds live XOR configured, so a fresh
// write clears it (flip-flop INIT) and a readback is the configuration row
// with the set bits XORed in.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bitstream/bitgen.hpp"
#include "bitstream/frame.hpp"
#include "common/rng.hpp"
#include "fabric/device.hpp"

namespace sacha::config {

class ConfigMemory {
 public:
  explicit ConfigMemory(const fabric::DeviceModel& device);

  const fabric::DeviceModel& device() const { return device_; }
  std::uint32_t total_frames() const { return device_.total_frames(); }
  std::uint32_t words_per_frame() const { return words_per_frame_; }

  /// Overwrites a frame's configuration bits. Register state at that frame
  /// resets to the written values (FF INIT semantics).
  void write_frame(std::uint32_t index, const bitstream::Frame& frame);
  /// The same from a frame's words held anywhere (the ICAP writes straight
  /// from a command's FDRI payload).
  void write_frame(std::uint32_t index, std::span<const std::uint32_t> words);

  /// Updates configuration bits without re-initialising the register layer:
  /// direct corruption of the configuration SRAM (an SEU strike, or an
  /// adversary flipping bits under a running design).
  void write_frame_preserving_registers(std::uint32_t index,
                                        const bitstream::Frame& frame);

  /// The stored configuration bits (what a mask-compare is made against).
  bitstream::Frame config_frame(std::uint32_t index) const;
  /// The same as a view into the memory, valid until the next write.
  std::span<const std::uint32_t> config_words(std::uint32_t index) const {
    return {config_.data() + std::size_t{index} * words_per_frame_,
            words_per_frame_};
  }

  /// What the ICAP sees: configuration bits with register positions
  /// replaced by live values.
  bitstream::Frame readback_frame(std::uint32_t index) const;

  /// Appends the readback view of a frame directly to `out` — the streaming
  /// form used by Icap::execute so a full-memory readback does not build a
  /// temporary Frame per frame.
  void readback_into(std::uint32_t index, std::vector<std::uint32_t>& out) const;

  /// The frame's architectural mask, rebuilt from the register positions.
  bitstream::FrameMask mask(std::uint32_t index) const;

  /// The device type's shared register-position table.
  const std::shared_ptr<const bitstream::RegisterPositions>& register_positions()
      const {
    return positions_;
  }

  /// Simulates the running application: each register bit flips with
  /// probability `flip_probability`. This is what makes raw readback differ
  /// from the golden bitstream. Register bits are visited frames ascending,
  /// positions ascending, each consuming one Rng draw when
  /// 0 < flip_probability < 1 and none otherwise (as Rng::chance).
  void tick_registers(Rng& rng, double flip_probability);

  /// Direct register-layer access for deterministic tests. A position that
  /// is not a register bit is left alone (readback shows configuration
  /// there).
  void set_register_bit(std::uint32_t frame_index, std::uint32_t bit, bool value);

  /// Power loss: every configuration bit and flip-flop reads zero.
  void clear();

 private:
  std::uint32_t* row(std::uint32_t index) {
    return config_.data() + std::size_t{index} * words_per_frame_;
  }
  /// XORs frame `index`'s set register bits into `dst` (one frame's words).
  void apply_register_bits(std::uint32_t index, std::uint32_t* dst) const;

  fabric::DeviceModel device_;
  std::uint32_t words_per_frame_;
  std::shared_ptr<const bitstream::RegisterPositions> positions_;
  std::vector<std::uint32_t> config_;  // frames x words_per_frame
  // Bit j: register position j (global numbering of positions_) holds the
  // complement of its configured value.
  std::vector<std::uint64_t> flipped_;
};

}  // namespace sacha::config
