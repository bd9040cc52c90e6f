// Configuration memory with live register-state readback.
//
// The memory stores, per frame, the *written configuration bits* and a
// separate layer of *runtime register values*. Which bits of a frame are
// register (flip-flop state) bits is architectural — fixed positions per
// frame in the silicon — so both layers share the device's architectural
// mask. Reading a frame back returns configuration bits merged with the
// current register values, exactly the effect that forces the paper's
// verifier to apply Msk before comparing (§6.1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitstream/frame.hpp"
#include "common/rng.hpp"
#include "fabric/device.hpp"

namespace sacha::config {

class ConfigMemory {
 public:
  explicit ConfigMemory(const fabric::DeviceModel& device);

  const fabric::DeviceModel& device() const { return device_; }
  std::uint32_t total_frames() const { return device_.total_frames(); }
  std::uint32_t words_per_frame() const {
    return device_.geometry().words_per_frame();
  }

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
  const bitstream::Frame& config_frame(std::uint32_t index) const;

  /// What the ICAP sees: configuration bits with register positions
  /// replaced by live values.
  bitstream::Frame readback_frame(std::uint32_t index) const;

  /// Appends the readback view of a frame directly to `out` — the streaming
  /// form used by Icap::execute so a full-memory readback does not build a
  /// temporary Frame per frame.
  void readback_into(std::uint32_t index, std::vector<std::uint32_t>& out) const;

  const bitstream::FrameMask& mask(std::uint32_t index) const;

  /// Simulates the running application: each register bit flips with
  /// probability `flip_probability`. This is what makes raw readback differ
  /// from the golden bitstream.
  void tick_registers(Rng& rng, double flip_probability);

  /// Direct register-layer access for deterministic tests.
  void set_register_bit(std::uint32_t frame_index, std::uint32_t bit, bool value);

 private:
  fabric::DeviceModel device_;
  std::vector<bitstream::Frame> config_;
  std::vector<bitstream::Frame> registers_;  // live values at mask-0 positions
  std::vector<bitstream::FrameMask> masks_;
  // Flattened register-bit positions per frame, so tick_registers only
  // visits physical flip-flops instead of every frame bit.
  std::vector<std::vector<std::uint32_t>> register_positions_;
};

}  // namespace sacha::config
