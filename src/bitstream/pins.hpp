// Pin-connectivity view of the configuration.
//
// §7.2, fourth threat: "a local adversary connects another computing
// device to the Prv's FPGA ... the bitstream reflects which FPGA pins are
// connected to peripherals, such that the Vrf exactly knows if there are
// additional connections to external devices." This module gives that
// argument a concrete surface: each IOB pin has an architectural enable
// bit at a fixed (frame, bit) position in the logic configuration; a
// PinMap can be extracted from any set of frames (golden or readback) and
// diffed, naming exactly which pins changed.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "fabric/device.hpp"

namespace sacha::bitstream {

struct PinBit {
  std::uint32_t frame = 0;
  std::uint32_t bit = 0;
};

/// Architectural location of pin `pin`'s output-enable bit. Deterministic
/// in (device, pin); always inside the logic block's frames.
PinBit pin_bit_location(const fabric::DeviceModel& device, std::uint32_t pin);

/// Reads the enable state of every IOB pin out of a frame view.
/// `frame_of` maps a linear frame index to its 32-bit words.
using FrameView = std::function<std::span<const std::uint32_t>(std::uint32_t)>;
BitVec extract_pin_map(const fabric::DeviceModel& device, const FrameView& frame_of);

struct PinDiff {
  std::vector<std::uint32_t> newly_enabled;   // connected but not expected
  std::vector<std::uint32_t> newly_disabled;  // expected but missing

  bool empty() const { return newly_enabled.empty() && newly_disabled.empty(); }
  std::string to_string() const;
};

/// Pins whose state differs between the expected and observed maps.
PinDiff diff_pin_maps(const BitVec& expected, const BitVec& observed);

}  // namespace sacha::bitstream
