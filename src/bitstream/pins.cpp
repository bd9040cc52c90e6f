#include "bitstream/pins.hpp"

#include "bitstream/bitgen.hpp"

#include <sstream>

namespace sacha::bitstream {

namespace {
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}
}  // namespace

PinBit pin_bit_location(const fabric::DeviceModel& device, std::uint32_t pin) {
  const std::uint32_t logic_frames =
      device.geometry().block(fabric::BlockType::kLogic).frames();
  const std::uint32_t frame_bits = device.geometry().words_per_frame() * 32;
  // Deterministic spread over the logic frames; stable per device name.
  std::uint64_t h = mix((static_cast<std::uint64_t>(pin) << 32) ^
                        fnv1a(device.name()) ^ 0x10Bu);
  PinBit location;
  // Re-salt until the chosen position is a configuration (mask-1) bit: an
  // IOB enable is configuration, never runtime flip-flop state.
  for (std::uint64_t salt = 0;; ++salt) {
    const std::uint64_t g = mix(h ^ (salt * 0x9e3779b97f4a7c15ULL));
    location.frame = static_cast<std::uint32_t>(g % logic_frames);
    location.bit = static_cast<std::uint32_t>(mix(g ^ 0x9e3779b9ULL) % frame_bits);
    if (architectural_mask(device, location.frame).get_bit(location.bit)) break;
  }
  return location;
}

BitVec extract_pin_map(const fabric::DeviceModel& device, const FrameView& frame_of) {
  const std::uint32_t pins = device.totals().iob;
  BitVec map(pins);
  for (std::uint32_t pin = 0; pin < pins; ++pin) {
    const PinBit loc = pin_bit_location(device, pin);
    const std::span<const std::uint32_t> words = frame_of(loc.frame);
    map.set(pin, (words[loc.bit / 32] >> (loc.bit % 32)) & 1u);
  }
  return map;
}

PinDiff diff_pin_maps(const BitVec& expected, const BitVec& observed) {
  PinDiff diff;
  for (std::size_t pin = 0; pin < expected.size(); ++pin) {
    if (expected.get(pin) == observed.get(pin)) continue;
    if (observed.get(pin)) {
      diff.newly_enabled.push_back(static_cast<std::uint32_t>(pin));
    } else {
      diff.newly_disabled.push_back(static_cast<std::uint32_t>(pin));
    }
  }
  return diff;
}

std::string PinDiff::to_string() const {
  std::ostringstream os;
  if (empty()) return "no pin changes";
  if (!newly_enabled.empty()) {
    os << "unexpected connections on pin(s):";
    for (std::uint32_t p : newly_enabled) os << ' ' << p;
  }
  if (!newly_disabled.empty()) {
    if (!newly_enabled.empty()) os << "; ";
    os << "missing expected connections on pin(s):";
    for (std::uint32_t p : newly_disabled) os << ' ' << p;
  }
  return os.str();
}

}  // namespace sacha::bitstream
