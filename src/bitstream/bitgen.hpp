// Synthetic "bitgen": turns a design specification into configuration
// frames, their register-state mask, and encoded bitstreams.
//
// We obviously cannot run Xilinx ISE here; what attestation needs from the
// toolchain is (a) deterministic frame content for a named design, so the
// verifier's golden reference and the device configuration agree bit for
// bit, (b) a register-bit mask per frame (the .msk file), and (c) packet
// encodings of full/partial bitstreams. Content is a deterministic function
// of (design name, seed, frame index); mask bits are a pseudo-random subset
// of each frame at the design's register density. Any single-bit change to
// a design spec changes essentially all frames, which is the property the
// experiments rely on.
#pragma once

#include <cstdint>
#include <string>

#include "bitstream/frame.hpp"
#include "bitstream/packet.hpp"
#include "fabric/device.hpp"
#include "fabric/partition.hpp"

namespace sacha::bitstream {

struct DesignSpec {
  std::string name;        // functional identity of the design
  std::uint64_t seed = 0;  // build seed (placement/routing variation)

  bool operator==(const DesignSpec&) const = default;
};

/// Architectural register-bit mask of a frame: bit 1 = configuration bit,
/// bit 0 = flip-flop state bit. Flip-flop positions are fixed in silicon,
/// so the mask is deterministic in (device name, frame index) and *shared*
/// by the device model's readback path and the verifier's golden Msk.
/// `density` is the flip-flop fraction of frame bits.
FrameMask architectural_mask(const fabric::DeviceModel& device,
                             std::uint32_t frame_index, double density = 0.02);

class BitGen {
 public:
  explicit BitGen(const fabric::DeviceModel& device);

  const fabric::DeviceModel& device() const { return device_; }

  /// Golden content + mask for every frame of `range`, deterministic in the
  /// spec. Frames are indexed relative to the range (frames[0] is the frame
  /// at linear index range.first).
  ConfigImage generate(const fabric::FrameRange& range,
                       const DesignSpec& spec) const;

  /// One frame embedding a 64-bit nonce in its first two words (§5.2.2's
  /// separate nonce-register partition). All bits are configuration bits.
  ConfigImage nonce_frame(std::uint64_t nonce) const;

  /// Encodes `image` as a single-burst partial bitstream starting at linear
  /// frame index `first_frame` (FAR auto-increment semantics).
  std::vector<std::uint32_t> assemble(const ConfigImage& image,
                                      std::uint32_t first_frame,
                                      std::uint32_t idcode) const;
  /// The same burst over consecutive frames held anywhere (a slice of an
  /// image), built at its exact size.
  std::vector<std::uint32_t> assemble(std::span<const Frame> frames,
                                      std::uint32_t first_frame,
                                      std::uint32_t idcode) const;

  /// Encodes one frame write as a standalone command stream (what each
  /// ICAP_config network packet of the paper's protocol carries).
  std::vector<std::uint32_t> assemble_single_frame(const Frame& frame,
                                                   std::uint32_t frame_index,
                                                   std::uint32_t idcode) const;

  /// Device IDCODE used in our encodings.
  static constexpr std::uint32_t kIdcodeXc6vlx240t = 0x0424A093;

 private:
  fabric::DeviceModel device_;
};

/// FNV-1a over a string, for stable per-design seeding.
std::uint64_t fnv1a(std::string_view text);

}  // namespace sacha::bitstream
