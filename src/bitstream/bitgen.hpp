// Synthetic "bitgen": turns a design specification into configuration
// frames and encoded bitstreams, next to the device's register-state mask.
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
#include <memory>
#include <span>
#include <string>
#include <vector>

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

/// Every frame's flip-flop (mask-0) positions of one device type, as one
/// flat table: frames ascending, positions ascending within a frame. Entry
/// `first(f) + k` is frame f's k-th register bit, so the table also numbers
/// the device's register bits globally. Built from `architectural_mask`,
/// immutable, and interned per device type by `shared()`: every
/// ConfigMemory of that type in the process reads the same table.
class RegisterPositions {
 public:
  /// Positions are stored as 16-bit bit offsets within a frame.
  static constexpr std::uint32_t kMaxFrameBits = 65'536;

  /// Builds the table; throws std::length_error when a frame holds more
  /// than kMaxFrameBits bits.
  explicit RegisterPositions(const fabric::DeviceModel& device);

  /// The process-wide table of `device`'s type (name and geometry), built
  /// on first use and kept while any holder lives. Thread-safe.
  static std::shared_ptr<const RegisterPositions> shared(
      const fabric::DeviceModel& device);

  std::uint32_t frames() const {
    return static_cast<std::uint32_t>(offsets_.size() - 1);
  }
  /// Register bits on the whole device.
  std::uint32_t total() const {
    return static_cast<std::uint32_t>(positions_.size());
  }
  /// Global index of frame `frame`'s first register bit.
  std::uint32_t first(std::uint32_t frame) const { return offsets_[frame]; }
  /// Frame `frame`'s register-bit offsets, ascending.
  std::span<const std::uint16_t> of(std::uint32_t frame) const {
    return std::span<const std::uint16_t>(positions_)
        .subspan(offsets_[frame], offsets_[frame + 1] - offsets_[frame]);
  }
  /// Frame `frame`'s architectural mask, rebuilt from its positions (equal
  /// to `architectural_mask(device, frame)`).
  FrameMask mask(std::uint32_t frame) const;
  /// The same mask written into `row` (one frame's words).
  void write_mask(std::uint32_t frame, std::uint32_t* row) const;

 private:
  std::uint32_t words_per_frame_ = 0;
  std::vector<std::uint32_t> offsets_;   // frames + 1 entries
  std::vector<std::uint16_t> positions_;
};

class BitGen {
 public:
  explicit BitGen(const fabric::DeviceModel& device);

  const fabric::DeviceModel& device() const { return device_; }

  /// Golden content of every frame of `range`, deterministic in the spec.
  /// Frames are indexed relative to the range (frames[0] is the frame at
  /// linear index range.first). The mask is not design-specific: see
  /// `architectural_mask`.
  ConfigImage generate(const fabric::FrameRange& range,
                       const DesignSpec& spec) const;
  /// The same content written straight into `rows` (range.count frames of
  /// words, back to back): how GoldenModel fills its table.
  void generate_into(const fabric::FrameRange& range, const DesignSpec& spec,
                     std::span<std::uint32_t> rows) const;

  /// One frame embedding a 64-bit nonce in its first two words (§5.2.2's
  /// separate nonce-register partition).
  ConfigImage nonce_frame(std::uint64_t nonce) const;

  /// Encodes consecutive frames' `words` as a single-burst partial
  /// bitstream starting at linear frame index `first_frame` (FAR
  /// auto-increment semantics), built at its exact size in `storage` (see
  /// PacketWriter's storage constructor).
  std::vector<std::uint32_t> assemble(
      std::span<const std::uint32_t> words, std::uint32_t first_frame,
      std::uint32_t idcode, std::vector<std::uint32_t> storage = {}) const;

  /// Encodes one frame write as a standalone command stream (what each
  /// ICAP_config network packet of the paper's protocol carries), in
  /// `storage`.
  std::vector<std::uint32_t> assemble_single_frame(
      std::span<const std::uint32_t> frame_words, std::uint32_t frame_index,
      std::uint32_t idcode, std::vector<std::uint32_t> storage = {}) const;

  /// Device IDCODE used in our encodings.
  static constexpr std::uint32_t kIdcodeXc6vlx240t = 0x0424A093;

 private:
  fabric::DeviceModel device_;
};

/// FNV-1a over a string, for stable per-design seeding.
std::uint64_t fnv1a(std::string_view text);

}  // namespace sacha::bitstream
