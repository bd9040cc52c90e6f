// Configuration frames and register-bit masks.
//
// A frame is the smallest addressable unit of configuration memory (81
// 32-bit words on the Virtex-6). Readback of a live device does not return
// the bitstream that was written: flip-flop state bits appear with their
// current runtime values (paper §6.1). The mask (the Xilinx .msk file, `Msk`
// in the paper) marks which bits are *configuration* — mask bit 1 — versus
// *live register state* — mask bit 0. Verifier-side comparison always
// happens after `apply_mask`.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace sacha::bitstream {

/// One configuration frame: a fixed number of 32-bit words.
class Frame {
 public:
  Frame() = default;
  explicit Frame(std::uint32_t words, std::uint32_t fill = 0)
      : words_(words, fill) {}
  explicit Frame(std::vector<std::uint32_t> words) : words_(std::move(words)) {}

  std::uint32_t size() const { return static_cast<std::uint32_t>(words_.size()); }
  std::uint32_t word(std::uint32_t i) const { return words_[i]; }
  void set_word(std::uint32_t i, std::uint32_t v) { words_[i] = v; }

  const std::vector<std::uint32_t>& words() const { return words_; }
  std::vector<std::uint32_t>& words() { return words_; }

  bool operator==(const Frame&) const = default;

  /// Big-endian word serialisation (what travels on the wire and what the
  /// MAC engine consumes).
  Bytes to_bytes() const;
  static Frame from_bytes(ByteSpan data);

  /// Flips a single bit; bit index b addresses word b/32, bit b%32 (LSB 0).
  void flip_bit(std::uint32_t bit);
  bool get_bit(std::uint32_t bit) const;
  void set_bit(std::uint32_t bit, bool value);

  std::uint32_t bit_count() const { return size() * 32; }

 private:
  std::vector<std::uint32_t> words_;
};

/// Register-state mask with the same shape as a frame: bit 1 = configuration
/// bit (stable, compared), bit 0 = live register bit (ignored).
using FrameMask = Frame;

/// Returns frame & mask (register bits forced to zero).
Frame apply_mask(const Frame& frame, const FrameMask& mask);

/// True iff a and b agree on all configuration (mask=1) bits.
bool masked_equal(const Frame& a, const Frame& b, const FrameMask& mask);

/// A frame range's worth of golden configuration. Masks are not part of an
/// image: they are architectural (`architectural_mask`), and the verifier
/// reads them from its GoldenModel's flat table.
struct ConfigImage {
  std::vector<Frame> frames;

  std::size_t size() const { return frames.size(); }
  bool operator==(const ConfigImage&) const = default;
};

}  // namespace sacha::bitstream
