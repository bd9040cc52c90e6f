// Test-only reference model of configuration memory: the straightforward
// three-table layout (a configuration frame, a register frame and a mask
// frame per device frame) that config::ConfigMemory's compact layout must
// reproduce bit for bit. Readback merges (cfg & mask) | (reg & ~mask);
// churn flips each register position with one Rng::chance draw, frames
// ascending and positions ascending.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "bitstream/bitgen.hpp"
#include "bitstream/frame.hpp"
#include "common/rng.hpp"
#include "fabric/device.hpp"

namespace sacha::testing {

class ReferenceConfigMemory {
 public:
  explicit ReferenceConfigMemory(const fabric::DeviceModel& device)
      : words_(device.geometry().words_per_frame()) {
    const std::uint32_t n = device.total_frames();
    config_.assign(n, bitstream::Frame(words_));
    registers_.assign(n, bitstream::Frame(words_));
    masks_.reserve(n);
    register_positions_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      masks_.push_back(bitstream::architectural_mask(device, i));
      for (std::uint32_t b = 0; b < masks_.back().bit_count(); ++b) {
        if (!masks_.back().get_bit(b)) register_positions_[i].push_back(b);
      }
    }
  }

  std::uint32_t total_frames() const {
    return static_cast<std::uint32_t>(config_.size());
  }

  void write_frame(std::uint32_t index, std::span<const std::uint32_t> words) {
    assert(words.size() == words_);
    config_[index] = bitstream::Frame(std::vector<std::uint32_t>(words.begin(), words.end()));
    registers_[index] = config_[index];  // FFs come up in their INIT state
  }

  void write_frame_preserving_registers(std::uint32_t index,
                                        const bitstream::Frame& frame) {
    config_[index] = frame;
  }

  const bitstream::Frame& config_frame(std::uint32_t index) const {
    return config_[index];
  }

  bitstream::Frame readback_frame(std::uint32_t index) const {
    const bitstream::Frame& cfg = config_[index];
    const bitstream::Frame& reg = registers_[index];
    const bitstream::FrameMask& msk = masks_[index];
    bitstream::Frame out(words_);
    for (std::uint32_t w = 0; w < words_; ++w) {
      out.set_word(w, (cfg.word(w) & msk.word(w)) | (reg.word(w) & ~msk.word(w)));
    }
    return out;
  }

  const bitstream::FrameMask& mask(std::uint32_t index) const {
    return masks_[index];
  }

  void tick_registers(Rng& rng, double flip_probability) {
    if (flip_probability <= 0.0) return;
    for (std::uint32_t f = 0; f < registers_.size(); ++f) {
      for (std::uint32_t b : register_positions_[f]) {
        if (rng.chance(flip_probability)) registers_[f].flip_bit(b);
      }
    }
  }

  void set_register_bit(std::uint32_t frame_index, std::uint32_t bit, bool value) {
    registers_[frame_index].set_bit(bit, value);
  }

  /// The prover's power-cycle: every frame written with zeros, then the
  /// BootMem frames [0, boot.size()).
  void reboot(const std::vector<bitstream::Frame>& boot) {
    const std::vector<std::uint32_t> zero(words_, 0);
    for (std::uint32_t i = 0; i < total_frames(); ++i) write_frame(i, zero);
    for (std::uint32_t i = 0; i < boot.size(); ++i) write_frame(i, boot[i].words());
  }

 private:
  std::uint32_t words_;
  std::vector<bitstream::Frame> config_;
  std::vector<bitstream::Frame> registers_;
  std::vector<bitstream::FrameMask> masks_;
  std::vector<std::vector<std::uint32_t>> register_positions_;  // ascending
};

}  // namespace sacha::testing
