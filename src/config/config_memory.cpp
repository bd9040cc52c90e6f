#include "config/config_memory.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "bitstream/bitgen.hpp"

namespace sacha::config {

using bitstream::architectural_mask;

ConfigMemory::ConfigMemory(const fabric::DeviceModel& device)
    : device_(device) {
  const std::uint32_t n = device_.total_frames();
  const std::uint32_t words = device_.geometry().words_per_frame();
  config_.assign(n, bitstream::Frame(words));
  registers_.assign(n, bitstream::Frame(words));
  masks_.reserve(n);
  register_positions_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    masks_.push_back(architectural_mask(device_, i));
    const bitstream::FrameMask& msk = masks_.back();
    // Mask-0 bits in ascending order, a word at a time.
    for (std::uint32_t w = 0; w < msk.size(); ++w) {
      for (std::uint32_t reg = ~msk.word(w); reg != 0; reg &= reg - 1) {
        register_positions_[i].push_back(w * 32 +
                                         static_cast<std::uint32_t>(
                                             std::countr_zero(reg)));
      }
    }
  }
}

void ConfigMemory::write_frame(std::uint32_t index,
                               const bitstream::Frame& frame) {
  write_frame(index, std::span<const std::uint32_t>(frame.words()));
}

void ConfigMemory::write_frame(std::uint32_t index,
                               std::span<const std::uint32_t> words) {
  assert(index < config_.size());
  assert(words.size() == words_per_frame());
  std::copy(words.begin(), words.end(), config_[index].words().begin());
  // FFs come up in their INIT state.
  std::copy(words.begin(), words.end(), registers_[index].words().begin());
}

void ConfigMemory::write_frame_preserving_registers(
    std::uint32_t index, const bitstream::Frame& frame) {
  assert(index < config_.size());
  assert(frame.size() == words_per_frame());
  config_[index] = frame;
}

const bitstream::Frame& ConfigMemory::config_frame(std::uint32_t index) const {
  assert(index < config_.size());
  return config_[index];
}

bitstream::Frame ConfigMemory::readback_frame(std::uint32_t index) const {
  assert(index < config_.size());
  const bitstream::Frame& cfg = config_[index];
  const bitstream::Frame& reg = registers_[index];
  const bitstream::FrameMask& msk = masks_[index];
  bitstream::Frame out(words_per_frame());
  for (std::uint32_t w = 0; w < out.size(); ++w) {
    out.set_word(w, (cfg.word(w) & msk.word(w)) | (reg.word(w) & ~msk.word(w)));
  }
  return out;
}

void ConfigMemory::readback_into(std::uint32_t index,
                                 std::vector<std::uint32_t>& out) const {
  assert(index < config_.size());
  const bitstream::Frame& cfg = config_[index];
  const bitstream::Frame& reg = registers_[index];
  const bitstream::FrameMask& msk = masks_[index];
  const std::uint32_t words = words_per_frame();
  const std::size_t at = out.size();
  out.resize(at + words);
  std::uint32_t* dst = out.data() + at;
  for (std::uint32_t w = 0; w < words; ++w) {
    dst[w] = (cfg.word(w) & msk.word(w)) | (reg.word(w) & ~msk.word(w));
  }
}

const bitstream::FrameMask& ConfigMemory::mask(std::uint32_t index) const {
  assert(index < masks_.size());
  return masks_[index];
}

void ConfigMemory::tick_registers(Rng& rng, double flip_probability) {
  if (flip_probability <= 0.0) return;
  for (std::uint32_t f = 0; f < registers_.size(); ++f) {
    bitstream::Frame& reg = registers_[f];
    for (std::uint32_t b : register_positions_[f]) {
      if (rng.chance(flip_probability)) reg.flip_bit(b);
    }
  }
}

void ConfigMemory::set_register_bit(std::uint32_t frame_index, std::uint32_t bit,
                                    bool value) {
  assert(frame_index < registers_.size());
  registers_[frame_index].set_bit(bit, value);
}

}  // namespace sacha::config
