#include "config/config_memory.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace sacha::config {

namespace {

/// Clears bits [lo, hi) of a packed bit array.
void clear_bits(std::uint64_t* bits, std::uint32_t lo, std::uint32_t hi) {
  if (lo >= hi) return;
  const std::uint32_t first = lo / 64;
  const std::uint32_t last = (hi - 1) / 64;
  const std::uint64_t head = ~std::uint64_t{0} << (lo % 64);
  const std::uint64_t tail = ~std::uint64_t{0} >> (63 - (hi - 1) % 64);
  if (first == last) {
    bits[first] &= ~(head & tail);
    return;
  }
  bits[first] &= ~head;
  std::fill(bits + first + 1, bits + last, std::uint64_t{0});
  bits[last] &= ~tail;
}

bool bit_of(const std::uint32_t* words, std::uint32_t bit) {
  return (words[bit / 32] >> (bit % 32)) & 1u;
}

}  // namespace

ConfigMemory::ConfigMemory(const fabric::DeviceModel& device)
    : device_(device),
      words_per_frame_(device.geometry().words_per_frame()),
      positions_(bitstream::RegisterPositions::shared(device)),
      config_(std::size_t{device.total_frames()} * words_per_frame_, 0),
      flipped_((std::size_t{positions_->total()} + 63) / 64, 0) {}

void ConfigMemory::write_frame(std::uint32_t index,
                               const bitstream::Frame& frame) {
  write_frame(index, std::span<const std::uint32_t>(frame.words()));
}

void ConfigMemory::write_frame(std::uint32_t index,
                               std::span<const std::uint32_t> words) {
  assert(index < total_frames());
  assert(words.size() == words_per_frame_);
  std::copy(words.begin(), words.end(), row(index));
  // FFs come up in their INIT state: live equals configured.
  clear_bits(flipped_.data(), positions_->first(index),
             positions_->first(index + 1));
}

void ConfigMemory::write_frame_preserving_registers(
    std::uint32_t index, const bitstream::Frame& frame) {
  assert(index < total_frames());
  assert(frame.size() == words_per_frame_);
  // Live values stay; the stored difference to configuration follows the
  // configuration bits that changed under each register position.
  const std::uint32_t* old_row = row(index);
  std::uint32_t j = positions_->first(index);
  for (std::uint16_t b : positions_->of(index)) {
    if (bit_of(old_row, b) != frame.get_bit(b)) {
      flipped_[j / 64] ^= std::uint64_t{1} << (j % 64);
    }
    ++j;
  }
  std::copy(frame.words().begin(), frame.words().end(), row(index));
}

bitstream::Frame ConfigMemory::config_frame(std::uint32_t index) const {
  assert(index < total_frames());
  const std::span<const std::uint32_t> words = config_words(index);
  return bitstream::Frame(std::vector<std::uint32_t>(words.begin(), words.end()));
}

void ConfigMemory::apply_register_bits(std::uint32_t index,
                                       std::uint32_t* dst) const {
  // Only the set bits of the frame's slice [lo, hi) of flipped_ change the
  // readback, so walk those (a quarter of the positions after a churn pass
  // at p = 0.25, none after a fresh write) instead of testing every one.
  const std::uint32_t lo = positions_->first(index);
  const std::uint32_t hi = positions_->first(index + 1);
  const std::span<const std::uint16_t> frame = positions_->of(index);
  for (std::uint32_t k = lo / 64; k * 64 < hi; ++k) {
    std::uint64_t set = flipped_[k];
    if (k == lo / 64) set &= ~std::uint64_t{0} << (lo % 64);
    if ((k + 1) * 64 > hi) set &= ~std::uint64_t{0} >> (64 - hi % 64);
    for (; set != 0; set &= set - 1) {
      const auto j = k * 64 + static_cast<std::uint32_t>(std::countr_zero(set));
      const std::uint16_t b = frame[j - lo];
      dst[b / 32] ^= 1u << (b % 32);
    }
  }
}

bitstream::Frame ConfigMemory::readback_frame(std::uint32_t index) const {
  bitstream::Frame out = config_frame(index);
  apply_register_bits(index, out.words().data());
  return out;
}

void ConfigMemory::readback_into(std::uint32_t index,
                                 std::vector<std::uint32_t>& out) const {
  assert(index < total_frames());
  const std::span<const std::uint32_t> words = config_words(index);
  const std::size_t at = out.size();
  out.insert(out.end(), words.begin(), words.end());
  apply_register_bits(index, out.data() + at);
}

bitstream::FrameMask ConfigMemory::mask(std::uint32_t index) const {
  assert(index < total_frames());
  return positions_->mask(index);
}

void ConfigMemory::tick_registers(Rng& rng, double flip_probability) {
  if (flip_probability <= 0.0) return;
  const std::uint32_t n = positions_->total();
  if (flip_probability >= 1.0) {
    // Rng::chance draws nothing here: every register bit flips.
    for (std::uint32_t k = 0; k < n / 64; ++k) flipped_[k] = ~flipped_[k];
    if (n % 64 != 0) flipped_[n / 64] ^= (std::uint64_t{1} << (n % 64)) - 1;
    return;
  }
  // rng.chance(p) is uniform() < p, i.e. (u >> 11) * 2^-53 < p, which holds
  // exactly when the integer u >> 11 is below ceil(p * 2^53). (A NaN p
  // draws and never flips, as chance() does.)
  const std::uint64_t threshold =
      flip_probability > 0.0
          ? static_cast<std::uint64_t>(std::ceil(std::ldexp(flip_probability, 53)))
          : 0;
  // Draw through a local copy, so the generator's state can stay in
  // registers across the loop; hand the advanced state back at the end.
  Rng local = rng;
  const auto draws = [&local, threshold](std::uint32_t count) {
    std::uint64_t flips = 0;
    for (std::uint32_t b = 0; b < count; ++b) {
      flips |= std::uint64_t{(local.next_u64() >> 11) < threshold} << b;
    }
    return flips;
  };
  for (std::uint32_t k = 0; k < n / 64; ++k) flipped_[k] ^= draws(64);
  if (n % 64 != 0) flipped_[n / 64] ^= draws(n % 64);
  rng = local;
}

void ConfigMemory::set_register_bit(std::uint32_t frame_index, std::uint32_t bit,
                                    bool value) {
  assert(frame_index < total_frames());
  const std::span<const std::uint16_t> frame = positions_->of(frame_index);
  const auto it = std::lower_bound(frame.begin(), frame.end(), bit);
  if (it == frame.end() || *it != bit) return;  // a configuration bit
  const std::uint32_t j = positions_->first(frame_index) +
                          static_cast<std::uint32_t>(it - frame.begin());
  const std::uint64_t m = std::uint64_t{1} << (j % 64);
  if (value != bit_of(row(frame_index), bit)) {
    flipped_[j / 64] |= m;
  } else {
    flipped_[j / 64] &= ~m;
  }
}

void ConfigMemory::clear() {
  std::fill(config_.begin(), config_.end(), 0u);
  std::fill(flipped_.begin(), flipped_.end(), std::uint64_t{0});
}

}  // namespace sacha::config
