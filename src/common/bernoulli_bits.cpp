#include "common/bernoulli_bits.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sacha {

#if defined(SACHA_HAVE_AVX2)
namespace detail {
// Defined in bernoulli_bits_avx2.cpp (built with -mavx2). Eight lanes, lane
// j's state word c at state[c][j]: each XORs `words` words of flips into
// bits[j * stride + k] (k < words) and leaves its state advanced.
void bernoulli_lanes_avx2(std::uint64_t (*state)[8], std::uint64_t* bits,
                          std::size_t stride, std::size_t words,
                          std::uint64_t threshold);
}  // namespace detail
#endif

namespace {

/// rng.chance(p) is uniform() < p, i.e. (u >> 11) * 2^-53 < p, which holds
/// exactly when the integer u >> 11 is below ceil(p * 2^53). A NaN p gives
/// 0, which no draw is below.
std::uint64_t threshold_of(double p) {
  return p > 0.0 ? static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53))) : 0;
}

/// The flips of the next `count` draws, draw b in bit b.
std::uint64_t draw_word(Rng& rng, std::uint64_t threshold, std::uint32_t count) {
  std::uint64_t flips = 0;
  for (std::uint32_t b = 0; b < count; ++b) {
    flips |= std::uint64_t{(rng.next_u64() >> 11) < threshold} << b;
  }
  return flips;
}

}  // namespace

BernoulliBits::BernoulliBits(std::uint32_t n)
    : n_(n),
      lane_words_(static_cast<std::uint32_t>(
          ((std::uint64_t{n} + 63) / 64 + kLanes - 1) / kLanes)),
      lane_jump_(Rng::jump_of(std::uint64_t{64} * lane_words_)) {}

bool BernoulliBits::lanes_supported() {
#if defined(SACHA_HAVE_AVX2)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

void BernoulliBits::xor_into(Rng& rng, double p,
                             std::span<std::uint64_t> bits) const {
  if (p <= 0.0) return;
  if (p >= 1.0) {
    for (std::uint32_t k = 0; k < n_ / 64; ++k) bits[k] = ~bits[k];
    if (n_ % 64 != 0) bits[n_ / 64] ^= (std::uint64_t{1} << (n_ % 64)) - 1;
    return;
  }
  // Until every lane has a whole word the kernel has nothing to run.
  if (lanes_supported() && n_ / 64 > (kLanes - 1) * lane_words_) {
    xor_lanes(rng, p, bits);
  } else {
    xor_serial(rng, p, bits);
  }
}

void BernoulliBits::xor_serial(Rng& rng, double p,
                               std::span<std::uint64_t> bits) const {
  const std::uint64_t threshold = threshold_of(p);
  // Draw through a local copy, so the generator's state can stay in
  // registers across the loop; hand the advanced state back at the end.
  Rng local = rng;
  for (std::uint32_t k = 0; k < n_ / 64; ++k) {
    bits[k] ^= draw_word(local, threshold, 64);
  }
  if (n_ % 64 != 0) bits[n_ / 64] ^= draw_word(local, threshold, n_ % 64);
  rng = local;
}

void BernoulliBits::xor_lanes(Rng& rng, double p,
                              std::span<std::uint64_t> bits) const {
  assert(lanes_supported());
  if (n_ == 0) return;
  assert(bits.size() >= (std::size_t{n_} + 63) / 64);
  const std::uint64_t threshold = threshold_of(p);
  const std::uint32_t whole = n_ / 64;  // words all of whose draws count
  // The lanes that hold a draw. The last of them ends at draw n and hands
  // its state back; a lane past it is empty and never runs.
  const std::uint32_t used = (n_ - 1) / (64 * lane_words_) + 1;
  std::uint64_t state[4][kLanes] = {};
  Rng lane = rng;
  for (std::uint32_t j = 0; j < used; ++j) {
    if (j > 0) lane.advance(lane_jump_);
    for (std::size_t c = 0; c < 4; ++c) state[c][j] = lane.s_[c];
  }
  // The whole words every lane has (the last lane has the fewest) run in
  // the kernel; each lane's other words run here from its own state.
  const std::uint32_t last_first = (kLanes - 1) * lane_words_;
  const std::uint32_t common = whole > last_first ? whole - last_first : 0;
#if defined(SACHA_HAVE_AVX2)
  if (common > 0) {
    detail::bernoulli_lanes_avx2(state, bits.data(), lane_words_, common,
                                 threshold);
  }
#endif
  for (std::uint32_t j = 0; j < used; ++j) {
    for (std::size_t c = 0; c < 4; ++c) lane.s_[c] = state[c][j];
    const std::uint32_t end = std::min((j + 1) * lane_words_, whole);
    for (std::uint32_t k = j * lane_words_ + common; k < end; ++k) {
      bits[k] ^= draw_word(lane, threshold, 64);
    }
  }
  // The partial last word ends the last lane.
  if (n_ % 64 != 0) bits[whole] ^= draw_word(lane, threshold, n_ % 64);
  rng = lane;
}

}  // namespace sacha
