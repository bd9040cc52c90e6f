// Many Bernoulli draws of one Rng, packed one bit per draw: the device
// model's register churn (~1.47 M flip-flop positions on the XC6VLX240T).
// Draw i is the i-th next_u64() and lands in bit i, whatever order the
// draws are computed in. Eight lanes compute them: lane j starts at draw
// j·L through an Rng::Jump kept per n, owns bits [j·L, (j+1)·L), and runs
// its words in common with the other lanes in one AVX2 kernel. Without
// AVX2 the serial loop runs, which also stays as the lanes' oracle.
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.hpp"

namespace sacha {

class BernoulliBits {
 public:
  static constexpr std::uint32_t kLanes = 8;

  /// Draws for n bits; precomputes the lanes' jump (tens of microseconds).
  explicit BernoulliBits(std::uint32_t n);

  /// Bit i of `bits` (at least ceil(n / 64) words) XORs in rng.chance(p) of
  /// the i-th of n chance() calls, and `rng` ends where they would leave it:
  /// nothing is drawn when p <= 0 (no bit flips) or p >= 1 (every bit
  /// flips), and a NaN p draws n times and flips nothing.
  void xor_into(Rng& rng, double p, std::span<std::uint64_t> bits) const;

  /// The two ways xor_into draws when 0 < p < 1 or p is NaN, for tests: the
  /// serial loop, and the lanes, which require lanes_supported().
  void xor_serial(Rng& rng, double p, std::span<std::uint64_t> bits) const;
  void xor_lanes(Rng& rng, double p, std::span<std::uint64_t> bits) const;

  /// Whether the AVX2 kernel is compiled in and the CPU runs it.
  static bool lanes_supported();

 private:
  std::uint32_t n_;
  std::uint32_t lane_words_;  // ceil(ceil(n / 64) / kLanes)
  Rng::Jump lane_jump_;       // 64 · lane_words_ draws
};

}  // namespace sacha
