// Deterministic pseudo-random source for simulations and tests.
//
// Everything stochastic in the repository (PUF cell noise, network jitter,
// adversary choices, verifier readback permutations in tests) draws from this
// xoshiro256** generator so that every experiment is reproducible from a
// seed. Cryptographic randomness (nonces, keys) instead goes through
// crypto::Prg, which is deterministic-from-seed as well but domain-separated
// and AES-based.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace sacha {

/// One stateless splitmix64 step: mixes `x` through the full avalanche
/// finalizer. Use this (not addition) to derive independent sub-seeds —
/// `seed + index` schemes collide across adjacent base seeds, splitmix64
/// output does not.
std::uint64_t splitmix64_mix(std::uint64_t x);

/// Derives an independent seed from a base seed and a string label (e.g. a
/// fleet member id): FNV-1a over the label, then splitmix64-mixed with the
/// base seed. Adjacent base seeds and similar labels land far apart.
std::uint64_t derive_seed(std::uint64_t seed, std::string_view label,
                          std::uint64_t lane = 0);

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound); bound must be > 0. Uses rejection sampling so the
  /// distribution is exactly uniform.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with probability p (clamped to [0,1]). Draws nothing
  /// when p <= 0 or p >= 1, exactly one next_u64() otherwise.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Uniform double in [0, 1): the top 53 bits of one next_u64().
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  Bytes bytes(std::size_t n);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// A random permutation of [0, n).
  std::vector<std::uint32_t> permutation(std::uint32_t n);

 private:
  std::uint64_t s_[4];
};

}  // namespace sacha
