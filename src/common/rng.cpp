#include "common/rng.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace sacha {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

using Poly = std::array<std::uint64_t, 4>;  // GF(2) coefficients of x^0..x^255

// The characteristic polynomial of xoshiro256's linear engine,
// x^256 + sum of the set bits' x^i, found by Berlekamp-Massey over 512
// state bits (common_test derives it again). Squaring x 128 times modulo it
// gives xoshiro256's published jump() constant.
constexpr Poly kCharPoly = {0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
                            0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

/// a * x mod kCharPoly.
Poly times_x(Poly a) {
  const std::uint64_t reduce = 0 - (a[3] >> 63);
  for (std::size_t w = 3; w > 0; --w) a[w] = (a[w] << 1) | (a[w - 1] >> 63);
  a[0] <<= 1;
  for (std::size_t w = 0; w < 4; ++w) a[w] ^= kCharPoly[w] & reduce;
  return a;
}

/// a * b mod kCharPoly, bit-serially from b's top coefficient (Horner).
Poly times(const Poly& a, const Poly& b) {
  Poly r{};
  for (int i = 255; i >= 0; --i) {
    r = times_x(r);
    const std::uint64_t take = 0 - ((b[i / 64] >> (i % 64)) & 1);
    for (std::size_t w = 0; w < 4; ++w) r[w] ^= a[w] & take;
  }
  return r;
}
}  // namespace

std::uint64_t splitmix64_mix(std::uint64_t x) {
  return splitmix64(x);  // the stateful step: advances and finalizes
}

std::uint64_t derive_seed(std::uint64_t seed, std::string_view label,
                          std::uint64_t lane) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64 over the label
  for (char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  std::uint64_t x = seed ^ splitmix64(h);
  x ^= splitmix64(lane);
  return splitmix64(x);
}

Rng::Rng(std::uint64_t seed) {
  for (auto& s : s_) s = splitmix64(seed);
}

std::uint64_t Rng::below(std::uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling: draw until the value falls in the largest multiple
  // of `bound` representable in 64 bits.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % bound;
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return lo + static_cast<std::int64_t>(below(span));
}

Bytes Rng::bytes(std::size_t n) {
  Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    std::uint64_t v = next_u64();
    for (int i = 0; i < 8 && out.size() < n; ++i) {
      out.push_back(static_cast<std::uint8_t>(v));
      v >>= 8;
    }
  }
  return out;
}

std::vector<std::uint32_t> Rng::permutation(std::uint32_t n) {
  std::vector<std::uint32_t> v(n);
  std::iota(v.begin(), v.end(), 0u);
  shuffle(v);
  return v;
}

Rng::Jump Rng::jump_of(std::uint64_t steps) {
  // x^steps by square-and-multiply over the bits of steps, top first.
  Poly r = {1, 0, 0, 0};
  for (int bit = std::bit_width(steps) - 1; bit >= 0; --bit) {
    r = times(r, r);
    if ((steps >> bit) & 1) r = times_x(r);
  }
  return Jump{r};
}

void Rng::advance(const Jump& jump) {
  // The state after k draws is T^k s for the engine's matrix T, and
  // T^steps = sum of c_i T^i over jump's coefficients c_i (Cayley-Hamilton).
  std::uint64_t t[4] = {};
  for (std::uint64_t word : jump.poly) {
    for (int b = 0; b < 64; ++b) {
      const std::uint64_t take = 0 - ((word >> b) & 1);
      for (std::size_t i = 0; i < 4; ++i) t[i] ^= s_[i] & take;
      next_u64();
    }
  }
  std::copy(t, t + 4, s_);
}

}  // namespace sacha
