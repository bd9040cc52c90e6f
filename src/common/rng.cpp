#include "common/rng.hpp"

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

}  // namespace sacha
