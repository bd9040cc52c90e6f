// AVX2 kernel of BernoulliBits: eight xoshiro256** lanes in two ymm groups
// of four. Built with -mavx2 and entered only after
// __builtin_cpu_supports("avx2"); it includes none of the project's headers,
// so none of their inline functions is compiled here with AVX2 for the
// linker to pick. xoshiro256** needs only shifts, adds and xors (s * 5 is
// s + (s << 2), r * 9 is r + (r << 3)), and since u >> 11 and the threshold
// are below 2^53, AVX2's signed compare is exact.
#if defined(SACHA_HAVE_AVX2)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace sacha::detail {

namespace {

template <int K>
inline __m256i rotl(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, K), _mm256_srli_epi64(x, 64 - K));
}

/// One draw in each of four lanes, whose state words are s[0..3]. Its flip
/// enters `flips` at the top, so after 64 draws draw b sits in bit b.
inline void draw(__m256i* s, __m256i threshold, __m256i& flips) {
  const __m256i r = rotl<7>(_mm256_add_epi64(s[1], _mm256_slli_epi64(s[1], 2)));
  const __m256i u = _mm256_add_epi64(r, _mm256_slli_epi64(r, 3));
  const __m256i hit = _mm256_cmpgt_epi64(threshold, _mm256_srli_epi64(u, 11));
  flips = _mm256_or_si256(_mm256_srli_epi64(flips, 1), _mm256_slli_epi64(hit, 63));
  const __m256i t = _mm256_slli_epi64(s[1], 17);
  s[2] = _mm256_xor_si256(s[2], s[0]);
  s[3] = _mm256_xor_si256(s[3], s[1]);
  s[1] = _mm256_xor_si256(s[1], s[2]);
  s[0] = _mm256_xor_si256(s[0], s[3]);
  s[2] = _mm256_xor_si256(s[2], t);
  s[3] = rotl<45>(s[3]);
}

}  // namespace

void bernoulli_lanes_avx2(std::uint64_t (*state)[8], std::uint64_t* bits,
                          std::size_t stride, std::size_t words,
                          std::uint64_t threshold) {
  const __m256i limit = _mm256_set1_epi64x(static_cast<long long>(threshold));
  __m256i lo[4];  // lanes 0-3
  __m256i hi[4];  // lanes 4-7
  for (int c = 0; c < 4; ++c) {
    lo[c] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[c]));
    hi[c] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[c] + 4));
  }
  for (std::size_t k = 0; k < words; ++k) {
    __m256i lo_flips = _mm256_setzero_si256();
    __m256i hi_flips = _mm256_setzero_si256();
    for (int b = 0; b < 64; ++b) {
      draw(lo, limit, lo_flips);
      draw(hi, limit, hi_flips);
    }
    alignas(32) std::uint64_t flips[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(flips), lo_flips);
    _mm256_store_si256(reinterpret_cast<__m256i*>(flips + 4), hi_flips);
    for (std::size_t j = 0; j < 8; ++j) bits[j * stride + k] ^= flips[j];
  }
  for (int c = 0; c < 4; ++c) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[c]), lo[c]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[c] + 4), hi[c]);
  }
}

}  // namespace sacha::detail

#endif  // SACHA_HAVE_AVX2
