// Wide masked golden-compare.
//
// The streaming verifier's second hot loop (next to the CMAC fold): per
// readback frame, check that the received words agree with the golden words
// on every mask=1 bit, i.e. ((received ^ golden) & mask) == 0. The scalar
// OR-reduction is already branch-free; this header lifts it to wide loads —
// four words per SSE2 step (eight with AVX2 when the build opts in via
// -mavx2/-march=native) — so the compare costs a fraction of the AES fold it
// rides beside instead of a comparable number of scalar ops. SACHA_PORTABLE
// (the CI scalar-tier build) compiles the plain loop, which is also the
// cross-check oracle.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__SSE2__) && !defined(SACHA_PORTABLE)
#define SACHA_MASKED_COMPARE_SIMD 1
#if defined(__AVX2__)
#include <immintrin.h>
#else
#include <emmintrin.h>
#endif
#endif

namespace sacha::bitstream {

/// The scalar definition: true iff ((received[i] ^ golden[i]) & mask[i]) == 0
/// for all i < n. OR-accumulates the difference instead of early-exiting:
/// frames are short (tens of words) and almost always match.
inline bool masked_words_equal_scalar(const std::uint32_t* received,
                                      const std::uint32_t* golden,
                                      const std::uint32_t* mask,
                                      std::size_t n) {
  std::uint32_t diff = 0;
  for (std::size_t i = 0; i < n; ++i) {
    diff |= (received[i] ^ golden[i]) & mask[i];
  }
  return diff == 0;
}

/// The same predicate, wide where the build allows.
inline bool masked_words_equal(const std::uint32_t* received,
                               const std::uint32_t* golden,
                               const std::uint32_t* mask, std::size_t n) {
#if defined(SACHA_MASKED_COMPARE_SIMD)
  std::size_t i = 0;
#if defined(__AVX2__)
  __m256i wide = _mm256_setzero_si256();
  for (; i + 8 <= n; i += 8) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(received + i));
    const __m256i g =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(golden + i));
    const __m256i m =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    wide = _mm256_or_si256(wide, _mm256_and_si256(_mm256_xor_si256(r, g), m));
  }
  __m128i acc = _mm_or_si128(_mm256_castsi256_si128(wide),
                             _mm256_extracti128_si256(wide, 1));
#else
  __m128i acc = _mm_setzero_si128();
#endif
  for (; i + 4 <= n; i += 4) {
    const __m128i r =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(received + i));
    const __m128i g =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(golden + i));
    const __m128i m =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(mask + i));
    acc = _mm_or_si128(acc, _mm_and_si128(_mm_xor_si128(r, g), m));
  }
  // All-zero accumulator ⇔ every byte compares equal to zero; the scalar
  // loop takes the tail.
  return _mm_movemask_epi8(_mm_cmpeq_epi8(acc, _mm_setzero_si128())) ==
             0xFFFF &&
         masked_words_equal_scalar(received + i, golden + i, mask + i, n - i);
#else
  return masked_words_equal_scalar(received, golden, mask, n);
#endif
}

}  // namespace sacha::bitstream
