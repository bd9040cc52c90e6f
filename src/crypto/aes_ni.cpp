// AES-NI tier of the Aes128 engine.
//
// Compiled as a separate translation unit with -maes so the rest of the
// library stays free of ISA-specific codegen; the dispatcher in aes.cpp
// only routes here after __builtin_cpu_supports("aes") says the
// instructions exist. The expanded key arrives in FIPS-197 byte order,
// which is exactly the layout AESENC consumes, so the round keys are
// plain unaligned loads.
#include "crypto/aes.hpp"

#if defined(SACHA_HAVE_AESNI)
#include <tmmintrin.h>  // PSHUFB (SSSE3) for the word-stream byte swap
#include <wmmintrin.h>
#endif

#include <cassert>

namespace sacha::crypto::detail {

#if defined(SACHA_HAVE_AESNI)

namespace {

struct RoundKeys {
  __m128i k[11];
};

inline RoundKeys load_keys(const std::uint8_t* round_keys) {
  RoundKeys rk;
  for (int i = 0; i < 11; ++i) {
    rk.k[i] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(round_keys + 16 * i));
  }
  return rk;
}

inline __m128i encrypt(const RoundKeys& rk, __m128i b) {
  b = _mm_xor_si128(b, rk.k[0]);
  for (int r = 1; r <= 9; ++r) b = _mm_aesenc_si128(b, rk.k[r]);
  return _mm_aesenclast_si128(b, rk.k[10]);
}

}  // namespace

void aesni_encrypt_block(const std::uint8_t* round_keys, std::uint8_t* block) {
  const RoundKeys rk = load_keys(round_keys);
  const __m128i in = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(block), encrypt(rk, in));
}

void aesni_cbc_mac(const std::uint8_t* round_keys, std::uint8_t* state,
                   const std::uint8_t* data, std::size_t nblocks) {
  const RoundKeys rk = load_keys(round_keys);
  __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  for (std::size_t b = 0; b < nblocks; ++b, data += 16) {
    const __m128i m = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data));
    s = encrypt(rk, _mm_xor_si128(s, m));
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), s);
}

void aesni_cbc_mac_words(const std::uint8_t* round_keys, std::uint8_t* state,
                         const std::uint32_t* words, std::size_t nblocks) {
  const RoundKeys rk = load_keys(round_keys);
  // Per-word byte swap: the block is the big-endian serialization of four
  // little-endian host words. PSHUFB executes off the AESENC dependency
  // chain, so the swap is free relative to the serial round latency.
  const __m128i bswap =
      _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  for (std::size_t b = 0; b < nblocks; ++b, words += 4) {
    __m128i m = _mm_loadu_si128(reinterpret_cast<const __m128i*>(words));
    m = _mm_shuffle_epi8(m, bswap);
    s = encrypt(rk, _mm_xor_si128(s, m));
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), s);
}

#else  // !SACHA_HAVE_AESNI

// Link-time stubs for builds without the tier; the dispatcher never routes
// here because aesni_supported() is false.
void aesni_encrypt_block(const std::uint8_t*, std::uint8_t*) {
  assert(false && "AES-NI tier not compiled in");
}

void aesni_cbc_mac(const std::uint8_t*, std::uint8_t*, const std::uint8_t*,
                   std::size_t) {
  assert(false && "AES-NI tier not compiled in");
}

void aesni_cbc_mac_words(const std::uint8_t*, std::uint8_t*,
                         const std::uint32_t*, std::size_t) {
  assert(false && "AES-NI tier not compiled in");
}

#endif

}  // namespace sacha::crypto::detail
