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

inline __m128i load_block(const void* p) {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}

/// CBC-MAC chain from `state` over `first` and then `rest` more blocks,
/// each produced by `next_block()`; returns the final chaining value.
///
/// Round keys 0 and 10 are folded into the next block's XOR. The last
/// round of block b outputs S_b ^ k10, and block b+1 enters round 1 as
/// S_b ^ m_{b+1} ^ k0. AESENCLAST adds its key operand last, so handing it
/// k10 ^ k0 ^ m_{b+1}, computed off the chain, gives the next block its
/// round-1 input directly: only the ten AES rounds sit on the chain.
template <typename NextBlock>
inline __m128i cbc_chain(const RoundKeys& rk, __m128i state, __m128i first,
                         std::size_t rest, NextBlock next_block) {
  const __m128i k0k10 = _mm_xor_si128(rk.k[0], rk.k[10]);
  __m128i x = _mm_xor_si128(state, _mm_xor_si128(first, rk.k[0]));
  for (; rest > 0; --rest) {
    const __m128i next = _mm_xor_si128(next_block(), k0k10);
    for (int r = 1; r <= 9; ++r) x = _mm_aesenc_si128(x, rk.k[r]);
    x = _mm_aesenclast_si128(x, next);
  }
  for (int r = 1; r <= 9; ++r) x = _mm_aesenc_si128(x, rk.k[r]);
  return _mm_aesenclast_si128(x, rk.k[10]);
}

}  // namespace

void aesni_encrypt_block(const std::uint8_t* round_keys, std::uint8_t* block) {
  const RoundKeys rk = load_keys(round_keys);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(block),
                   encrypt(rk, load_block(block)));
}

void aesni_cbc_mac(const std::uint8_t* round_keys, std::uint8_t* state,
                   const std::uint8_t* data, std::size_t nblocks) {
  if (nblocks == 0) return;
  const RoundKeys rk = load_keys(round_keys);
  const __m128i first = load_block(data);
  const __m128i s = cbc_chain(rk, load_block(state), first, nblocks - 1, [&] {
    data += 16;
    return load_block(data);
  });
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), s);
}

void aesni_cbc_mac_words(const std::uint8_t* round_keys, std::uint8_t* state,
                         const std::uint8_t* head, const std::uint32_t* words,
                         std::size_t nblocks) {
  if (head == nullptr && nblocks == 0) return;
  const RoundKeys rk = load_keys(round_keys);
  // Per-word byte swap: the block is the big-endian serialization of four
  // little-endian host words. PSHUFB executes off the AESENC dependency
  // chain, so the swap is free relative to the serial round latency.
  const __m128i bswap =
      _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  const auto next_words = [&] {
    const __m128i m = _mm_shuffle_epi8(load_block(words), bswap);
    words += 4;
    return m;
  };
  // A staged head block is already big-endian bytes.
  const __m128i first = head != nullptr ? load_block(head) : next_words();
  const std::size_t rest = head != nullptr ? nblocks : nblocks - 1;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   cbc_chain(rk, load_block(state), first, rest, next_words));
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
                         const std::uint8_t*, const std::uint32_t*,
                         std::size_t) {
  assert(false && "AES-NI tier not compiled in");
}

#endif

}  // namespace sacha::crypto::detail
