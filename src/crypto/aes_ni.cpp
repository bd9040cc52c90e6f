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

/// The big-endian serialization of the four words at `words`, then moved
/// past. PSHUFB runs off the AESENC dependency chain, so the swap is free.
inline __m128i next_words(const std::uint32_t*& words) {
  const __m128i bswap =
      _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  const __m128i m = _mm_shuffle_epi8(load_block(words), bswap);
  words += 4;
  return m;
}

/// CBC-MAC chains of `N` lanes, lane l under round keys `rk[l]`: from the
/// chaining value at `state[l]` over `first[l]` and then `rest` more
/// blocks, each produced by `next_block(l)`, and back into `state[l]`. The
/// lanes' rounds interleave, so a second chain runs in the latency shadow
/// of the first and two cost about as much as one.
///
/// Round keys 0 and 10 are folded into the next block's XOR. The last
/// round of block b outputs S_b ^ k10, and block b+1 enters round 1 as
/// S_b ^ m_{b+1} ^ k0. AESENCLAST adds its key operand last, so handing it
/// k10 ^ k0 ^ m_{b+1}, computed off the chain, gives the next block its
/// round-1 input directly: only the ten AES rounds sit on the chain.
template <int N, typename NextBlock>
inline void cbc_chain(const RoundKeys (&rk)[N], std::uint8_t* const* state,
                      const __m128i (&first)[N], std::size_t rest,
                      NextBlock next_block) {
  __m128i k0k10[N], x[N], next[N];
  const auto rounds_1_to_9 = [&] {
    for (int r = 1; r <= 9; ++r) {
      for (int l = 0; l < N; ++l) x[l] = _mm_aesenc_si128(x[l], rk[l].k[r]);
    }
  };
  for (int l = 0; l < N; ++l) {
    k0k10[l] = _mm_xor_si128(rk[l].k[0], rk[l].k[10]);
    x[l] = _mm_xor_si128(load_block(state[l]),
                         _mm_xor_si128(first[l], rk[l].k[0]));
  }
  for (; rest > 0; --rest) {
    for (int l = 0; l < N; ++l) {
      next[l] = _mm_xor_si128(next_block(l), k0k10[l]);
    }
    rounds_1_to_9();
    for (int l = 0; l < N; ++l) x[l] = _mm_aesenclast_si128(x[l], next[l]);
  }
  rounds_1_to_9();
  for (int l = 0; l < N; ++l) {
    const __m128i s = _mm_aesenclast_si128(x[l], rk[l].k[10]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state[l]), s);
  }
}

/// aesni_cbc_mac_words for `N` lanes.
template <int N>
void cbc_chain_words(const std::uint8_t* const* round_keys,
                     std::uint8_t* const* state,
                     const std::uint8_t* const* head,
                     const std::uint32_t** words, std::size_t nblocks) {
  const bool has_head = head[0] != nullptr;
  if (!has_head && nblocks == 0) return;
  RoundKeys rk[N];
  __m128i first[N];
  for (int l = 0; l < N; ++l) {
    rk[l] = load_keys(round_keys[l]);
    // A staged head block is already big-endian bytes.
    first[l] = has_head ? load_block(head[l]) : next_words(words[l]);
  }
  cbc_chain(rk, state, first, has_head ? nblocks : nblocks - 1,
            [&](int l) { return next_words(words[l]); });
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
  const RoundKeys rk[1] = {load_keys(round_keys)};
  cbc_chain(rk, &state, {load_block(data)}, nblocks - 1, [&](int) {
    data += 16;
    return load_block(data);
  });
}

void aesni_cbc_mac_words(std::size_t lanes,
                         const std::uint8_t* const* round_keys,
                         std::uint8_t* const* state,
                         const std::uint8_t* const* head,
                         const std::uint32_t** words, std::size_t nblocks) {
  if (lanes == 1) {
    cbc_chain_words<1>(round_keys, state, head, words, nblocks);
  } else {
    cbc_chain_words<2>(round_keys, state, head, words, nblocks);
  }
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

void aesni_cbc_mac_words(std::size_t, const std::uint8_t* const*,
                         std::uint8_t* const*, const std::uint8_t* const*,
                         const std::uint32_t**, std::size_t) {
  assert(false && "AES-NI tier not compiled in");
}

#endif

}  // namespace sacha::crypto::detail
