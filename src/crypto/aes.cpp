#include "crypto/aes.hpp"

#include <cassert>
#include <cstdlib>
#include <string_view>

namespace sacha::crypto {

namespace {

/// Optional runtime tier override: SACHA_AES_TIER=reference|ttable|aesni
/// re-routes kAuto resolution. CI uses it to exercise the scalar CBC-MAC
/// tiers on AES-NI hosts without a rebuild; explicit per-engine tier
/// requests still win over the environment.
AesImpl env_tier() {
  static const AesImpl tier = [] {
    const char* v = std::getenv("SACHA_AES_TIER");
    if (v == nullptr) return AesImpl::kAuto;
    const std::string_view s(v);
    if (s == "reference") return AesImpl::kReference;
    if (s == "ttable") return AesImpl::kTtable;
    if (s == "aesni") return AesImpl::kAesni;
    return AesImpl::kAuto;
  }();
  return tier;
}

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

// T-tables: Te0[x] is the MixColumns-weighted column contributed by S-box
// output S = kSbox[x] when it sits in row 0 of a column; Te1..Te3 are the
// same word rotated for rows 1..3. One table lookup fuses SubBytes,
// ShiftRows (via the byte the caller indexes with) and MixColumns.
struct Ttables {
  std::uint32_t te0[256];
  std::uint32_t te1[256];
  std::uint32_t te2[256];
  std::uint32_t te3[256];
};

constexpr Ttables make_ttables() {
  Ttables t{};
  for (int i = 0; i < 256; ++i) {
    const std::uint8_t s = kSbox[i];
    const std::uint8_t s2 = xtime(s);
    const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
    const std::uint32_t w = (static_cast<std::uint32_t>(s2) << 24) |
                            (static_cast<std::uint32_t>(s) << 16) |
                            (static_cast<std::uint32_t>(s) << 8) |
                            static_cast<std::uint32_t>(s3);
    t.te0[i] = w;
    t.te1[i] = (w >> 8) | (w << 24);
    t.te2[i] = (w >> 16) | (w << 16);
    t.te3[i] = (w >> 24) | (w << 8);
  }
  return t;
}

constexpr Ttables kTe = make_ttables();

}  // namespace

const char* to_string(AesImpl impl) {
  switch (impl) {
    case AesImpl::kAuto: return "auto";
    case AesImpl::kReference: return "reference";
    case AesImpl::kTtable: return "ttable";
    case AesImpl::kAesni: return "aesni";
  }
  return "?";
}

bool Aes128::aesni_supported() {
#if defined(SACHA_HAVE_AESNI)
  // The tier is compiled in; still require the CPU to report AES support.
  return __builtin_cpu_supports("aes") != 0;
#else
  return false;
#endif
}

AesImpl Aes128::resolve(AesImpl requested) {
  if (requested == AesImpl::kAuto) requested = env_tier();
  if (requested == AesImpl::kAuto) {
    return aesni_supported() ? AesImpl::kAesni : AesImpl::kTtable;
  }
  if (requested == AesImpl::kAesni && !aesni_supported()) {
    return AesImpl::kTtable;  // graceful degrade on hosts without AES-NI
  }
  return requested;
}

Aes128::Aes128(const AesKey& key, AesImpl impl) : impl_(resolve(impl)) {
  // Key expansion (FIPS-197 §5.2), Nk=4, Nr=10.
  for (std::size_t i = 0; i < 16; ++i) round_keys_[i] = key[i];
  for (std::size_t i = 4; i < 44; ++i) {
    std::uint8_t t[4] = {round_keys_[4 * (i - 1) + 0], round_keys_[4 * (i - 1) + 1],
                         round_keys_[4 * (i - 1) + 2], round_keys_[4 * (i - 1) + 3]};
    if (i % 4 == 0) {
      const std::uint8_t tmp = t[0];
      t[0] = static_cast<std::uint8_t>(kSbox[t[1]] ^ kRcon[i / 4 - 1]);
      t[1] = kSbox[t[2]];
      t[2] = kSbox[t[3]];
      t[3] = kSbox[tmp];
    }
    for (std::size_t j = 0; j < 4; ++j) {
      round_keys_[4 * i + j] = round_keys_[4 * (i - 4) + j] ^ t[j];
    }
  }
  for (std::size_t i = 0; i < 44; ++i) {
    round_words_[i] = (static_cast<std::uint32_t>(round_keys_[4 * i]) << 24) |
                      (static_cast<std::uint32_t>(round_keys_[4 * i + 1]) << 16) |
                      (static_cast<std::uint32_t>(round_keys_[4 * i + 2]) << 8) |
                      static_cast<std::uint32_t>(round_keys_[4 * i + 3]);
  }
}

void Aes128::encrypt_block_reference(AesBlock& s) const {
  auto add_round_key = [&](int round) {
    for (std::size_t i = 0; i < 16; ++i) {
      s[i] ^= round_keys_[static_cast<std::size_t>(round) * 16 + i];
    }
  };
  auto sub_bytes = [&] {
    for (auto& b : s) b = kSbox[b];
  };
  auto shift_rows = [&] {
    // State is column-major: s[4c + r].
    std::uint8_t t;
    t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;          // row 1 <<1
    t = s[2]; s[2] = s[10]; s[10] = t; t = s[6]; s[6] = s[14]; s[14] = t;  // row 2 <<2
    t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;         // row 3 <<3
  };
  auto mix_columns = [&] {
    for (std::size_t c = 0; c < 4; ++c) {
      std::uint8_t* col = &s[4 * c];
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      const std::uint8_t all = a0 ^ a1 ^ a2 ^ a3;
      col[0] = static_cast<std::uint8_t>(a0 ^ all ^ xtime(static_cast<std::uint8_t>(a0 ^ a1)));
      col[1] = static_cast<std::uint8_t>(a1 ^ all ^ xtime(static_cast<std::uint8_t>(a1 ^ a2)));
      col[2] = static_cast<std::uint8_t>(a2 ^ all ^ xtime(static_cast<std::uint8_t>(a2 ^ a3)));
      col[3] = static_cast<std::uint8_t>(a3 ^ all ^ xtime(static_cast<std::uint8_t>(a3 ^ a0)));
    }
  };

  add_round_key(0);
  for (int round = 1; round <= 9; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(10);
}

namespace {

// One full T-table encryption over big-endian column words c0..c3.
inline void ttable_rounds(const std::uint32_t* rk, std::uint32_t& c0,
                          std::uint32_t& c1, std::uint32_t& c2,
                          std::uint32_t& c3) {
  std::uint32_t s0 = c0 ^ rk[0];
  std::uint32_t s1 = c1 ^ rk[1];
  std::uint32_t s2 = c2 ^ rk[2];
  std::uint32_t s3 = c3 ^ rk[3];
  for (int round = 1; round <= 9; ++round) {
    const std::uint32_t* k = rk + 4 * round;
    const std::uint32_t t0 = kTe.te0[s0 >> 24] ^ kTe.te1[(s1 >> 16) & 0xff] ^
                             kTe.te2[(s2 >> 8) & 0xff] ^ kTe.te3[s3 & 0xff] ^ k[0];
    const std::uint32_t t1 = kTe.te0[s1 >> 24] ^ kTe.te1[(s2 >> 16) & 0xff] ^
                             kTe.te2[(s3 >> 8) & 0xff] ^ kTe.te3[s0 & 0xff] ^ k[1];
    const std::uint32_t t2 = kTe.te0[s2 >> 24] ^ kTe.te1[(s3 >> 16) & 0xff] ^
                             kTe.te2[(s0 >> 8) & 0xff] ^ kTe.te3[s1 & 0xff] ^ k[2];
    const std::uint32_t t3 = kTe.te0[s3 >> 24] ^ kTe.te1[(s0 >> 16) & 0xff] ^
                             kTe.te2[(s1 >> 8) & 0xff] ^ kTe.te3[s2 & 0xff] ^ k[3];
    s0 = t0; s1 = t1; s2 = t2; s3 = t3;
  }
  // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
  const std::uint32_t* k = rk + 40;
  c0 = ((static_cast<std::uint32_t>(kSbox[s0 >> 24]) << 24) |
        (static_cast<std::uint32_t>(kSbox[(s1 >> 16) & 0xff]) << 16) |
        (static_cast<std::uint32_t>(kSbox[(s2 >> 8) & 0xff]) << 8) |
        static_cast<std::uint32_t>(kSbox[s3 & 0xff])) ^ k[0];
  c1 = ((static_cast<std::uint32_t>(kSbox[s1 >> 24]) << 24) |
        (static_cast<std::uint32_t>(kSbox[(s2 >> 16) & 0xff]) << 16) |
        (static_cast<std::uint32_t>(kSbox[(s3 >> 8) & 0xff]) << 8) |
        static_cast<std::uint32_t>(kSbox[s0 & 0xff])) ^ k[1];
  c2 = ((static_cast<std::uint32_t>(kSbox[s2 >> 24]) << 24) |
        (static_cast<std::uint32_t>(kSbox[(s3 >> 16) & 0xff]) << 16) |
        (static_cast<std::uint32_t>(kSbox[(s0 >> 8) & 0xff]) << 8) |
        static_cast<std::uint32_t>(kSbox[s1 & 0xff])) ^ k[2];
  c3 = ((static_cast<std::uint32_t>(kSbox[s3 >> 24]) << 24) |
        (static_cast<std::uint32_t>(kSbox[(s0 >> 16) & 0xff]) << 16) |
        (static_cast<std::uint32_t>(kSbox[(s1 >> 8) & 0xff]) << 8) |
        static_cast<std::uint32_t>(kSbox[s2 & 0xff])) ^ k[3];
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

void Aes128::encrypt_block_ttable(AesBlock& block) const {
  std::uint32_t c0 = load_be32(&block[0]);
  std::uint32_t c1 = load_be32(&block[4]);
  std::uint32_t c2 = load_be32(&block[8]);
  std::uint32_t c3 = load_be32(&block[12]);
  ttable_rounds(round_words_.data(), c0, c1, c2, c3);
  store_be32(&block[0], c0);
  store_be32(&block[4], c1);
  store_be32(&block[8], c2);
  store_be32(&block[12], c3);
}

void Aes128::encrypt_block(AesBlock& block) const {
  switch (impl_) {
    case AesImpl::kReference: encrypt_block_reference(block); return;
    case AesImpl::kAesni:
      detail::aesni_encrypt_block(round_keys_.data(), block.data());
      return;
    case AesImpl::kTtable:
    case AesImpl::kAuto: encrypt_block_ttable(block); return;
  }
}

AesBlock Aes128::encrypt(const AesBlock& in) const {
  AesBlock out = in;
  encrypt_block(out);
  return out;
}

void Aes128::cbc_mac_absorb(AesBlock& state, const std::uint8_t* data,
                            std::size_t nblocks) const {
  if (nblocks == 0) return;
  switch (impl_) {
    case AesImpl::kAesni:
      detail::aesni_cbc_mac(round_keys_.data(), state.data(), data, nblocks);
      return;
    case AesImpl::kTtable:
    case AesImpl::kAuto: {
      // Keep the chaining value in registers across the whole run.
      std::uint32_t c0 = load_be32(&state[0]);
      std::uint32_t c1 = load_be32(&state[4]);
      std::uint32_t c2 = load_be32(&state[8]);
      std::uint32_t c3 = load_be32(&state[12]);
      for (std::size_t b = 0; b < nblocks; ++b, data += kAesBlockSize) {
        c0 ^= load_be32(data);
        c1 ^= load_be32(data + 4);
        c2 ^= load_be32(data + 8);
        c3 ^= load_be32(data + 12);
        ttable_rounds(round_words_.data(), c0, c1, c2, c3);
      }
      store_be32(&state[0], c0);
      store_be32(&state[4], c1);
      store_be32(&state[8], c2);
      store_be32(&state[12], c3);
      return;
    }
    case AesImpl::kReference:
      for (std::size_t b = 0; b < nblocks; ++b, data += kAesBlockSize) {
        for (std::size_t i = 0; i < kAesBlockSize; ++i) state[i] ^= data[i];
        encrypt_block_reference(state);
      }
      return;
  }
}

void Aes128::cbc_mac_absorb_words(AesBlock& state, const std::uint8_t* head,
                                  const std::uint32_t* words,
                                  std::size_t nblocks) const {
  if (head == nullptr && nblocks == 0) return;
  if (impl_ == AesImpl::kAesni) {
    const std::uint8_t* keys = round_keys_.data();
    std::uint8_t* s = state.data();
    detail::aesni_cbc_mac_words(1, &keys, &s, &head, &words, nblocks);
    return;
  }
  // The scalar tiers take a staged head block through the byte absorber.
  if (head != nullptr) cbc_mac_absorb(state, head, 1);
  if (impl_ == AesImpl::kReference) {
    for (std::size_t b = 0; b < nblocks; ++b, words += 4) {
      for (std::size_t i = 0; i < kAesBlockSize; ++i) {
        state[i] ^= static_cast<std::uint8_t>(words[i / 4] >>
                                              (24 - 8 * (i % 4)));
      }
      encrypt_block_reference(state);
    }
    return;
  }
  // The T-table tier (impl_ is never kAuto after construction). Its rounds
  // already chain on big-endian column words, which is exactly the
  // serialized layout of the word stream: the message words XOR in with no
  // byte shuffling at all.
  std::uint32_t c0 = load_be32(&state[0]);
  std::uint32_t c1 = load_be32(&state[4]);
  std::uint32_t c2 = load_be32(&state[8]);
  std::uint32_t c3 = load_be32(&state[12]);
  for (std::size_t b = 0; b < nblocks; ++b, words += 4) {
    c0 ^= words[0];
    c1 ^= words[1];
    c2 ^= words[2];
    c3 ^= words[3];
    ttable_rounds(round_words_.data(), c0, c1, c2, c3);
  }
  store_be32(&state[0], c0);
  store_be32(&state[4], c1);
  store_be32(&state[8], c2);
  store_be32(&state[12], c3);
}

void Aes128::cbc_mac_absorb_words2(const Aes128& a, AesBlock& state_a,
                                   const std::uint8_t* head_a,
                                   const std::uint32_t* words_a,
                                   const Aes128& b, AesBlock& state_b,
                                   const std::uint8_t* head_b,
                                   const std::uint32_t* words_b,
                                   std::size_t nblocks) {
  assert((head_a == nullptr) == (head_b == nullptr));
  if (a.impl_ == AesImpl::kAesni && b.impl_ == AesImpl::kAesni) {
    const std::uint8_t* keys[2] = {a.round_keys_.data(), b.round_keys_.data()};
    std::uint8_t* states[2] = {state_a.data(), state_b.data()};
    const std::uint8_t* heads[2] = {head_a, head_b};
    const std::uint32_t* words[2] = {words_a, words_b};
    detail::aesni_cbc_mac_words(2, keys, states, heads, words, nblocks);
    return;
  }
  a.cbc_mac_absorb_words(state_a, head_a, words_a, nblocks);
  b.cbc_mac_absorb_words(state_b, head_b, words_b, nblocks);
}

AesKey to_aes_key(ByteSpan raw) {
  assert(raw.size() == kAesKeySize);
  AesKey key{};
  for (std::size_t i = 0; i < kAesKeySize; ++i) key[i] = raw[i];
  return key;
}

}  // namespace sacha::crypto
