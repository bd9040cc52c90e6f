// Tests for sacha_crypto against the official vectors:
//  - AES-128: FIPS-197 Appendix B/C.1
//  - AES-CMAC: RFC 4493 §4 examples 1-4
//  - SHA-256: FIPS 180-4 / NIST CAVP short messages
//  - HMAC-SHA256: RFC 4231 test cases
// plus structural property sweeps (streaming == one-shot, key separation,
// constant-time equality semantics, PRG determinism).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <ostream>

#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/cmac.hpp"
#include "crypto/ct.hpp"
#include "crypto/hmac.hpp"
#include "crypto/prg.hpp"
#include "crypto/sha256.hpp"

namespace sacha::crypto {
namespace {

Bytes hex(std::string_view h) {
  auto v = from_hex(h);
  EXPECT_TRUE(v.has_value()) << h;
  return *v;
}

std::string mac_hex(const AesBlock& m) { return to_hex(m); }
std::string digest_hex(const Sha256Digest& d) { return to_hex(d); }

// ---------------------------------------------------------------- AES-128

TEST(Aes128, Fips197AppendixB) {
  const Aes128 aes(to_aes_key(hex("2b7e151628aed2a6abf7158809cf4f3c")));
  AesBlock block{};
  const Bytes pt = hex("3243f6a8885a308d313198a2e0370734");
  std::copy(pt.begin(), pt.end(), block.begin());
  aes.encrypt_block(block);
  EXPECT_EQ(to_hex(block), "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes128, Fips197AppendixC1) {
  const Aes128 aes(to_aes_key(hex("000102030405060708090a0b0c0d0e0f")));
  AesBlock block{};
  const Bytes pt = hex("00112233445566778899aabbccddeeff");
  std::copy(pt.begin(), pt.end(), block.begin());
  aes.encrypt_block(block);
  EXPECT_EQ(to_hex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, EncryptIsDeterministic) {
  const Aes128 aes(to_aes_key(hex("00000000000000000000000000000000")));
  AesBlock in{};
  EXPECT_EQ(aes.encrypt(in), aes.encrypt(in));
}

TEST(Aes128, DifferentKeysDifferentCiphertexts) {
  AesBlock in{};
  const auto c1 = Aes128(to_aes_key(hex("00000000000000000000000000000001"))).encrypt(in);
  const auto c2 = Aes128(to_aes_key(hex("00000000000000000000000000000002"))).encrypt(in);
  EXPECT_NE(c1, c2);
}

// ------------------------------------------------------- AES fast-path tiers

std::vector<AesImpl> fast_tiers() {
  std::vector<AesImpl> tiers = {AesImpl::kTtable};
  if (Aes128::aesni_supported()) tiers.push_back(AesImpl::kAesni);
  return tiers;
}

std::vector<AesImpl> all_tiers() {
  std::vector<AesImpl> tiers = fast_tiers();
  tiers.insert(tiers.begin(), AesImpl::kReference);
  return tiers;
}

TEST(Aes128Tiers, AutoResolvesToARunnableTier) {
  const AesImpl resolved = Aes128::resolve(AesImpl::kAuto);
  EXPECT_NE(resolved, AesImpl::kAuto);
  // SACHA_AES_TIER redirects kAuto to the named tier (differential CI runs
  // pin the reference tier this way), so the fast-tier expectations below
  // only hold for an unpinned environment.
  const char* pin = std::getenv("SACHA_AES_TIER");
  const std::string_view pinned = pin != nullptr ? pin : "";
  if (pinned == "reference") {
    EXPECT_EQ(resolved, AesImpl::kReference);
    return;
  }
  if (pinned == "ttable") {
    EXPECT_EQ(resolved, AesImpl::kTtable);
    return;
  }
  EXPECT_NE(resolved, AesImpl::kReference);  // auto always picks a fast tier
  if (!Aes128::aesni_supported()) {
    EXPECT_EQ(resolved, AesImpl::kTtable);
  }
}

TEST(Aes128Tiers, Fips197VectorsOnEveryTier) {
  struct Vector {
    const char* key;
    const char* plaintext;
    const char* ciphertext;
  };
  const Vector vectors[] = {
      {"2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
       "3925841d02dc09fbdc118597196a0b32"},
      {"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
       "69c4e0d86a7b0430d8cdb78070b4c55a"},
  };
  for (AesImpl impl : fast_tiers()) {
    for (const Vector& v : vectors) {
      const Aes128 aes(to_aes_key(hex(v.key)), impl);
      ASSERT_EQ(aes.impl(), impl);
      AesBlock block{};
      const Bytes pt = hex(v.plaintext);
      std::copy(pt.begin(), pt.end(), block.begin());
      aes.encrypt_block(block);
      EXPECT_EQ(to_hex(block), v.ciphertext) << to_string(impl);
    }
  }
}

TEST(Aes128Tiers, MatchReferenceOn10kRandomBlocks) {
  Rng rng(4242);
  for (int trial = 0; trial < 100; ++trial) {
    const Bytes key_bytes = rng.bytes(kAesKeySize);
    const AesKey key = to_aes_key(key_bytes);
    const Aes128 reference(key, AesImpl::kReference);
    std::vector<Aes128> fast;
    for (AesImpl impl : fast_tiers()) fast.emplace_back(key, impl);
    for (int block_i = 0; block_i < 100; ++block_i) {
      const Bytes pt = rng.bytes(kAesBlockSize);
      AesBlock block{};
      std::copy(pt.begin(), pt.end(), block.begin());
      const AesBlock expected = reference.encrypt(block);
      for (const Aes128& aes : fast) {
        EXPECT_EQ(aes.encrypt(block), expected)
            << to_string(aes.impl()) << " key=" << to_hex(key_bytes)
            << " pt=" << to_hex(pt);
      }
    }
  }
}

TEST(Aes128Tiers, CbcMacAbsorbMatchesBlockwiseEncrypt) {
  // Both absorbers — bytes and big-endian words — against the CBC-MAC
  // definition (state = E_K(state ^ B_i), one reference-tier encrypt per
  // block), on every tier, from a random chaining state, for every block
  // count 0..17 (empty runs, single blocks, and runs longer than any
  // unrolled loop).
  Rng rng(777);
  const AesKey key = to_aes_key(rng.bytes(kAesKeySize));
  const Aes128 reference(key, AesImpl::kReference);
  for (AesImpl impl : all_tiers()) {
    const Aes128 aes(key, impl);
    for (std::size_t nblocks = 0; nblocks <= 17; ++nblocks) {
      std::vector<std::uint32_t> words(4 * nblocks);
      for (std::uint32_t& w : words) w = static_cast<std::uint32_t>(rng.next_u64());
      Bytes msg;
      for (const std::uint32_t w : words) put_u32be(msg, w);
      AesBlock start{};
      const Bytes start_bytes = rng.bytes(kAesBlockSize);
      std::copy(start_bytes.begin(), start_bytes.end(), start.begin());

      AesBlock expected = start;
      for (std::size_t b = 0; b < nblocks; ++b) {
        for (std::size_t i = 0; i < kAesBlockSize; ++i) {
          expected[i] ^= msg[b * kAesBlockSize + i];
        }
        reference.encrypt_block(expected);
      }
      AesBlock from_bytes = start;
      aes.cbc_mac_absorb(from_bytes, msg.data(), nblocks);
      EXPECT_EQ(from_bytes, expected)
          << "bytes " << to_string(impl) << " nblocks=" << nblocks;
      AesBlock from_words = start;
      aes.cbc_mac_absorb_words(from_words, words.data(), nblocks);
      EXPECT_EQ(from_words, expected)
          << "words " << to_string(impl) << " nblocks=" << nblocks;
      if (nblocks > 0) {
        // The first block as a serialized head, the rest as words.
        AesBlock from_head = start;
        aes.cbc_mac_absorb_words(from_head, msg.data(), words.data() + 4,
                                 nblocks - 1);
        EXPECT_EQ(from_head, expected)
            << "head+words " << to_string(impl) << " nblocks=" << nblocks;
      }
    }
  }
}

TEST(Aes128Tiers, TwoLaneAbsorbMatchesTwoSingleLanes) {
  // Two chains in one call, under different keys and from different
  // states, equal the two single-lane absorbs on every tier, with and
  // without a staged head block, for every block count 0..64.
  Rng rng(778);
  const AesKey key_a = to_aes_key(rng.bytes(kAesKeySize));
  const AesKey key_b = to_aes_key(rng.bytes(kAesKeySize));
  const auto random_block = [&rng] {
    AesBlock block{};
    const Bytes bytes = rng.bytes(kAesBlockSize);
    std::copy(bytes.begin(), bytes.end(), block.begin());
    return block;
  };
  for (AesImpl impl : all_tiers()) {
    const Aes128 a(key_a, impl);
    const Aes128 b(key_b, impl);
    for (std::size_t nblocks = 0; nblocks <= 64; ++nblocks) {
      std::vector<std::uint32_t> words_a(4 * nblocks);
      std::vector<std::uint32_t> words_b(4 * nblocks);
      for (std::uint32_t& w : words_a) w = static_cast<std::uint32_t>(rng.next_u64());
      for (std::uint32_t& w : words_b) w = static_cast<std::uint32_t>(rng.next_u64());
      const AesBlock head_a = random_block();
      const AesBlock head_b = random_block();
      const AesBlock start_a = random_block();
      const AesBlock start_b = random_block();
      for (const bool with_head : {false, true}) {
        const std::uint8_t* ha = with_head ? head_a.data() : nullptr;
        const std::uint8_t* hb = with_head ? head_b.data() : nullptr;
        AesBlock want_a = start_a;
        AesBlock want_b = start_b;
        a.cbc_mac_absorb_words(want_a, ha, words_a.data(), nblocks);
        b.cbc_mac_absorb_words(want_b, hb, words_b.data(), nblocks);
        AesBlock got_a = start_a;
        AesBlock got_b = start_b;
        Aes128::cbc_mac_absorb_words2(a, got_a, ha, words_a.data(), b, got_b,
                                      hb, words_b.data(), nblocks);
        EXPECT_EQ(got_a, want_a) << to_string(impl) << " lane a nblocks="
                                 << nblocks << " head=" << with_head;
        EXPECT_EQ(got_b, want_b) << to_string(impl) << " lane b nblocks="
                                 << nblocks << " head=" << with_head;
      }
    }
  }
}

// --------------------------------------------------------------- AES-CMAC

const char* kRfc4493Key = "2b7e151628aed2a6abf7158809cf4f3c";

struct CmacVector {
  const char* message_hex;
  const char* tag_hex;
};

// Names each instance by its message length in bytes, RFC 4493's own label.
// gtest would otherwise print the two pointers, so the test names would
// change with every build.
void PrintTo(const CmacVector& v, std::ostream* os) {
  *os << "len=" << std::strlen(v.message_hex) / 2;
}

class CmacRfc4493 : public ::testing::TestWithParam<CmacVector> {};

TEST_P(CmacRfc4493, MatchesVector) {
  const AesKey key = to_aes_key(hex(kRfc4493Key));
  const Bytes msg = hex(GetParam().message_hex);
  EXPECT_EQ(mac_hex(Cmac::compute(key, msg)), GetParam().tag_hex);
}

INSTANTIATE_TEST_SUITE_P(
    Vectors, CmacRfc4493,
    ::testing::Values(
        CmacVector{"", "bb1d6929e95937287fa37d129b756746"},
        CmacVector{"6bc1bee22e409f96e93d7e117393172a",
                   "070a16b46b4d4144f79bdd9dd04a287c"},
        CmacVector{"6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
                   "30c81c46a35ce411",
                   "dfa66747de9ae63030ca32611497c827"},
        CmacVector{"6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
                   "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
                   "51f0bebf7e3b9d92fc49741779363cfe"}));

TEST(Cmac, StreamingMatchesOneShot) {
  const AesKey key = to_aes_key(hex(kRfc4493Key));
  Rng rng(21);
  for (int trial = 0; trial < 40; ++trial) {
    const Bytes msg = rng.bytes(static_cast<std::size_t>(rng.below(300)));
    Cmac streaming(key);
    std::size_t pos = 0;
    while (pos < msg.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.below(40), msg.size() - pos);
      streaming.update(ByteSpan(msg).subspan(pos, chunk));
      pos += chunk;
    }
    EXPECT_EQ(streaming.finalize(), Cmac::compute(key, msg));
  }
}

TEST(Cmac, ResetRestartsCleanly) {
  const AesKey key = to_aes_key(hex(kRfc4493Key));
  Cmac cmac(key);
  cmac.update(hex("6bc1bee22e409f96e93d7e117393172a"));
  (void)cmac.finalize();
  cmac.reset();
  cmac.update(hex("6bc1bee22e409f96e93d7e117393172a"));
  EXPECT_EQ(mac_hex(cmac.finalize()), "070a16b46b4d4144f79bdd9dd04a287c");
}

TEST(Cmac, KeySeparation) {
  const Bytes msg = hex("00112233445566778899aabbccddeeff");
  const auto t1 = Cmac::compute(to_aes_key(hex("000102030405060708090a0b0c0d0e0f")), msg);
  const auto t2 = Cmac::compute(to_aes_key(hex("0f0102030405060708090a0b0c0d0e0f")), msg);
  EXPECT_NE(t1, t2);
}

TEST(Cmac, SingleBitFlipChangesTag) {
  const AesKey key = to_aes_key(hex(kRfc4493Key));
  Rng rng(22);
  Bytes msg = rng.bytes(324);  // one configuration frame
  const auto before = Cmac::compute(key, msg);
  msg[200] ^= 0x01;
  EXPECT_NE(before, Cmac::compute(key, msg));
}

TEST(Cmac, ChunkedUpdateAllSplitSizes) {
  // Property: feeding a 3-block message in fixed-size chunks of every split
  // size 1..33 gives the one-shot tag, on every tier — exercises the bulk
  // path, the staging buffer, and every interaction between them.
  const AesKey key = to_aes_key(hex(kRfc4493Key));
  Rng rng(31);
  const Bytes msg = rng.bytes(3 * kAesBlockSize);
  const Mac expected = Cmac::compute(key, msg);
  std::vector<AesImpl> tiers = {AesImpl::kReference, AesImpl::kTtable};
  if (Aes128::aesni_supported()) tiers.push_back(AesImpl::kAesni);
  for (AesImpl impl : tiers) {
    for (std::size_t split = 1; split <= 33; ++split) {
      Cmac streaming(key, impl);
      std::size_t pos = 0;
      while (pos < msg.size()) {
        const std::size_t chunk = std::min(split, msg.size() - pos);
        streaming.update(ByteSpan(msg).subspan(pos, chunk));
        pos += chunk;
      }
      EXPECT_EQ(streaming.finalize(), expected)
          << to_string(impl) << " split=" << split;
    }
  }
}

TEST(Cmac, TiersAgreeOnRfc4493Vectors) {
  const AesKey key = to_aes_key(hex(kRfc4493Key));
  const char* messages[] = {
      "", "6bc1bee22e409f96e93d7e117393172a",
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411",
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"};
  for (const char* m : messages) {
    const Bytes msg = hex(m);
    Cmac reference(key, AesImpl::kReference);
    reference.update(msg);
    const Mac expected = reference.finalize();
    for (AesImpl impl : {AesImpl::kTtable, AesImpl::kAesni}) {
      Cmac fast(key, impl);  // kAesni degrades to ttable when unsupported
      fast.update(msg);
      EXPECT_EQ(fast.finalize(), expected) << to_string(impl);
    }
  }
}

TEST(Cmac, BlockBoundaryLengths) {
  // Lengths straddling the 16-byte boundary exercise both padding paths.
  const AesKey key = to_aes_key(hex(kRfc4493Key));
  Rng rng(23);
  for (std::size_t len : {15u, 16u, 17u, 31u, 32u, 33u}) {
    const Bytes msg = rng.bytes(len);
    Cmac streaming(key);
    streaming.update(msg);
    EXPECT_EQ(streaming.finalize(), Cmac::compute(key, msg)) << len;
  }
}

TEST(Cmac, WordSpanMatchesByteSerialization) {
  // The word-span path (readback hot loop) must equal the byte path over
  // the big-endian serialization, on every tier, for every word-chunking —
  // including the frame size (81 words = 324 B), whose blocks straddle
  // update calls and keep the staging buffer at every word-aligned phase.
  const AesKey key = to_aes_key(hex(kRfc4493Key));
  Rng rng(41);
  std::vector<std::uint32_t> words(4 * 81);
  for (std::uint32_t& w : words) w = static_cast<std::uint32_t>(rng.next_u64());
  Bytes serialized;
  serialized.reserve(words.size() * 4);
  for (std::uint32_t w : words) put_u32be(serialized, w);

  std::vector<AesImpl> tiers = {AesImpl::kReference, AesImpl::kTtable};
  if (Aes128::aesni_supported()) tiers.push_back(AesImpl::kAesni);
  for (AesImpl impl : tiers) {
    Cmac byte_path(key, impl);
    byte_path.update(serialized);
    const Mac expected = byte_path.finalize();
    for (std::size_t split : {1u, 2u, 3u, 4u, 5u, 7u, 64u, 81u, 324u}) {
      Cmac word_path(key, impl);
      std::size_t pos = 0;
      while (pos < words.size()) {
        const std::size_t chunk = std::min(split, words.size() - pos);
        word_path.update(
            std::span<const std::uint32_t>(words.data() + pos, chunk));
        pos += chunk;
      }
      EXPECT_EQ(word_path.finalize(), expected)
          << to_string(impl) << " split=" << split;
    }
  }
}

TEST(Cmac, MixedByteAndWordUpdates) {
  // Byte updates can leave the staging buffer off a word boundary; word
  // updates arriving next must serialize through the fallback and still
  // match the one-shot byte tag.
  const AesKey key = to_aes_key(hex(kRfc4493Key));
  Rng rng(42);
  std::vector<std::uint32_t> words(81);
  for (std::uint32_t& w : words) w = static_cast<std::uint32_t>(rng.next_u64());
  Bytes word_bytes;
  for (std::uint32_t w : words) put_u32be(word_bytes, w);

  for (std::size_t prefix_len : {1u, 3u, 5u, 15u, 16u, 17u, 21u}) {
    const Bytes prefix = rng.bytes(prefix_len);
    Bytes full = prefix;
    full.insert(full.end(), word_bytes.begin(), word_bytes.end());
    Cmac mixed(key);
    mixed.update(prefix);
    mixed.update(std::span<const std::uint32_t>(words));
    EXPECT_EQ(mixed.finalize(), Cmac::compute(key, full))
        << "prefix=" << prefix_len;
  }
}

TEST(Cmac, UpdatePairMatchesTwoUpdates) {
  // update_pair(a, x, b, y) == a.update(x); b.update(y), on every tier,
  // over random chunkings of 81-word frames: from equal staging offsets
  // (the paired kernel), from offsets one word apart, with lengths that
  // differ by a word, from one or both chains a byte update left off a word
  // boundary, and with empty spans.
  Rng rng(43);
  const AesKey key_a = to_aes_key(rng.bytes(kAesKeySize));
  const AesKey key_b = to_aes_key(rng.bytes(kAesKeySize));
  enum class Shape { kLockstep, kOffset, kUnequal, kOneOffWord, kBothOffWord };
  for (AesImpl impl : all_tiers()) {
    for (const Shape shape : {Shape::kLockstep, Shape::kOffset, Shape::kUnequal,
                              Shape::kOneOffWord, Shape::kBothOffWord}) {
      std::vector<std::uint32_t> words(6 * 81);
      for (std::uint32_t& w : words) w = static_cast<std::uint32_t>(rng.next_u64());
      Cmac pair_a(key_a, impl), pair_b(key_b, impl);
      Cmac want_a(key_a, impl), want_b(key_b, impl);
      if (shape == Shape::kOffset) {
        pair_b.update(std::span<const std::uint32_t>(words).first(1));
        want_b.update(std::span<const std::uint32_t>(words).first(1));
      }
      if (shape == Shape::kOneOffWord || shape == Shape::kBothOffWord) {
        const Bytes odd = rng.bytes(3);
        pair_a.update(odd);
        want_a.update(odd);
        if (shape == Shape::kBothOffWord) {
          pair_b.update(odd);
          want_b.update(odd);
        }
      }
      std::size_t pos = 0;
      while (pos < words.size()) {
        // Chunks of 0..2 frames, often whole frames, sometimes ragged.
        std::size_t chunk = rng.below(3) * 81;
        if (rng.below(2) == 0) chunk += rng.below(81);
        chunk = std::min(chunk, words.size() - pos);
        const std::span<const std::uint32_t> x(words.data() + pos, chunk);
        std::span<const std::uint32_t> y = x;
        if (shape == Shape::kUnequal && chunk > 0) y = x.first(chunk - 1);
        Cmac::update_pair(pair_a, x, pair_b, y);
        want_a.update(x);
        want_b.update(y);
        pos += chunk;
      }
      EXPECT_EQ(pair_a.finalize(), want_a.finalize())
          << to_string(impl) << " shape=" << static_cast<int>(shape);
      EXPECT_EQ(pair_b.finalize(), want_b.finalize())
          << to_string(impl) << " shape=" << static_cast<int>(shape);
    }
  }
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, EmptyMessage) {
  EXPECT_EQ(digest_hex(Sha256::compute({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(Sha256::compute(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(Sha256::compute(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Rng rng(24);
  for (int trial = 0; trial < 30; ++trial) {
    const Bytes msg = rng.bytes(static_cast<std::size_t>(rng.below(500)));
    Sha256 streaming;
    std::size_t pos = 0;
    while (pos < msg.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.below(70), msg.size() - pos);
      streaming.update(ByteSpan(msg).subspan(pos, chunk));
      pos += chunk;
    }
    EXPECT_EQ(streaming.finalize(), Sha256::compute(msg));
  }
}

TEST(Sha256, PaddingBoundaries) {
  // 55/56/57 and 63/64/65 bytes exercise the length-field overflow path.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
    const Bytes msg(len, 0x61);
    Sha256 a;
    a.update(msg);
    EXPECT_EQ(a.finalize(), Sha256::compute(msg)) << len;
  }
}

// ------------------------------------------------------------ HMAC-SHA256

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(digest_hex(HmacSha256::compute(key, bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(digest_hex(HmacSha256::compute(
                bytes_of("Jefe"), bytes_of("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(digest_hex(HmacSha256::compute(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(digest_hex(HmacSha256::compute(
                key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, StreamingMatchesOneShot) {
  const Bytes key = bytes_of("frame-stream-key");
  Rng rng(25);
  const Bytes msg = rng.bytes(777);
  HmacSha256 streaming(key);
  streaming.update(ByteSpan(msg).subspan(0, 300));
  streaming.update(ByteSpan(msg).subspan(300));
  EXPECT_EQ(streaming.finalize(), HmacSha256::compute(key, msg));
}

// --------------------------------------------------------------------- PRG

TEST(Prg, DeterministicFromSeedAndLabel) {
  Prg a(99, "nonce"), b(99, "nonce");
  EXPECT_EQ(a.bytes(64), b.bytes(64));
}

TEST(Prg, LabelsAreDomainSeparated) {
  Prg a(99, "nonce"), b(99, "key");
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Prg, SeedsAreSeparated) {
  Prg a(1, "x"), b(2, "x");
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Prg, StreamIsConsistentAcrossCallSizes) {
  Prg a(7, "stream"), b(7, "stream");
  Bytes joined = a.bytes(10);
  append(joined, a.bytes(23));
  EXPECT_EQ(joined, b.bytes(33));
}

TEST(Prg, KeyHasAesSize) {
  Prg p(5, "k");
  EXPECT_EQ(p.key().size(), kAesKeySize);
}

// ---------------------------------------------------------------- ct_equal

TEST(CtEqual, EqualBuffers) {
  const Bytes a = {1, 2, 3};
  EXPECT_TRUE(ct_equal(a, a));
}

TEST(CtEqual, UnequalContent) {
  const Bytes a = {1, 2, 3}, b = {1, 2, 4};
  EXPECT_FALSE(ct_equal(a, b));
}

TEST(CtEqual, UnequalLength) {
  const Bytes a = {1, 2, 3}, b = {1, 2};
  EXPECT_FALSE(ct_equal(a, b));
}

TEST(CtEqual, EmptyBuffersAreEqual) { EXPECT_TRUE(ct_equal({}, {})); }

}  // namespace
}  // namespace sacha::crypto
