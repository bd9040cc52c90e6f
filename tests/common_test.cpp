// Unit and property tests for sacha_common: byte packing, hex codec,
// deterministic RNG and its jumps, packed Bernoulli draws, bit vectors,
// result types.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <map>
#include <set>

#include "common/bernoulli_bits.hpp"
#include "common/bitvec.hpp"
#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"

namespace sacha {
namespace {

TEST(Hex, RoundTripsArbitraryBytes) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const Bytes data = rng.bytes(static_cast<std::size_t>(rng.below(200)));
    const auto decoded = from_hex(to_hex(data));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
  }
}

TEST(Hex, EncodesKnownValue) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(data), "0001abff");
}

TEST(Hex, AcceptsUppercase) {
  const auto decoded = from_hex("DEADBEEF");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(to_hex(*decoded), "deadbeef");
}

TEST(Hex, RejectsOddLength) { EXPECT_FALSE(from_hex("abc").has_value()); }

TEST(Hex, RejectsNonHexCharacters) {
  EXPECT_FALSE(from_hex("zz").has_value());
  EXPECT_FALSE(from_hex("0g").has_value());
}

TEST(Hex, EmptyStringIsEmptyBuffer) {
  const auto decoded = from_hex("");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(BytePacking, U16RoundTrip) {
  Bytes out;
  put_u16be(out, 0xbeef);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(get_u16be(out, 0), 0xbeef);
}

TEST(BytePacking, U32RoundTrip) {
  Bytes out;
  put_u32be(out, 0xdeadbeef);
  EXPECT_EQ(get_u32be(out, 0), 0xdeadbeefu);
}

TEST(BytePacking, U64RoundTrip) {
  Bytes out;
  put_u64be(out, 0x0123456789abcdefULL);
  EXPECT_EQ(get_u64be(out, 0), 0x0123456789abcdefULL);
}

TEST(BytePacking, BigEndianByteOrder) {
  Bytes out;
  put_u32be(out, 0x01020304);
  EXPECT_EQ(out[0], 0x01);
  EXPECT_EQ(out[3], 0x04);
}

TEST(BytePacking, OffsetReads) {
  Bytes out;
  put_u32be(out, 0xaaaaaaaa);
  put_u32be(out, 0x12345678);
  EXPECT_EQ(get_u32be(out, 4), 0x12345678u);
}

TEST(XorBytes, SelfXorIsZero) {
  Rng rng(2);
  const Bytes a = rng.bytes(64);
  const Bytes z = xor_bytes(a, a);
  EXPECT_TRUE(std::all_of(z.begin(), z.end(), [](auto b) { return b == 0; }));
}

TEST(XorBytes, IsInvolutive) {
  Rng rng(3);
  const Bytes a = rng.bytes(32);
  const Bytes b = rng.bytes(32);
  EXPECT_EQ(xor_bytes(xor_bytes(a, b), b), a);
}

TEST(Rng, IsDeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BetweenIsInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(10);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BytesHasRequestedLength) {
  Rng rng(12);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 100u}) {
    EXPECT_EQ(rng.bytes(n).size(), n);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(13);
  const auto p = rng.permutation(100);
  std::set<std::uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, ShuffleKeepsMultiset) {
  Rng rng(14);
  std::vector<int> v = {1, 1, 2, 3, 5, 8, 13};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(w, v);
}

/// Berlekamp-Massey over GF(2): the connection polynomial (c[0] = 1) of the
/// shortest LFSR that generates `seq`, and its length.
std::vector<int> berlekamp_massey(const std::vector<int>& seq, int& length) {
  const std::size_t n = seq.size();
  std::vector<int> c(n + 1, 0);
  std::vector<int> b(n + 1, 0);
  c[0] = b[0] = 1;
  length = 0;
  std::size_t shift = 1;
  for (std::size_t i = 0; i < n; ++i) {
    int discrepancy = seq[i];
    for (int j = 1; j <= length; ++j) discrepancy ^= c[j] & seq[i - j];
    if (discrepancy == 0) {
      ++shift;
      continue;
    }
    const std::vector<int> previous = c;
    for (std::size_t j = 0; j + shift <= n; ++j) c[j + shift] ^= b[j];
    if (2 * static_cast<std::size_t>(length) <= i) {
      length = static_cast<int>(i + 1) - length;
      b = previous;
      shift = 1;
    } else {
      ++shift;
    }
  }
  return c;
}

TEST(Rng, JumpsReduceByTheEnginesCharacteristicPolynomial) {
  // One state bit of xoshiro256's linear engine over 512 steps from a
  // nonzero state: its shortest LFSR is the engine's (primitive)
  // characteristic polynomial P. Since x^256 = P - x^256 over GF(2), the
  // jump of 256 draws holds P's low coefficients.
  std::uint64_t s[4] = {0x0123456789abcdefULL, 1, 2, 3};
  std::vector<int> seq;
  for (int i = 0; i < 512; ++i) {
    seq.push_back(static_cast<int>(s[0] & 1));
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = std::rotl(s[3], 45);
  }
  int length = 0;
  const std::vector<int> c = berlekamp_massey(seq, length);
  ASSERT_EQ(length, 256);
  std::array<std::uint64_t, 4> low{};
  for (int i = 0; i < 256; ++i) {
    if (c[256 - i] != 0) low[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  EXPECT_EQ(Rng::jump_of(256).poly, low);
}

TEST(Rng, AdvanceMatchesStepping) {
  const std::uint64_t kDistances[] = {0, 1, 2, 63, 64, 65, 255, 256, 257, 183'424};
  for (std::uint64_t seed : {1ULL, 2019ULL, 0x5eed5eedULL}) {
    for (std::uint64_t k : kDistances) {
      Rng jumped(seed);
      Rng stepped(seed);
      jumped.advance(k);
      for (std::uint64_t i = 0; i < k; ++i) stepped.next_u64();
      for (int d = 0; d < 4; ++d) {
        ASSERT_EQ(jumped.next_u64(), stepped.next_u64())
            << "seed " << seed << ", " << k << " draws ahead, draw " << d;
      }
    }
  }
  // Two random distances below 2^32, each stepped in full (a few seconds).
  Rng pick(30);
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t seed = pick.next_u64();
    const std::uint64_t k = pick.next_u64() >> 32;
    Rng jumped(seed);
    Rng stepped(seed);
    jumped.advance(Rng::jump_of(k));
    for (std::uint64_t d = 0; d < k; ++d) stepped.next_u64();
    for (int d = 0; d < 4; ++d) {
      ASSERT_EQ(jumped.next_u64(), stepped.next_u64())
          << k << " draws ahead, draw " << d;
    }
  }
}

TEST(BernoulliBits, DrawsAreChancePerBit) {
  // The sessions' path (the lanes on an AVX2 host once every lane has a
  // whole word, else the serial loop) against n per-bit chance() calls.
  const double kProbabilities[] = {0.0, 0x1p-60, 0.25, std::nextafter(1.0, 0.0),
                                   1.0, 1.5,     std::nan("")};
  Rng pick(41);
  for (std::uint32_t n : {1u, 65u, 8u * 64 + 1, 8u * 64 * 64 + 29}) {
    const BernoulliBits draws(n);
    for (double p : kProbabilities) {
      const std::uint64_t seed = pick.next_u64();
      Rng rng(seed);
      Rng per_bit(seed);
      std::vector<std::uint64_t> bits((n + 63) / 64, 0);
      std::vector<std::uint64_t> expected(bits.size(), 0);
      draws.xor_into(rng, p, bits);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (per_bit.chance(p)) expected[i / 64] |= std::uint64_t{1} << (i % 64);
      }
      EXPECT_EQ(bits, expected) << "n " << n << ", p " << p;
      EXPECT_EQ(rng.next_u64(), per_bit.next_u64()) << "n " << n << ", p " << p;
    }
  }
}

TEST(BernoulliBits, LanesMatchTheSerialLoop) {
  if (!BernoulliBits::lanes_supported()) {
    GTEST_SKIP() << "AVX2 lanes not compiled in or not supported by this CPU";
  }
  // Fewer words than lanes (an empty lane must not hand its state back),
  // one lane's partial word, and the XC6VLX240T's 1,467,037 positions.
  const std::uint32_t kSizes[] = {1,      63,         64,         65,
                                  7 * 64, 8 * 64 - 1, 8 * 64 + 1, 8 * 64 * 64 + 29,
                                  1'467'037};
  const double kProbabilities[] = {0x1p-60, 1e-9, 0.25, 0.5,
                                   std::nextafter(1.0, 0.0), std::nan("")};
  Rng pick(42);
  for (std::uint32_t n : kSizes) {
    const BernoulliBits draws(n);
    std::vector<std::uint64_t> start((n + 63) / 64);
    for (std::uint64_t& w : start) w = pick.next_u64();
    for (double p : kProbabilities) {
      const std::uint64_t seed = pick.next_u64();
      Rng serial_rng(seed);
      Rng lanes_rng(seed);
      std::vector<std::uint64_t> serial = start;
      std::vector<std::uint64_t> lanes = start;
      draws.xor_serial(serial_rng, p, serial);
      draws.xor_lanes(lanes_rng, p, lanes);
      EXPECT_EQ(lanes, serial) << "n " << n << ", p " << p;
      for (int d = 0; d < 4; ++d) {
        EXPECT_EQ(lanes_rng.next_u64(), serial_rng.next_u64())
            << "n " << n << ", p " << p << ", draw " << d;
      }
    }
  }
}

TEST(BitVec, StartsCleared) {
  BitVec v(20);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_FALSE(v.get(i));
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, AllOnesConstructorRespectsSize) {
  BitVec v(13, true);
  EXPECT_EQ(v.popcount(), 13u);
  // The spare bits of the last byte must stay zero so byte-level equality
  // matches bit-level equality.
  EXPECT_EQ(v.bytes().back(), 0x1f);
}

TEST(BitVec, SetGetFlip) {
  BitVec v(16);
  v.set(3, true);
  EXPECT_TRUE(v.get(3));
  v.flip(3);
  EXPECT_FALSE(v.get(3));
  v.flip(15);
  EXPECT_TRUE(v.get(15));
}

TEST(BitVec, HammingDistance) {
  BitVec a(10), b(10);
  a.set(1, true);
  a.set(5, true);
  b.set(5, true);
  b.set(9, true);
  EXPECT_EQ(a.hamming(b), 2u);
  EXPECT_EQ(a.hamming(a), 0u);
}

TEST(BitVec, XorMatchesHamming) {
  Rng rng(15);
  BitVec a(64), b(64);
  for (std::size_t i = 0; i < 64; ++i) {
    a.set(i, rng.chance(0.5));
    b.set(i, rng.chance(0.5));
  }
  EXPECT_EQ((a ^ b).popcount(), a.hamming(b));
}

TEST(BitVec, FromBytesRoundTrip) {
  Rng rng(16);
  const Bytes packed = rng.bytes(8);
  const BitVec v = BitVec::from_bytes(packed, 61);
  for (std::size_t i = 0; i < 61; ++i) {
    EXPECT_EQ(v.get(i), ((packed[i / 8] >> (i % 8)) & 1) != 0) << i;
  }
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.message(), "");
}

TEST(Status, ErrorCarriesMessage) {
  const Status s = Status::error("boom");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "boom");
}

TEST(ResultType, ValueAndError) {
  Result<int> ok = 7;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);

  const auto err = Result<int>::error("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "nope");
}

TEST(ResultType, TakeMovesValue) {
  Result<Bytes> r = Bytes{1, 2, 3};
  const Bytes taken = std::move(r).take();
  EXPECT_EQ(taken, (Bytes{1, 2, 3}));
}

// Property sweep: u32 round trip over structured patterns.
class PackingSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PackingSweep, U32RoundTrip) {
  Bytes out;
  put_u32be(out, GetParam());
  EXPECT_EQ(get_u32be(out, 0), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Patterns, PackingSweep,
                         ::testing::Values(0u, 1u, 0x80000000u, 0xffffffffu,
                                           0x7fffffffu, 0x55aa55aau,
                                           0xaa55aa55u, 0x00ff00ffu));

}  // namespace
}  // namespace sacha
