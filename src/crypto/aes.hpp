// AES-128 block cipher (FIPS-197), implemented from scratch.
//
// This models the area-optimised AES core inside the SACHa static partition
// (the paper's "AEScmac" block of Fig. 10). Only the forward cipher is
// provided: CMAC and CTR-mode generation never decrypt.
//
// Three implementation tiers sit behind one interface:
//   - kReference: the original table-free byte-oriented version — clarity
//     over speed, and the cross-check oracle for the fast tiers;
//   - kTtable: 32-bit T-table lookups (4 KiB of fused SubBytes/ShiftRows/
//     MixColumns tables), the portable fast path;
//   - kAesni: hardware AES round instructions, compiled in a separate
//     translation unit with -maes and selected only when CPUID reports
//     support at runtime.
// kAuto resolves to the fastest tier the host supports. All tiers are
// bit-identical; crypto_test cross-checks them on FIPS-197 vectors plus
// 10k random blocks, and checks the CBC-MAC absorbers (bytes, words, and
// two word chains in one call) against block-wise encryption on every tier.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace sacha::crypto {

inline constexpr std::size_t kAesBlockSize = 16;
inline constexpr std::size_t kAesKeySize = 16;

using AesBlock = std::array<std::uint8_t, kAesBlockSize>;
using AesKey = std::array<std::uint8_t, kAesKeySize>;

/// Implementation strategy for the AES engine.
enum class AesImpl : std::uint8_t {
  kAuto,       // fastest supported tier (AES-NI if present, else T-table)
  kReference,  // byte-wise FIPS-197 (the hardware-model oracle)
  kTtable,     // 32-bit T-table software fast path
  kAesni,      // AES-NI hardware instructions (x86 only)
};

const char* to_string(AesImpl impl);

/// AES-128 with a fixed expanded key.
class Aes128 {
 public:
  explicit Aes128(const AesKey& key, AesImpl impl = AesImpl::kAuto);

  /// Encrypts one 16-byte block in place.
  void encrypt_block(AesBlock& block) const;

  /// Convenience: returns E_K(in).
  AesBlock encrypt(const AesBlock& in) const;

  /// CBC-MAC absorption: state = E_K(state ^ B_i) for each of the `nblocks`
  /// consecutive 16-byte blocks at `data`. The hot loop of AES-CMAC — the
  /// fast tiers keep the chaining value in registers across blocks instead
  /// of re-dispatching per block.
  void cbc_mac_absorb(AesBlock& state, const std::uint8_t* data,
                      std::size_t nblocks) const;

  /// CBC-MAC absorption straight from a 32-bit word stream: each block is
  /// the big-endian serialization of four consecutive words (`words` holds
  /// `4 * nblocks` entries). On the AES-NI tier the byte swap rides in the
  /// latency shadow of the AES round chain, so this costs the same as
  /// absorbing pre-serialized bytes — the readback hot path never
  /// materializes a byte stream at all.
  void cbc_mac_absorb_words(AesBlock& state, const std::uint32_t* words,
                            std::size_t nblocks) const {
    cbc_mac_absorb_words(state, nullptr, words, nblocks);
  }
  /// The same behind a `head` block: when `head` is not null, its 16 bytes
  /// (already serialized) are absorbed first, in the same pass, so a CMAC
  /// update that completes a block staged by the previous call enters the
  /// kernel once.
  void cbc_mac_absorb_words(AesBlock& state, const std::uint8_t* head,
                            const std::uint32_t* words,
                            std::size_t nblocks) const;

  /// a.cbc_mac_absorb_words(state_a, head_a, words_a, nblocks) and the
  /// same on `b`, with a head block in both lanes or in neither. When both
  /// engines are on the AES-NI tier the two chains interleave in one
  /// kernel loop, where the second costs little more than the first; any
  /// other pair runs back to back.
  static void cbc_mac_absorb_words2(const Aes128& a, AesBlock& state_a,
                                    const std::uint8_t* head_a,
                                    const std::uint32_t* words_a,
                                    const Aes128& b, AesBlock& state_b,
                                    const std::uint8_t* head_b,
                                    const std::uint32_t* words_b,
                                    std::size_t nblocks);

  /// The tier actually executing (kAuto is resolved at construction).
  AesImpl impl() const { return impl_; }

  /// True when this build and CPU can run the AES-NI tier.
  static bool aesni_supported();

  /// Maps kAuto (or an unsupported explicit request) to a runnable tier.
  static AesImpl resolve(AesImpl requested);

 private:
  void encrypt_block_reference(AesBlock& block) const;
  void encrypt_block_ttable(AesBlock& block) const;

  // 11 round keys of 16 bytes (FIPS-197 byte order; fed to AES-NI as-is).
  std::array<std::uint8_t, 176> round_keys_;
  // The same round keys packed as big-endian column words for the T-tables.
  std::array<std::uint32_t, 44> round_words_;
  AesImpl impl_;
};

/// Builds an AesKey from a buffer that must be exactly 16 bytes.
AesKey to_aes_key(ByteSpan raw);

namespace detail {
// AES-NI entry points, defined in aes_ni.cpp (compiled with -maes). Only
// callable when Aes128::aesni_supported(); declared unconditionally so the
// dispatcher links against stubs on non-x86 builds.
void aesni_encrypt_block(const std::uint8_t* round_keys, std::uint8_t* block);
void aesni_cbc_mac(const std::uint8_t* round_keys, std::uint8_t* state,
                   const std::uint8_t* data, std::size_t nblocks);
/// `lanes` (1 or 2) word-stream chains interleaved: lane l absorbs head[l]
/// (if any) and `nblocks` blocks of words[l], which it advances, into
/// state[l].
void aesni_cbc_mac_words(std::size_t lanes,
                         const std::uint8_t* const* round_keys,
                         std::uint8_t* const* state,
                         const std::uint8_t* const* head,
                         const std::uint32_t** words, std::size_t nblocks);

}  // namespace detail

}  // namespace sacha::crypto
