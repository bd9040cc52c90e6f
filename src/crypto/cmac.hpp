// AES-CMAC (RFC 4493 / NIST SP 800-38B).
//
// This is the checksum the SACHa prover computes over the configuration
// memory. The streaming interface mirrors the hardware: the protocol calls
// init / update(frame) once per readback command / finalize, exactly like
// the MAC-init, MAC-update-step-i and MAC-finalize actions A5/A6/A7 of
// Table 3. update() runs whole 16-byte blocks straight from the input span
// through Aes128::cbc_mac_absorb — only a trailing partial (or the final
// full) block is staged in the internal buffer, so the frame stream is
// MACed at the selected AES tier's full throughput. One Cmac is one chain.
// A session's two chains, the prover's H_Prv and the verifier's H_Vrf,
// absorb the same frames in lockstep; update_pair() folds one step of both
// in one kernel pass, where the AES-NI tier interleaves them so the second
// chain runs in the first one's latency shadow. Nothing here batches
// streams across sessions.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/aes.hpp"

namespace sacha::crypto {

using Mac = AesBlock;  // 128-bit tag

/// Streaming AES-CMAC. Usage: construct (or reset()), update() any number of
/// times with arbitrary-length chunks, finalize() once.
class Cmac {
 public:
  explicit Cmac(const AesKey& key, AesImpl impl = AesImpl::kAuto);

  /// Restarts the computation under the same key.
  void reset();

  void update(ByteSpan data);

  /// Word-span fast path: absorbs 32-bit words in big-endian order (the wire
  /// and MAC byte order everywhere in SACHa) without materialising a byte
  /// vector. One call enters the AES kernel once: a block staged by the
  /// previous call rides ahead of the whole blocks read straight from the
  /// span, and only the 1-4 tail words are staged. Used by the prover's
  /// MacEngine and the streaming verifier, once per readback frame.
  void update(std::span<const std::uint32_t> words);

  /// Folds `a_words` into `a` and `b_words` into `b` in one kernel call;
  /// bit-identical to `a.update(a_words); b.update(b_words);`, which is what
  /// it runs when the two chains' staging offsets or the two lengths differ.
  /// `a` and `b` are distinct objects; their keys and tiers may differ.
  static void update_pair(Cmac& a, std::span<const std::uint32_t> a_words,
                          Cmac& b, std::span<const std::uint32_t> b_words);

  /// Completes the tag; the object must be reset() before reuse.
  Mac finalize();

  /// One-shot convenience.
  static Mac compute(const AesKey& key, ByteSpan data);

  /// The AES tier doing the work.
  AesImpl impl() const { return aes_.impl(); }

 private:
  /// A word update's first half, from a word boundary: stages words until
  /// the buffer holds a full block, and returns how many it took.
  std::size_t stage_lead(std::span<const std::uint32_t> words);
  /// The staged block the kernel absorbs ahead of the span's, if full.
  const std::uint8_t* head() const {
    return buffered_ == kAesBlockSize ? buffer_.data() : nullptr;
  }
  /// Its second half, after the kernel: stages the tail words.
  void stage_tail(std::span<const std::uint32_t> tail);
  /// Serialises one word big-endian into the staging buffer.
  void stage_word(std::uint32_t w);

  Aes128 aes_;
  AesBlock subkey1_{};
  AesBlock subkey2_{};
  AesBlock state_{};   // running CBC value
  AesBlock buffer_{};  // pending partial (or final full) block
  std::size_t buffered_ = 0;
  bool any_input_ = false;
  bool finalized_ = false;
};

}  // namespace sacha::crypto
