#include "crypto/cmac.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace sacha::crypto {

namespace {

/// GF(2^128) doubling with the CMAC reduction polynomial (RFC 4493 §2.3).
AesBlock dbl(const AesBlock& in) {
  AesBlock out{};
  std::uint8_t carry = 0;
  for (int i = 15; i >= 0; --i) {
    const std::uint8_t b = in[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>((b << 1) | carry);
    carry = b >> 7;
  }
  if (carry) out[15] ^= 0x87;
  return out;
}

/// The whole blocks a word update reads straight from its span (the tier
/// does the big-endian mapping) when `words` remain after the staged lead:
/// all but the last, since finalize() needs at least one byte left staged.
/// A full staged block rides ahead of them in the same kernel call: more
/// words follow it, and finalize() only needs the last block kept.
std::size_t bulk_blocks(std::size_t words) {
  const std::size_t bytes = words * 4;
  return bytes > kAesBlockSize ? (bytes - 1) / kAesBlockSize : 0;
}

}  // namespace

Cmac::Cmac(const AesKey& key, AesImpl impl) : aes_(key, impl) {
  AesBlock l{};
  aes_.encrypt_block(l);
  subkey1_ = dbl(l);
  subkey2_ = dbl(subkey1_);
  reset();
}

void Cmac::reset() {
  state_.fill(0);
  buffer_.fill(0);
  buffered_ = 0;
  any_input_ = false;
  finalized_ = false;
}

void Cmac::update(ByteSpan data) {
  assert(!finalized_);
  if (data.empty()) return;
  any_input_ = true;
  std::size_t pos = 0;

  // Drain the staging buffer first. A full buffer may only be absorbed once
  // more input is known to follow: the final full block must stay staged so
  // finalize() can fold in subkey1.
  if (buffered_ > 0) {
    if (buffered_ < kAesBlockSize) {
      const std::size_t take = std::min(kAesBlockSize - buffered_, data.size());
      std::copy_n(data.data(), take, buffer_.data() + buffered_);
      buffered_ += take;
      pos = take;
      if (pos == data.size()) return;
    }
    // buffered_ == kAesBlockSize and more input follows.
    aes_.cbc_mac_absorb(state_, buffer_.data(), 1);
    buffered_ = 0;
  }

  // Bulk path: absorb every whole block except the last directly from the
  // input span, without staging bytes through the buffer.
  const std::size_t remaining = data.size() - pos;
  if (remaining > kAesBlockSize) {
    const std::size_t nblocks = (remaining - 1) / kAesBlockSize;
    aes_.cbc_mac_absorb(state_, data.data() + pos, nblocks);
    pos += nblocks * kAesBlockSize;
  }

  const std::size_t tail = data.size() - pos;  // 1..16 bytes
  std::copy_n(data.data() + pos, tail, buffer_.data());
  buffered_ = tail;
}

void Cmac::update(std::span<const std::uint32_t> words) {
  assert(!finalized_);
  if (words.empty()) return;
  if (buffered_ % 4 != 0) {
    // Mixed byte/word input left the staging buffer off a word boundary;
    // serialize this call through the byte path. The readback hot path
    // feeds words exclusively, so it never lands here.
    std::array<std::uint8_t, 256> staging;
    std::size_t done = 0;
    while (done < words.size()) {
      const std::size_t n =
          std::min<std::size_t>(staging.size() / 4, words.size() - done);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t w = words[done + i];
        staging[4 * i + 0] = static_cast<std::uint8_t>(w >> 24);
        staging[4 * i + 1] = static_cast<std::uint8_t>(w >> 16);
        staging[4 * i + 2] = static_cast<std::uint8_t>(w >> 8);
        staging[4 * i + 3] = static_cast<std::uint8_t>(w);
      }
      update(ByteSpan(staging.data(), n * 4));
      done += n;
    }
    return;
  }

  const std::size_t pos = stage_lead(words);
  if (pos == words.size()) return;  // all staged; finalize() drains it
  const std::size_t nblocks = bulk_blocks(words.size() - pos);
  aes_.cbc_mac_absorb_words(state_, head(), words.data() + pos, nblocks);
  stage_tail(words.subspan(pos + 4 * nblocks));
}

void Cmac::update_pair(Cmac& a, std::span<const std::uint32_t> a_words,
                       Cmac& b, std::span<const std::uint32_t> b_words) {
  assert(&a != &b);
  // Equal offsets and lengths give both chains the same staging steps and
  // block count, so one kernel call can run both.
  if (a.buffered_ != b.buffered_ || a_words.size() != b_words.size() ||
      a_words.empty() || a.buffered_ % 4 != 0) {
    a.update(a_words);
    b.update(b_words);
    return;
  }
  assert(!a.finalized_ && !b.finalized_);
  const std::size_t pos = a.stage_lead(a_words);
  b.stage_lead(b_words);
  if (pos == a_words.size()) return;
  const std::size_t nblocks = bulk_blocks(a_words.size() - pos);
  Aes128::cbc_mac_absorb_words2(a.aes_, a.state_, a.head(),
                                a_words.data() + pos, b.aes_, b.state_,
                                b.head(), b_words.data() + pos, nblocks);
  a.stage_tail(a_words.subspan(pos + 4 * nblocks));
  b.stage_tail(b_words.subspan(pos + 4 * nblocks));
}

std::size_t Cmac::stage_lead(std::span<const std::uint32_t> words) {
  any_input_ = true;
  std::size_t pos = 0;
  while (buffered_ > 0 && buffered_ < kAesBlockSize && pos < words.size()) {
    stage_word(words[pos++]);
  }
  return pos;
}

void Cmac::stage_tail(std::span<const std::uint32_t> tail) {
  buffered_ = 0;
  for (const std::uint32_t w : tail) stage_word(w);
}

void Cmac::stage_word(std::uint32_t w) {
  buffer_[buffered_ + 0] = static_cast<std::uint8_t>(w >> 24);
  buffer_[buffered_ + 1] = static_cast<std::uint8_t>(w >> 16);
  buffer_[buffered_ + 2] = static_cast<std::uint8_t>(w >> 8);
  buffer_[buffered_ + 3] = static_cast<std::uint8_t>(w);
  buffered_ += 4;
}

Mac Cmac::finalize() {
  assert(!finalized_);
  finalized_ = true;
  AesBlock last{};
  if (any_input_ && buffered_ == kAesBlockSize) {
    for (std::size_t i = 0; i < kAesBlockSize; ++i) last[i] = buffer_[i] ^ subkey1_[i];
  } else {
    // Pad 10...0 and use K2.
    for (std::size_t i = 0; i < buffered_; ++i) last[i] = buffer_[i];
    last[buffered_] = 0x80;
    for (std::size_t i = 0; i < kAesBlockSize; ++i) last[i] ^= subkey2_[i];
  }
  for (std::size_t i = 0; i < kAesBlockSize; ++i) state_[i] ^= last[i];
  aes_.encrypt_block(state_);
  return state_;
}

Mac Cmac::compute(const AesKey& key, ByteSpan data) {
  Cmac cmac(key);
  cmac.update(data);
  return cmac.finalize();
}

}  // namespace sacha::crypto
