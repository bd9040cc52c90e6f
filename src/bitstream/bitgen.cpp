#include "bitstream/bitgen.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "common/rng.hpp"

namespace sacha::bitstream {

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

FrameMask architectural_mask(const fabric::DeviceModel& device,
                             std::uint32_t frame_index, double density) {
  const std::uint32_t words = device.geometry().words_per_frame();
  const std::uint32_t frame_bits = words * 32;
  const auto register_bits =
      static_cast<std::uint32_t>(std::lround(density * frame_bits));
  FrameMask mask(words, 0xffffffff);
  Rng rng(fnv1a(device.name()) ^ 0x5ca1ab1edeadbeefULL ^
          (static_cast<std::uint64_t>(frame_index) << 17));
  for (std::uint32_t b = 0; b < register_bits; ++b) {
    mask.set_bit(static_cast<std::uint32_t>(rng.below(frame_bits)), false);
  }
  return mask;
}

static_assert(fabric::kVirtex6WordsPerFrame * 32 <=
                  RegisterPositions::kMaxFrameBits,
              "Virtex-6 register positions must fit 16 bits");

RegisterPositions::RegisterPositions(const fabric::DeviceModel& device)
    : words_per_frame_(device.geometry().words_per_frame()) {
  if (std::uint64_t{words_per_frame_} * 32 > kMaxFrameBits) {
    throw std::length_error("RegisterPositions: " + device.name() +
                            " frames exceed 16-bit bit offsets");
  }
  const std::uint32_t n = device.total_frames();
  offsets_.reserve(n + 1);
  offsets_.push_back(0);
  for (std::uint32_t f = 0; f < n; ++f) {
    const FrameMask msk = architectural_mask(device, f);
    // Mask-0 bits in ascending order, a word at a time.
    for (std::uint32_t w = 0; w < words_per_frame_; ++w) {
      for (std::uint32_t reg = ~msk.word(w); reg != 0; reg &= reg - 1) {
        positions_.push_back(static_cast<std::uint16_t>(
            w * 32 + static_cast<std::uint32_t>(std::countr_zero(reg))));
      }
    }
    offsets_.push_back(static_cast<std::uint32_t>(positions_.size()));
  }
  positions_.shrink_to_fit();
}

FrameMask RegisterPositions::mask(std::uint32_t frame) const {
  FrameMask msk(words_per_frame_);
  write_mask(frame, msk.words().data());
  return msk;
}

void RegisterPositions::write_mask(std::uint32_t frame,
                                   std::uint32_t* row) const {
  std::fill(row, row + words_per_frame_, 0xffffffffu);
  for (std::uint16_t b : of(frame)) row[b / 32] &= ~(1u << (b % 32));
}

std::shared_ptr<const RegisterPositions> RegisterPositions::shared(
    const fabric::DeviceModel& device) {
  // The table depends on what architectural_mask reads: the device name and
  // the frame geometry. Device types are few, so expired entries stay until
  // their type is asked for again.
  static std::mutex mutex;
  static std::unordered_map<std::string, std::weak_ptr<const RegisterPositions>>
      tables;
  const std::string key = device.name() + '/' +
                          std::to_string(device.total_frames()) + 'x' +
                          std::to_string(device.geometry().words_per_frame());
  std::lock_guard<std::mutex> lock(mutex);
  std::weak_ptr<const RegisterPositions>& entry = tables[key];
  if (auto table = entry.lock()) return table;
  auto table = std::make_shared<const RegisterPositions>(device);
  entry = table;
  return table;
}

BitGen::BitGen(const fabric::DeviceModel& device) : device_(device) {}

ConfigImage BitGen::generate(const fabric::FrameRange& range,
                             const DesignSpec& spec) const {
  ConfigImage image;
  image.frames.reserve(range.count);
  for (std::uint32_t i = 0; i < range.count; ++i) {
    Frame& frame =
        image.frames.emplace_back(device_.geometry().words_per_frame());
    generate_into({range.first + i, 1}, spec, frame.words());
  }
  return image;
}

void BitGen::generate_into(const fabric::FrameRange& range,
                           const DesignSpec& spec,
                           std::span<std::uint32_t> rows) const {
  const std::uint32_t words = device_.geometry().words_per_frame();
  assert(rows.size() == std::size_t{range.count} * words);
  const std::uint64_t design_hash =
      fnv1a(spec.name) ^ (spec.seed * 0x9e3779b97f4a7c15ULL);
  std::uint32_t* out = rows.data();
  for (std::uint32_t i = 0; i < range.count; ++i) {
    const std::uint32_t frame_index = range.first + i;
    Rng rng(design_hash ^ (static_cast<std::uint64_t>(frame_index) << 1 | 1));
    for (std::uint32_t w = 0; w < words; ++w) {
      *out++ = static_cast<std::uint32_t>(rng.next_u64());
    }
  }
}

ConfigImage BitGen::nonce_frame(std::uint64_t nonce) const {
  const std::uint32_t words = device_.geometry().words_per_frame();
  assert(words >= 2);
  Frame frame(words);
  frame.set_word(0, static_cast<std::uint32_t>(nonce >> 32));
  frame.set_word(1, static_cast<std::uint32_t>(nonce));
  ConfigImage image;
  image.frames.push_back(std::move(frame));
  return image;
}

std::vector<std::uint32_t> BitGen::assemble(
    std::span<const std::uint32_t> words, std::uint32_t first_frame,
    std::uint32_t idcode, std::vector<std::uint32_t> storage) const {
  assert(words.size() % device_.geometry().words_per_frame() == 0);
  PacketWriter writer(std::move(storage));
  // sync, noop, idcode (2), wcfg (2), far (2), FDRI header (up to 2), the
  // payload, crc (2), desync (2), noop.
  writer.reserve(16 + words.size());
  writer.sync();
  writer.noop();
  writer.write_idcode(idcode);
  writer.cmd(CmdOp::kWcfg);
  writer.write_far(device_.geometry().address_of(first_frame));
  writer.write_frames(words);
  writer.crc(stream_crc(words));
  writer.cmd(CmdOp::kDesync);
  writer.noop();
  return writer.take();
}

std::vector<std::uint32_t> BitGen::assemble_single_frame(
    std::span<const std::uint32_t> frame_words, std::uint32_t frame_index,
    std::uint32_t idcode, std::vector<std::uint32_t> storage) const {
  assert(frame_words.size() == device_.geometry().words_per_frame());
  PacketWriter writer(std::move(storage));
  // sync, idcode (2), wcfg (2), far (2), FDRI header, the frame, desync (2).
  writer.reserve(10 + frame_words.size());
  writer.sync();
  writer.write_idcode(idcode);
  writer.cmd(CmdOp::kWcfg);
  writer.write_far(device_.geometry().address_of(frame_index));
  writer.write_frames(frame_words);
  writer.cmd(CmdOp::kDesync);
  return writer.take();
}

}  // namespace sacha::bitstream
