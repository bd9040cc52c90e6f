#include "config/seu.hpp"

#include "bitstream/bitgen.hpp"
#include "bitstream/packet.hpp"

namespace sacha::config {

namespace bs = sacha::bitstream;

std::vector<BitLocation> SeuInjector::inject(ConfigMemory& memory,
                                             std::uint32_t count) {
  std::vector<BitLocation> hits;
  hits.reserve(count);
  const std::uint32_t frame_bits = memory.words_per_frame() * 32;
  for (std::uint32_t i = 0; i < count; ++i) {
    BitLocation hit;
    hit.frame = static_cast<std::uint32_t>(rng_.below(memory.total_frames()));
    hit.bit = static_cast<std::uint32_t>(rng_.below(frame_bits));
    bs::Frame frame = memory.config_frame(hit.frame);
    frame.flip_bit(hit.bit);
    // Direct upset of the stored configuration; register state untouched
    // (a strike on a flip-flop is modelled by set_register_bit instead).
    memory.write_frame_preserving_registers(hit.frame, frame);
    hits.push_back(hit);
  }
  return hits;
}

std::vector<BitLocation> SeuInjector::inject_config_bits(ConfigMemory& memory,
                                                         std::uint32_t count) {
  std::vector<BitLocation> hits;
  hits.reserve(count);
  const std::uint32_t frame_bits = memory.words_per_frame() * 32;
  while (hits.size() < count) {
    BitLocation hit;
    hit.frame = static_cast<std::uint32_t>(rng_.below(memory.total_frames()));
    hit.bit = static_cast<std::uint32_t>(rng_.below(frame_bits));
    if (!memory.mask(hit.frame).get_bit(hit.bit)) continue;  // register bit
    bs::Frame frame = memory.config_frame(hit.frame);
    frame.flip_bit(hit.bit);
    memory.write_frame_preserving_registers(hit.frame, frame);
    hits.push_back(hit);
  }
  return hits;
}

Scrubber::Scrubber(Icap& icap, GoldenProvider golden, bool repair)
    : icap_(icap), golden_(std::move(golden)), repair_(repair) {}

ScrubReport Scrubber::scrub(fabric::FrameRange range) {
  ScrubReport report;
  const auto& device = icap_.memory().device();
  const std::uint32_t wpf = device.geometry().words_per_frame();
  const std::uint32_t idcode = device_idcode(device);
  const std::uint64_t cycles_before = icap_.stats().cycles;

  for (std::uint32_t f = range.first; f < range.end(); ++f) {
    bs::PacketWriter w;
    w.sync();
    w.write_idcode(idcode);
    w.cmd(bs::CmdOp::kRcfg);
    w.write_far(device.geometry().address_of(f));
    w.read_request(wpf);
    w.cmd(bs::CmdOp::kDesync);
    auto result = icap_.execute(w.words());
    if (!result.ok()) continue;  // unreadable frame: skip (counted scanned)
    ++report.frames_scanned;

    const bs::Frame readback(std::move(result).take());
    const bs::FrameMask mask = icap_.memory().mask(f);
    const bs::Frame& golden = golden_(f);
    if (!bs::masked_equal(readback, golden, mask)) {
      ++report.frames_corrupted;
      report.corrupted_frames.push_back(f);
      if (repair_) {
        bs::PacketWriter repair;
        repair.sync();
        repair.write_idcode(idcode);
        repair.cmd(bs::CmdOp::kWcfg);
        repair.write_far(device.geometry().address_of(f));
        repair.write_frames(golden.words());
        repair.cmd(bs::CmdOp::kDesync);
        if (icap_.execute(repair.words()).ok()) ++report.frames_repaired;
      }
    }
  }
  report.icap_cycles = icap_.stats().cycles - cycles_before;
  return report;
}

}  // namespace sacha::config
