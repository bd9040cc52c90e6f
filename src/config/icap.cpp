#include "config/icap.hpp"

#include "bitstream/bitgen.hpp"
#include "obs/metrics.hpp"

namespace sacha::config {

namespace bs = sacha::bitstream;

std::uint32_t device_idcode(const fabric::DeviceModel& device) {
  if (device.name() == "XC6VLX240T") return bs::BitGen::kIdcodeXc6vlx240t;
  return static_cast<std::uint32_t>(bs::fnv1a(device.name()));
}

Icap::Icap(ConfigMemory& memory, std::uint32_t idcode, IcapTiming timing)
    : memory_(&memory), idcode_(idcode), timing_(timing) {
  ops_.reserve(16);  // a frame write or readback program has ~10 ops
}

Result<std::vector<std::uint32_t>> Icap::execute(
    std::span<const std::uint32_t> words) {
  std::vector<std::uint32_t> output;
  const Status status = execute(words, output);
  if (!status.ok()) {
    return Result<std::vector<std::uint32_t>>::error(status.message());
  }
  return output;
}

Status Icap::execute(std::span<const std::uint32_t> words,
                     std::vector<std::uint32_t>& output) {
  output.clear();
  const Status parsed = bs::parse_packets(words, ops_);
  if (!parsed.ok()) return Status::error("ICAP: " + parsed.message());

  ++stats_.command_streams;
  static obs::Counter& streams =
      obs::MetricsRegistry::global().counter("sacha.prover.icap_streams");
  streams.add(1);

  const std::uint32_t wpf = memory_->words_per_frame();
  const std::uint32_t total = memory_->total_frames();
  // Reserve the whole readback volume up front: the op list is already
  // parsed, so the output size is known exactly and the frame loop below
  // never reallocates.
  std::size_t read_words = 0;
  std::size_t noops = 0;
  // Payload after the stream's last CRC check is never checked, so its CRC
  // is not computed (single-frame commands carry no CRC at all).
  std::size_t crc_checks_end = 0;
  for (std::size_t k = 0; k < ops_.size(); ++k) {
    if (const auto* rd = std::get_if<bs::OpReadRequest>(&ops_[k])) {
      read_words += rd->word_count;
    } else if (std::holds_alternative<bs::OpCrc>(ops_[k])) {
      crc_checks_end = k;
    } else if (std::holds_alternative<bs::OpNoop>(ops_[k])) {
      ++noops;
    }
  }
  stats_.cycles += static_cast<std::uint64_t>(timing_.port_cycles_per_word) *
                   (words.size() - noops);
  if (read_words > 0) output.reserve(read_words);
  bs::StreamCrc crc;  // over the payload words since the last CRC check

  for (std::size_t k = 0; k < ops_.size(); ++k) {
    const bs::ConfigOp& op = ops_[k];
    if (std::holds_alternative<bs::OpSync>(op) ||
        std::holds_alternative<bs::OpNoop>(op)) {
      continue;
    }
    if (const auto* id = std::get_if<bs::OpWriteIdcode>(&op)) {
      if (id->idcode != idcode_) {
        return Status::error(
            "ICAP: IDCODE mismatch (bitstream for another device)");
      }
      continue;
    }
    if (const auto* far = std::get_if<bs::OpWriteFar>(&op)) {
      if (!memory_->device().geometry().valid(far->address)) {
        return Status::error("ICAP: invalid FAR " + far->address.to_string());
      }
      far_index_ = memory_->device().geometry().linear_index(far->address);
      continue;
    }
    if (const auto* cmd = std::get_if<bs::OpCmd>(&op)) {
      switch (cmd->op) {
        case bs::CmdOp::kWcfg: wcfg_ = true; rcfg_ = false; break;
        case bs::CmdOp::kRcfg: rcfg_ = true; wcfg_ = false; break;
        case bs::CmdOp::kDesync: wcfg_ = rcfg_ = false; break;
        case bs::CmdOp::kNull: break;
      }
      continue;
    }
    if (const auto* wr = std::get_if<bs::OpWriteFrames>(&op)) {
      if (!wcfg_) return Status::error("ICAP: FDRI write without WCFG");
      if (wr->words.size() % wpf != 0) {
        return Status::error("ICAP: FDRI payload not frame aligned (" +
                        std::to_string(wr->words.size()) + " words)");
      }
      const auto frames = static_cast<std::uint32_t>(wr->words.size() / wpf);
      if (far_index_ + frames > total) {
        return Status::error("ICAP: write past end of configuration memory");
      }
      for (std::uint32_t f = 0; f < frames; ++f) {
        memory_->write_frame(far_index_ + f,
                             wr->words.subspan(std::size_t{f} * wpf, wpf));
      }
      if (k < crc_checks_end) crc.update(wr->words);
      far_index_ += frames;
      stats_.frames_written += frames;
      static obs::Counter& written = obs::MetricsRegistry::global().counter(
          "sacha.prover.icap_frames_written");
      written.add(frames);
      stats_.cycles +=
          static_cast<std::uint64_t>(timing_.write_extra_per_word) * wr->words.size() +
          static_cast<std::uint64_t>(timing_.frame_commit_cycles) * frames;
      continue;
    }
    if (const auto* rd = std::get_if<bs::OpReadRequest>(&op)) {
      if (!rcfg_) return Status::error("ICAP: FDRO read without RCFG");
      if (rd->word_count % wpf != 0) {
        return Status::error("ICAP: FDRO request not frame aligned");
      }
      const std::uint32_t frames = rd->word_count / wpf;
      if (far_index_ + frames > total) {
        return Status::error("ICAP: read past end of configuration memory");
      }
      for (std::uint32_t f = 0; f < frames; ++f) {
        memory_->readback_into(far_index_ + f, output);
      }
      far_index_ += frames;
      stats_.frames_read += frames;
      static obs::Counter& read = obs::MetricsRegistry::global().counter(
          "sacha.prover.icap_frames_read");
      read.add(frames);
      // Each read request pays the pipeline-flush penalty; the port then
      // shifts out one pad frame plus the requested words, one cycle each.
      stats_.cycles +=
          timing_.readback_flush_cycles +
          static_cast<std::uint64_t>(timing_.port_cycles_per_word) *
              (rd->word_count + wpf);
      continue;
    }
    if (const auto* check = std::get_if<bs::OpCrc>(&op)) {
      if (check->value != crc.value()) {
        return Status::error("ICAP: CRC mismatch");
      }
      crc.reset();
      continue;
    }
  }
  return Status();
}

}  // namespace sacha::config
