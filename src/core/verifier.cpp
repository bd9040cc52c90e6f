#include "core/verifier.hpp"

#include <algorithm>
#include <cassert>

#include "bitstream/packet.hpp"
#include "common/log.hpp"
#include "config/icap.hpp"
#include "crypto/ct.hpp"
#include "obs/metrics.hpp"

namespace sacha::core {

namespace bs = sacha::bitstream;

SachaVerifier::SachaVerifier(fabric::Floorplan plan,
                             bitstream::DesignSpec static_spec,
                             bitstream::DesignSpec app_spec, crypto::AesKey key,
                             std::uint64_t session_seed, VerifierOptions options)
    // `plan` is deliberately copied into the delegated constructor (not
    // moved): GoldenModel::shared reads it in the same argument list.
    : SachaVerifier(plan, bs::GoldenModel::shared(plan, static_spec, app_spec),
                    key, session_seed, options) {}

SachaVerifier::SachaVerifier(fabric::Floorplan plan,
                             std::shared_ptr<const bitstream::GoldenModel> model,
                             crypto::AesKey key, std::uint64_t session_seed,
                             VerifierOptions options)
    : plan_(std::move(plan)),
      bitgen_(plan_.device()),
      idcode_(config::device_idcode(plan_.device())),
      key_(key),
      session_seed_(session_seed),
      options_(options),
      model_(std::move(model)),
      stream_cmac_(key) {
  assert(plan_.validate().ok());
  assert(model_ != nullptr);
  assert(model_->total_frames() == plan_.device().total_frames() &&
         model_->words_per_frame() ==
             plan_.device().geometry().words_per_frame() &&
         "golden model built for a different device");
  words_per_frame_ = model_->words_per_frame();
  // Every stream opens sync, IDCODE, the CMD, then the FAR write whose word
  // each round patches.
  const auto head = [this](bs::CmdOp op, StreamTemplate& t) {
    bs::PacketWriter w;
    w.sync();
    w.write_idcode(idcode_);
    w.cmd(op);
    w.write_far({});
    t.far_at = static_cast<std::uint32_t>(w.words().size() - 1);
    return w;
  };
  bs::PacketWriter config = head(bs::CmdOp::kWcfg, config_template_);
  config.write_frames(std::vector<std::uint32_t>(words_per_frame_));
  config_template_.slot_at =
      static_cast<std::uint32_t>(config.words().size() - words_per_frame_);
  config.cmd(bs::CmdOp::kDesync);
  config_template_.words = config.take();
  // A readback's count word holds zero; each round adds its own count.
  const auto readback = [&head](std::uint32_t count) {
    StreamTemplate t;
    bs::PacketWriter w = head(bs::CmdOp::kRcfg, t);
    w.read_request(count);
    t.slot_at = static_cast<std::uint32_t>(w.words().size() - 1);
    w.cmd(bs::CmdOp::kDesync);
    t.words = w.take();
    t.words[t.slot_at] -= count;
    return t;
  };
  readback_short_ = readback(0);
  readback_long_ = readback(bs::kType1MaxCount + 1);
}

void SachaVerifier::set_app_spec(bitstream::DesignSpec spec) {
  model_ = bs::GoldenModel::shared(plan_, model_->static_spec(), spec);
}

void SachaVerifier::begin() {
  static obs::Counter& sessions =
      obs::MetricsRegistry::global().counter("sacha.verifier.sessions_begun");
  sessions.add(1);
  crypto::Prg prg(session_seed_ + session_counter_++, "sacha-session");
  nonce_ = prg.next_u64();
  nonce_image_ = bitgen_.nonce_frame(nonce_);

  const std::uint32_t total = plan_.device().total_frames();
  steps_.clear();
  const std::uint32_t per_step = std::max(1u, options_.frames_per_readback);
  if (options_.refresh_only && options_.probe_coverage < 1.0 &&
      options_.probe_coverage > 0.0) {
    // Probe schedule: the nonce frame plus a fresh random sample of the
    // memory, in random order. The sample is drawn from the session PRG, so
    // an adversary cannot predict which frames the next probe inspects.
    const auto target = static_cast<std::uint32_t>(std::max(
        1.0, options_.probe_coverage * static_cast<double>(total) + 0.5));
    steps_.reserve(std::min(target, total));
    Rng probe_rng(prg.next_u64());
    std::vector<std::uint32_t> perm = probe_rng.permutation(total);
    perm.resize(std::min<std::size_t>(target, perm.size()));
    const std::uint32_t nonce_frame = model_->nonce_frame();
    if (std::find(perm.begin(), perm.end(), nonce_frame) == perm.end()) {
      perm.back() = nonce_frame;  // freshness: the nonce is always probed
    }
    for (std::uint32_t f : perm) steps_.emplace_back(f, 1);
  } else if (per_step > 1 ||
             options_.order == ReadbackOrder::kSequentialFromZero) {
    steps_.reserve((total + per_step - 1) / per_step);
    for (std::uint32_t f = 0; f < total; f += per_step) {
      steps_.emplace_back(f, std::min(per_step, total - f));
    }
  } else if (options_.order == ReadbackOrder::kSequentialFromOffset) {
    // The PoC's schedule: start at a verifier-chosen offset i, wrap mod N.
    const auto offset = static_cast<std::uint32_t>(prg.next_u64() % total);
    steps_.reserve(total);
    for (std::uint32_t k = 0; k < total; ++k) {
      steps_.emplace_back((offset + k) % total, 1);
    }
  } else {
    Rng rng(prg.next_u64());
    steps_.reserve(total);
    for (std::uint32_t f : rng.permutation(total)) steps_.emplace_back(f, 1);
  }
  scheduled_.assign(total, 0);
  for (const auto& [first, count] : steps_) {
    for (std::uint32_t f = 0; f < count; ++f) scheduled_[first + f] = 1;
  }

  config_commands_ = config_command_count();
  stream_cmac_.reset();
  streamed_mac_.reset();
  next_stream_step_ = 0;
  covered_.assign(total, 0);
  mismatch_frame_.reset();
  received_mac_.reset();
  protocol_error_.reset();
  protocol_failure_ = FailureKind::kNone;
  schedule_error_ = check_message_sizes();
  if (schedule_error_.has_value()) {
    (void)fail(FailureKind::kDecodeError, *schedule_error_);
  }
}

std::optional<std::string> SachaVerifier::check_message_sizes() const {
  // Every message of the frozen schedule must fit the wire's 16-bit length
  // field; the widest configuration chunk, the widest readback step and
  // its frame-data response decide.
  const auto too_big = [](const std::string& what,
                          std::size_t body) -> std::optional<std::string> {
    if (body <= kMaxBodyBytes) return std::nullopt;
    return what + " needs a " + std::to_string(body) +
           "-byte message body; the wire's 16-bit length field holds at most " +
           std::to_string(kMaxBodyBytes);
  };
  const std::uint32_t per = std::max(1u, options_.frames_per_config);
  std::size_t slot = 0;
  std::size_t widest_slot = config_commands_ - 1;  // the nonce frame
  std::uint32_t widest = 1;
  if (!options_.refresh_only) {
    for (const fabric::FrameRange& r : model_->app_ranges()) {
      if (std::min(per, r.count) > widest) {
        widest = std::min(per, r.count);
        widest_slot = slot;
      }
      slot += (r.count + per - 1) / per;
    }
  }
  Command command;
  make_config_command(widest_slot, command);
  if (auto error = too_big("configuration command",
                           command.wire_payload_bytes() - 4)) {
    return error;
  }
  if (steps_.empty()) return std::nullopt;
  const auto by_frames = [](const auto& a, const auto& b) {
    return a.second < b.second;
  };
  const auto widest_step = static_cast<std::size_t>(
      std::max_element(steps_.begin(), steps_.end(), by_frames) -
      steps_.begin());
  make_readback_command(widest_step, command);
  if (auto error = too_big("readback command",
                           command.wire_payload_bytes() - 4)) {
    return error;
  }
  const std::uint32_t frames = steps_[widest_step].second;
  return too_big("readback step of " + std::to_string(frames) + " frames",
                 std::size_t{frames} * words_per_frame_ * 4);
}

Status SachaVerifier::fail(FailureKind kind, std::string message) {
  // The verdict reports the first failure; later ones only reach the
  // caller's Status.
  if (!protocol_error_.has_value()) {
    protocol_error_ = message;
    protocol_failure_ = kind;
  }
  return Status::error(std::move(message));
}

std::size_t SachaVerifier::config_command_count() const {
  if (options_.refresh_only) return 1;  // nonce frame only (§5.2.2)
  const std::uint32_t per = std::max(1u, options_.frames_per_config);
  std::size_t slots = 0;
  for (const fabric::FrameRange& r : model_->app_ranges()) {
    slots += (r.count + per - 1) / per;  // chunks never straddle regions
  }
  return slots + 1;  // +1: nonce frame
}

std::size_t SachaVerifier::command_count() const {
  return config_command_count() + steps_.size() + 1;  // +1: MAC_checksum
}

void SachaVerifier::set_padded(Command& out, CommandType type,
                               std::uint32_t frame_nb,
                               std::uint32_t target_words) {
  // The padding is a count: encode() spells it out as NOOP words, the
  // prover's RX FSM strips them, so in memory they never exist.
  out.type = type;
  out.frame_nb = frame_nb;
  const auto words = static_cast<std::uint32_t>(out.stream.size());
  out.padding = words < target_words ? target_words - words : 0;
}

void SachaVerifier::stamp(const StreamTemplate& t, std::uint32_t frame,
                          std::span<const std::uint32_t> payload,
                          Command& out) const {
  out.stream.assign(t.words.begin(), t.words.end());
  out.stream[t.far_at] = plan_.device().geometry().address_of(frame).pack();
  std::copy(payload.begin(), payload.end(), out.stream.begin() + t.slot_at);
}

void SachaVerifier::make_config_command(std::size_t slot, Command& out) const {
  const std::uint32_t per = std::max(1u, options_.frames_per_config);
  if (!options_.refresh_only) {
    for (const fabric::FrameRange& range : model_->app_ranges()) {
      const std::size_t region_slots = (range.count + per - 1) / per;
      if (slot >= region_slots) {
        slot -= region_slots;
        continue;
      }
      const std::uint32_t first =
          range.first + static_cast<std::uint32_t>(slot) * per;
      const std::uint32_t count = std::min(per, range.end() - first);
      if (count == 1) {
        stamp(config_template_, first, model_->golden_words(first), out);
        set_padded(out, CommandType::kIcapConfig, 0, options_.config_pad_words);
        return;
      }
      out.stream = bitgen_.assemble(model_->golden_words(first, count), first,
                                    idcode_, std::move(out.stream));
      set_padded(out, CommandType::kIcapConfig, 0, 0);
      return;
    }
  }
  // Final configuration step: the nonce frame (Fig. 8's second phase).
  stamp(config_template_, model_->nonce_frame(),
        nonce_image_.frames[0].words(), out);
  set_padded(out, CommandType::kIcapConfig, 0, options_.config_pad_words);
}

void SachaVerifier::make_readback_command(std::size_t step,
                                          Command& out) const {
  const auto [first, count] = steps_[step];
  const std::uint32_t words = count * words_per_frame_;
  const StreamTemplate& t =
      words > bs::kType1MaxCount ? readback_long_ : readback_short_;
  stamp(t, first, {}, out);
  out.stream[t.slot_at] += words;
  set_padded(out, CommandType::kIcapReadback, first,
             options_.readback_pad_words);
}

Command SachaVerifier::command(std::size_t index) const {
  Command out;
  command_into(index, out);
  return out;
}

void SachaVerifier::command_into(std::size_t index, Command& out) const {
  const std::size_t configs = config_commands_;
  if (index < configs) {
    make_config_command(index, out);
  } else if (index < configs + steps_.size()) {
    make_readback_command(index - configs, out);
  } else {
    assert(index == configs + steps_.size());
    out.stream.clear();
    set_padded(out, CommandType::kMacChecksum, 0, 0);
  }
}

void SachaVerifier::absorb(std::span<const std::uint32_t> words,
                           MacFold* fold) {
  // Counters only on this path: it runs once per readback round (28k+ per
  // Virtex-6 session), so the per-event telemetry cost must stay at a
  // relaxed add behind the enable branch. Span-level timing lives one layer
  // up, in the session driver's readback.round spans.
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& frames_absorbed =
      registry.counter("sacha.verifier.frames_absorbed");
  static obs::Counter& words_absorbed =
      registry.counter("sacha.verifier.words_absorbed");
  const auto [first, count] = steps_[next_stream_step_];
  frames_absorbed.add(count);
  words_absorbed.add(words.size());
  const std::uint32_t wpf = model_->words_per_frame();
  const std::uint32_t nonce_frame = model_->nonce_frame();
  for (std::uint32_t f = 0; f < count; ++f) {
    const std::uint32_t frame_index = first + f;
    // The compare stops at the first mismatch in step order, so the
    // verdict names the first failing frame (the MAC still absorbs every
    // step — it is defined over the whole transcript).
    if (mismatch_frame_.has_value()) break;
    const std::span<const std::uint32_t> frame_words =
        words.subspan(static_cast<std::size_t>(f) * wpf, wpf);
    // The nonce frame's golden words are the session's, under that frame's
    // mask row; every other frame compares against its model row.
    const bool match =
        frame_index == nonce_frame
            ? bitstream::masked_words_equal(
                  frame_words.data(), nonce_image_.frames[0].words().data(),
                  model_->mask_words(nonce_frame).data(), wpf)
            : model_->frame_matches(frame_index, frame_words);
    if (!match) {
      static obs::Counter& mismatches =
          obs::MetricsRegistry::global().counter(
              "sacha.verifier.mask_mismatches");
      mismatches.add(1);
      mismatch_frame_ = frame_index;
      break;
    }
    covered_[frame_index] = 1;
  }
  // MAC fold last (it is independent of the compare — disjoint state),
  // with the device's fold of this step when its driver left it.
  if (fold != nullptr && fold->full()) {
    crypto::Cmac::update_pair(*fold->cmac, fold->words, stream_cmac_, words);
    *fold = {};
  } else {
    stream_cmac_.update(words);
  }
  if (++next_stream_step_ == steps_.size()) {
    streamed_mac_ = stream_cmac_.finalize();
  }
}

Status SachaVerifier::on_response(std::size_t index,
                                  std::optional<Response> response) {
  return on_response_in_place(index, response);
}

Status SachaVerifier::on_response_in_place(std::size_t index,
                                           std::optional<Response>& response,
                                           MacFold* fold) {
  const std::size_t configs = config_commands_;
  if (index < configs) {
    // Fire-and-forget; an error response means the device rejected a write.
    if (response.has_value() && response->type == ResponseType::kError) {
      return fail(FailureKind::kDeviceError,
                  "device rejected configuration command " +
                      std::to_string(index));
    }
    return Status();
  }
  if (index < configs + steps_.size()) {
    const std::size_t step = index - configs;
    if (step > next_stream_step_) {
      // Ahead of the chain, so never kept. Behind a failed step the verdict
      // is already that failure: drop the response unread, with no detail
      // formatted (the short status text fits std::string's inline buffer,
      // so a session that loses a response does not allocate per step).
      if (protocol_error_.has_value()) return Status::error("step dropped");
      return fail(FailureKind::kDecodeError,
                  "readback response at step " + std::to_string(step) +
                      " arrived before step " +
                      std::to_string(next_stream_step_));
    }
    if (!response.has_value() || response->type != ResponseType::kFrameData) {
      return fail(!response.has_value() ? FailureKind::kTimeoutExhausted
                  : response->type == ResponseType::kError
                      ? FailureKind::kDeviceError
                      : FailureKind::kDecodeError,
                  "missing or bad readback response at step " +
                      std::to_string(step));
    }
    const std::uint32_t expected_words = steps_[step].second * words_per_frame_;
    if (response->frame_words.size() != expected_words) {
      return fail(FailureKind::kDecodeError,
                  "readback step " + std::to_string(step) +
                      " returned wrong word count");
    }
    // A step can be absorbed into the running MAC exactly once.
    if (step < next_stream_step_) {
      return fail(FailureKind::kDecodeError,
                  "duplicate readback response at step " +
                      std::to_string(step));
    }
    absorb(response->frame_words, fold);
    return Status();
  }
  if (!response.has_value() || response->type != ResponseType::kMacValue) {
    return fail(!response.has_value() ? FailureKind::kTimeoutExhausted
                : response->type == ResponseType::kError
                    ? FailureKind::kDeviceError
                    : FailureKind::kDecodeError,
                "missing or bad MAC response");
  }
  received_mac_ = response->mac;
  return Status();
}

std::span<const std::uint32_t> SachaVerifier::golden_words(
    std::uint32_t index) const {
  if (index == model_->nonce_frame() && !nonce_image_.frames.empty()) {
    return nonce_image_.frames[0].words();
  }
  return model_->golden_words(index);
}

bool SachaVerifier::verify_mac(ByteSpan data, const crypto::Mac& mac) const {
  const crypto::Mac expected = crypto::Cmac::compute(key_, data);
  return crypto::ct_equal(expected, mac);
}

SachaVerifier::Verdict SachaVerifier::finish() const {
  Verdict verdict;
  if (protocol_error_.has_value()) {
    verdict.detail = *protocol_error_;
    verdict.kind = protocol_failure_ != FailureKind::kNone
                       ? protocol_failure_
                       : FailureKind::kTimeoutExhausted;
    (log_debug() << "verifier verdict: protocol error")
        .kv("detail", *protocol_error_);
    return verdict;
  }
  if (!received_mac_.has_value()) {
    verdict.detail = "no MAC received";
    verdict.kind = FailureKind::kTimeoutExhausted;
    return verdict;
  }
  if (next_stream_step_ < steps_.size()) {
    verdict.detail =
        "no data for readback step " + std::to_string(next_stream_step_);
    verdict.kind = FailureKind::kTimeoutExhausted;
    return verdict;
  }
  verdict.protocol_ok = true;

  // H_Vrf = MAC_K(received configuration), in readback order.
  verdict.mac_ok = streamed_mac_.has_value() &&
                   crypto::ct_equal(*streamed_mac_, *received_mac_);
  if (!verdict.mac_ok) {
    verdict.detail = "MAC mismatch: device does not hold the key or data was modified";
    verdict.kind = FailureKind::kMacMismatch;
  }

  // B_Prv == B_Vrf under Msk, every frame covered. The masked compares and
  // the coverage marking happened on arrival; only the verdict is left.
  bool config_ok = true;
  std::string config_detail;
  if (mismatch_frame_.has_value()) {
    config_ok = false;
    config_detail =
        "configuration mismatch at frame " + std::to_string(*mismatch_frame_);
  } else {
    // Coverage is required for every *scheduled* frame: the whole memory in
    // a full or refresh session, only the sample in a probe session.
    for (std::uint32_t f = 0; f < covered_.size(); ++f) {
      if (scheduled_[f] && !covered_[f]) {
        config_ok = false;
        config_detail = "frame " + std::to_string(f) + " never read back";
        break;
      }
    }
  }
  verdict.config_ok = config_ok;
  if (!config_ok && verdict.detail.empty()) verdict.detail = config_detail;
  if (!config_ok && verdict.kind == FailureKind::kNone) {
    verdict.kind = FailureKind::kMaskedCompareMismatch;
  }
  if (verdict.ok()) verdict.detail = "attested";
  return verdict;
}

}  // namespace sacha::core
