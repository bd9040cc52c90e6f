#include "core/session.hpp"

#include <array>
#include <chrono>
#include <optional>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace sacha::core {

namespace {

/// Seed salt for the phase-boundary register-churn RNG.
constexpr std::uint64_t kChurnSeedSalt = 0xfeedface12345678ULL;

/// Ledger rows for one command round, by command type.
struct RoundActions {
  Action send;
  std::optional<Action> device;
  std::optional<Action> reply;
};

RoundActions actions_for(CommandType type) {
  switch (type) {
    case CommandType::kIcapConfig:
      return {Action::kA1, Action::kA2, std::nullopt};
    case CommandType::kIcapReadback:
      return {Action::kA3, Action::kA4, Action::kA8};
    case CommandType::kMacChecksum:
      break;
  }
  return {Action::kA9, std::nullopt, Action::kA10};
}

/// Backoff wait before retry `attempt` (1-based): exponential in the
/// multiplier, capped, plus uniform jitter so fleet retries desynchronise.
/// Only called when a retry actually happens, so fault-free sessions never
/// draw from `rng` (seed-for-seed bit-identity with the pre-backoff code).
sim::SimDuration backoff_wait(const SessionOptions& options,
                              std::uint32_t attempt, Rng& rng) {
  double wait = static_cast<double>(options.retransmit_timeout);
  for (std::uint32_t i = 1; i < attempt; ++i) {
    wait *= options.backoff_multiplier;
    if (wait >= static_cast<double>(options.backoff_cap)) break;
  }
  auto capped = static_cast<sim::SimDuration>(wait);
  if (options.backoff_cap > 0 && capped > options.backoff_cap) {
    capped = options.backoff_cap;
  }
  if (options.backoff_jitter > 0.0 && capped > 0) {
    const auto span = static_cast<sim::SimDuration>(
        static_cast<double>(capped) * options.backoff_jitter);
    if (span > 0) capped += rng.below(span + 1);
  }
  return capped;
}

}  // namespace

const char* action_key(Action action) {
  static constexpr std::array<const char*, kActionCount> kKeys = {
      actions::kA1,         actions::kA2,         actions::kA3,
      actions::kA4,         actions::kA5,         actions::kA6,
      actions::kA7,         actions::kA8,         actions::kA9,
      actions::kA10,        actions::kNetLatency, actions::kRetransmit,
      actions::kAck};
  return kKeys[static_cast<std::size_t>(action)];
}

void apply_register_churn(SachaProver& prover, std::uint64_t session_seed,
                          double flip_probability) {
  Rng rng(session_seed ^ kChurnSeedSalt);
  prover.memory().tick_registers(rng, flip_probability);
}

// ---- Verifier half ---------------------------------------------------------

namespace {
/// Lane-key salt for verifier-side span records: both halves of a
/// cross-process timeline key their Chrome lane off the trace id (not the
/// OS thread — one loop thread carries many sessions), the verifier half
/// offset so prover and verifier render as two adjacent lanes per session.
constexpr std::uint64_t kVerifierLaneSalt = 0x5643;  // "VC"
}  // namespace

VerifierSession::VerifierSession(SachaVerifier& verifier)
    : verifier_(verifier),
      host_start_(std::chrono::steady_clock::now()),
      timeline_("verifier", kVerifierLaneSalt, /*keep_records=*/true) {
  verifier_.begin();
  if (verifier_.schedule_error().has_value()) {
    // Rejected up front: no message of this schedule may reach the wire,
    // and finish() reports the verifier's detail as kDecodeError.
    note_failure(FailureKind::kDecodeError);
  } else {
    commands_ = verifier_.command_count();
    configs_ = commands_ - verifier_.readback_steps().size() - 1;
  }
  static obs::Counter& sessions_started =
      obs::MetricsRegistry::global().counter("sacha.session.started");
  sessions_started.add(1);
}

const char* VerifierSession::phase_at(std::size_t index) const {
  if (index + 1 == configs_) return "nonce.inject";
  if (index == 0 && configs_ > 1) return "configure.stream_in";
  if (index == configs_) return "readback.absorb";
  if (index + 1 == commands_) return "cmac.finish";
  return nullptr;
}

void VerifierSession::next_command(Command& out) {
  verifier_.command_into(issued_++, out);
}

std::optional<Bytes> VerifierSession::next_command_wire() {
  if (all_issued()) return std::nullopt;
  Command command;
  next_command(command);
  return command.encode();
}

void VerifierSession::on_response(std::optional<Response> response) {
  on_response_in_place(response);
}

void VerifierSession::on_response_in_place(std::optional<Response>& response,
                                           MacFold* fold) {
  if (done()) return;
  // Verifier-side phases are measured between response deliveries.
  if (const char* phase = phase_at(delivered_)) timeline_.phase(phase);
  if (response.has_value()) {
    if (response->type == ResponseType::kAck) {
      response = std::nullopt;  // acks are transport-level only
    } else if (response->type == ResponseType::kError) {
      note_failure(FailureKind::kDeviceError);
    }
  }
  (void)verifier_.on_response_in_place(delivered_++, response, fold);
}

void VerifierSession::on_retries_exhausted() {
  note_failure(FailureKind::kTimeoutExhausted);
  on_response(Response{.type = ResponseType::kError,
                       .status = ProverStatus::kBadCommand});
}

void VerifierSession::note_failure(FailureKind kind) {
  if (transport_failure_ == FailureKind::kNone) transport_failure_ = kind;
}

VerifierSession::Report VerifierSession::finish() {
  Report report;
  timeline_.phase(kVerdictPhase);
  report.verdict = verifier_.finish();
  timeline_.finish();
  // Typed cause: the first transport failure wins; a transport-clean
  // session inherits the verifier's crypto classification.
  report.failure = transport_failure_ != FailureKind::kNone
                       ? transport_failure_
                       : report.verdict.kind;
  report.expected_mac = verifier_.expected_mac();
  report.commands = delivered_;
  report.host_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - host_start_)
          .count());
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& attested = registry.counter("sacha.session.attested");
  static obs::Counter& failed = registry.counter("sacha.session.failed");
  (report.verdict.ok() ? attested : failed).add(1);
  if (report.failure != FailureKind::kNone) {
    // Per-cause counters so fleet dashboards can alert on tampering
    // (mac_mismatch) separately from infrastructure rot (timeouts).
    registry
        .counter(std::string("sacha.session.failure.") +
                 to_string(report.failure))
        .add(1);
  }
  return report;
}

// ---- Prover half -----------------------------------------------------------

ProverSession::ProverSession(SachaProver& device,
                             std::function<void(SachaProver&)> after_config,
                             std::uint64_t session_seed,
                             double flip_probability)
    : device_(device),
      after_config_(std::move(after_config)),
      session_seed_(session_seed),
      flip_probability_(flip_probability) {}

void ProverSession::note_command(CommandType type) {
  if (config_phase_done_ || type == CommandType::kIcapConfig) return;
  // Phase boundary: the whole DynMem is (over)written; the adversary gets
  // its window, then the application starts running (register churn).
  config_phase_done_ = true;
  if (after_config_) after_config_(device_);
  apply_register_churn(device_, session_seed_, flip_probability_);
}

// ---- In-process driver -----------------------------------------------------

bool SessionMachine::past_deadline() const {
  return options_.deadline > 0 && report_.total_time >= options_.deadline;
}

SessionMachine::SessionMachine(SachaVerifier& verifier, SachaProver& prover,
                               const SessionOptions& options,
                               const SessionHooks& hooks)
    : options_(options),
      hooks_(hooks),
      verifier_(verifier),
      prover_(prover, hooks.after_config, options.seed,
              options.register_flip_probability),
      channel_(options.channel, options.seed),
      // Drawn only when a retransmission happens, so fault-free sessions
      // are bit-identical whatever the backoff settings.
      backoff_rng_(options.seed ^ 0x5acab0ff5ac4a11eULL) {
  rows_.fill(kUnbooked);
  report_.trace_id = obs::make_trace_id(prover.device_id(), verifier.nonce());

  // Session timeline: one top-level span, one child span per protocol phase
  // (the Table 4 steps), one grandchild per readback round. The phase spans
  // tile the session (see begin_phase), so the timeline covers its
  // wall-clock.
  session_span_.emplace("session", report_.trace_id);
  session_span_->arg("device", prover.device_id());
}

std::uint64_t SessionMachine::begin_phase(const char* name) {
  // One clock reading ends the running phase and starts the next, and the
  // first phase starts where the session span did; the Tracer append and
  // the new span's set-up happen after the reading, so they fall inside a
  // phase instead of between two.
  std::uint64_t at = session_span_->start_ns();
  if (phase_span_.has_value() && phase_span_->active()) {
    at = obs::Tracer::global().now_ns();
    phase_span_->end_at(at);
  }
  phase_span_.reset();
  if (name != nullptr) phase_span_.emplace(name, report_.trace_id, "phase", at);
  return at;
}

void SessionMachine::book(Action action, sim::SimDuration duration) {
  std::size_t& row = rows_[static_cast<std::size_t>(action)];
  if (row == kUnbooked) row = report_.ledger.row(action_key(action));
  report_.ledger.add_at(row, duration);
}

SessionMachine::Round SessionMachine::step() {
  const std::size_t i = verifier_.issued();
  Round out;
  const sim::SimDuration elapsed_before = report_.total_time;

  if (const char* phase = verifier_.phase_at(i)) begin_phase(phase);
  verifier_.next_command(command_);
  const Command& command = command_;
  std::optional<obs::Span> round_span;
  if (obs::enabled() && command.type == CommandType::kIcapReadback) {
    round_span.emplace("readback.round", report_.trace_id, "readback");
    round_span->arg("frame", std::to_string(command.frame_nb));
  }
  if (hooks_.before_command) hooks_.before_command(i, prover_.device());

  // Session deadline: the fleet verifier's port-occupancy bound. Abort
  // before starting another round once simulated time is exhausted.
  if (past_deadline()) {
    report_.deadline_hit = true;
    verifier_.note_failure(FailureKind::kDeadlineExceeded);
    aborted_ = true;
    return out;
  }
  prover_.note_command(command.type);

  const RoundActions keys = actions_for(command.type);
  // The device's answer, kept to the end of the round: a retransmission is
  // answered from it, and the prover's MAC fold the device leaves in `fold`
  // reads its words, so the fold runs before the answer goes.
  std::optional<Response> answer;
  MacFold fold;
  std::optional<Response> final_response;
  bool delivered_and_answered = false;
  const net::WireModel& wire = options_.channel.wire;

  const std::uint32_t attempts =
      options_.reliable ? options_.max_retries + 1 : 1;
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++report_.retransmissions;
      const sim::SimDuration wait =
          backoff_wait(options_, attempt, backoff_rng_);
      book(Action::kRetransmit, wait);
      report_.total_time += wait;
      report_.backoff_wait += wait;
      if (past_deadline()) {
        report_.deadline_hit = true;
        verifier_.note_failure(FailureKind::kDeadlineExceeded);
        break;
      }
    }
    // The command crosses as words. Bytes exist only for an armed byte
    // hook, which sees (and may rewrite or drop) exactly the packet a
    // socket would carry; the device then decodes what the hook left.
    Bytes packet;
    std::size_t packet_bytes = command.wire_payload_bytes();
    if (hooks_.on_command) {
      packet = command.encode();
      if (!hooks_.on_command(packet)) {
        continue;  // dropped by the adversary-in-the-middle
      }
      packet_bytes = packet.size();
    }
    ++report_.commands_sent;
    const auto uplink = channel_.transfer(packet_bytes);
    // Wire occupancy is charged even for lost packets (the sender still
    // transmits); latency/jitter above the nominal wire time goes to the
    // latency bucket.
    const sim::SimDuration wire_up = wire.frame_time(packet_bytes);
    book(keys.send, wire_up);
    report_.bytes_to_prover += wire.frame_bytes(packet_bytes);
    report_.total_time += wire_up;
    if (!uplink.has_value()) continue;  // lost in transit
    book(Action::kNetLatency, *uplink - wire_up);
    report_.total_time += *uplink - wire_up;

    // Device side. Retransmitted commands the device already executed are
    // answered from `answer` (sequence-number dedup in the RX FSM) so a
    // lost *response* cannot double-step the MAC. Only reliable mode
    // retransmits, and there every executed command has an answer.
    if (!answer.has_value()) {
      // The prover reads back into the buffer the last response handed
      // back, so a round's frame data costs no allocation.
      SachaProver& device = prover_.device();
      SachaProver::HandleResult result =
          hooks_.on_command
              ? device.handle_packet(packet, std::move(frame_buffer_), &fold)
              : device.handle(command, std::move(frame_buffer_), &fold);
      if (result.dropped) {
        // Crashed or stalled device: the packet never reached the ICAP.
        // Nothing to answer from — a later retransmission must actually
        // execute the command once the device recovers.
        continue;
      }
      answer = std::move(result.response);
      // No response, but a synthetic ack in reliable mode, so the verifier
      // can detect loss of fire-and-forget configuration commands.
      if (!answer.has_value() && options_.reliable) answer = Response::ack();
      if (result.icap_time > 0 && keys.device.has_value()) {
        book(*keys.device, result.icap_time);
        report_.total_time += result.icap_time;
      }
      if (result.mac_init_time > 0) {
        book(Action::kA5, result.mac_init_time);
        report_.total_time += result.mac_init_time;
      }
      if (result.mac_update_time > 0) {
        book(Action::kA6, result.mac_update_time);
        report_.total_time += result.mac_update_time;
      }
      if (result.mac_finalize_time > 0) {
        book(Action::kA7, result.mac_finalize_time);
        report_.total_time += result.mac_finalize_time;
      }
    }

    // Response path.
    if (!answer.has_value()) {
      final_response = std::nullopt;
      delivered_and_answered = true;
      break;
    }
    Bytes reply;
    std::size_t reply_bytes = answer->wire_payload_bytes();
    if (hooks_.on_response) {
      reply = answer->encode();
      if (!hooks_.on_response(reply)) {
        continue;  // response suppressed
      }
      reply_bytes = reply.size();
    }
    const auto downlink = channel_.transfer(reply_bytes);
    const sim::SimDuration wire_down = wire.frame_time(reply_bytes);
    // Acks and errors go to the acknowledgement row, not a sendback row.
    const std::optional<Action> reply_key =
        answer->is_sendback() ? keys.reply : Action::kAck;
    if (reply_key.has_value()) {
      book(*reply_key, wire_down);
      report_.total_time += wire_down;
      report_.bytes_to_verifier += wire.frame_bytes(reply_bytes);
    }
    if (!downlink.has_value()) continue;  // response lost
    book(Action::kNetLatency, *downlink - wire_down);
    report_.total_time += *downlink - wire_down;

    if (!hooks_.on_response) {
      final_response = std::move(answer);  // its words stay where `fold` reads
    } else if (auto decoded = Response::decode(reply); decoded.ok()) {
      final_response = std::move(decoded).take();
    } else if (options_.reliable) {
      // Undecodable response: corruption the transport checksum would
      // have caught on a real link. Treat it exactly like loss and
      // retransmit — `answer` answers, so the prover MAC cannot
      // double-step.
      continue;
    } else {
      verifier_.note_failure(FailureKind::kDecodeError);
      final_response = std::nullopt;
    }
    delivered_and_answered = true;
    break;
  }

  if (report_.deadline_hit) {  // deadline tripped mid-retry loop
    aborted_ = true;
  } else if (delivered_and_answered || !options_.reliable) {
    if (final_response.has_value()) {
      out.verify_words = final_response->frame_words.size();
    }
    verifier_.on_response_in_place(final_response, &fold);
    // Whatever frame storage the verifier left in place carries the next
    // readback.
    if (final_response.has_value()) {
      frame_buffer_ = std::move(final_response->frame_words);
    }
  } else {
    // Retries exhausted: the verifier records the absence.
    static obs::Counter& exhausted = obs::MetricsRegistry::global().counter(
        "sacha.session.retries_exhausted");
    exhausted.add(1);
    verifier_.on_retries_exhausted();
  }
  // A fold the verifier did not pair (no step absorbed this round) runs
  // alone, while `answer` or frame_buffer_ still holds its words.
  if (fold.full()) fold.run();
  out.elapsed = report_.total_time - elapsed_before;
  return out;
}

AttestationReport SessionMachine::finish() {
  for (const char* key :
       {actions::kA1, actions::kA2, actions::kA3, actions::kA4, actions::kA5,
        actions::kA6, actions::kA7, actions::kA8, actions::kA9,
        actions::kA10}) {
    report_.theoretical_time += report_.ledger.total(key);
  }
  // The masked compares ran during readback.absorb; this phase only
  // assembles the verdict.
  begin_phase(VerifierSession::kVerdictPhase);
  VerifierSession::Report verdict = verifier_.finish();
  // The session span ends where its last phase does.
  const std::uint64_t verdict_end = begin_phase(nullptr);
  report_.verdict = std::move(verdict.verdict);
  report_.failure = verdict.failure;
  report_.host_ns = verdict.host_ns;
  report_.messages_lost = channel_.messages_lost();
  report_.channel_time = channel_.transfer_time();
  if (report_.failure != FailureKind::kNone && session_span_.has_value()) {
    session_span_->arg("failure", to_string(report_.failure));
  }
  if (session_span_.has_value()) session_span_->end_at(verdict_end);
  session_span_.reset();

  {
    auto& registry = obs::MetricsRegistry::global();
    static obs::Counter& commands = registry.counter("sacha.session.commands");
    static obs::Counter& retransmissions =
        registry.counter("sacha.session.retransmissions");
    static obs::Histogram& host_hist =
        registry.histogram("sacha.session.host_ns");
    commands.add(report_.commands_sent);
    retransmissions.add(report_.retransmissions);
    host_hist.observe(report_.host_ns);
    if (report_.backoff_wait > 0) {
      static obs::Histogram& backoff_hist =
          registry.histogram("sacha.session.backoff_sim_ns");
      backoff_hist.observe(report_.backoff_wait);
    }
  }
  if (log_enabled(LogLevel::kDebug)) {
    (log_debug() << "attestation session finished")
        .kv("device", prover_.device().device_id())
        .kv("nonce", verifier_.verifier().nonce())
        .kv("trace", obs::to_string(report_.trace_id))
        .kv("verdict", report_.verdict.ok() ? "attested" : "failed")
        .kv("failure", to_string(report_.failure))
        .kv("commands", report_.commands_sent)
        .kv("retransmissions", report_.retransmissions)
        .kv("messages_lost", report_.messages_lost)
        .kv("host_ms", static_cast<double>(report_.host_ns) / 1e6);
  }
  return std::move(report_);
}

AttestationReport run_attestation(SachaVerifier& verifier, SachaProver& prover,
                                  const SessionOptions& options,
                                  const SessionHooks& hooks) {
  SessionMachine machine(verifier, prover, options, hooks);
  while (!machine.done()) machine.step();
  return machine.finish();
}

}  // namespace sacha::core
