#include "core/session.hpp"

#include <chrono>
#include <optional>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace sacha::core {

namespace {

/// Ledger keys for one command round, by command type.
struct ActionKeys {
  const char* send;
  const char* device;
  const char* reply;
};

ActionKeys keys_for(CommandType type) {
  switch (type) {
    case CommandType::kIcapConfig:
      return {actions::kA1, actions::kA2, nullptr};
    case CommandType::kIcapReadback:
      return {actions::kA3, actions::kA4, actions::kA8};
    case CommandType::kMacChecksum:
      return {actions::kA9, nullptr, actions::kA10};
  }
  return {nullptr, nullptr, nullptr};
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

void SessionMachine::note_failure(FailureKind kind) {
  // First transport failure observed wins (see FailureKind's contract);
  // crypto verdicts only apply to transport-clean sessions.
  if (transport_failure_ == FailureKind::kNone) transport_failure_ = kind;
}

bool SessionMachine::past_deadline() const {
  return options_.deadline > 0 && report_.total_time >= options_.deadline;
}

SessionMachine::SessionMachine(SachaVerifier& verifier, SachaProver& prover,
                               const SessionOptions& options,
                               const SessionHooks& hooks, bool emit_spans)
    : verifier_(verifier),
      prover_(prover),
      options_(options),
      hooks_(hooks),
      emit_spans_(emit_spans),
      channel_(options.channel, options.seed),
      churn_rng_(options.seed ^ kChurnSeedSalt),
      // Drawn only when a retransmission happens, so fault-free sessions
      // are bit-identical whatever the backoff settings.
      backoff_rng_(options.seed ^ 0x5acab0ff5ac4a11eULL),
      host_start_(std::chrono::steady_clock::now()) {
  verifier_.begin();
  commands_ = verifier_.command_count();
  // Command schedule: [0, configs-1) app configuration, configs-1 the nonce
  // frame, [configs, n-1) readback rounds, n-1 the MAC checksum.
  configs_ = commands_ - verifier_.readback_steps().size() - 1;

  if (verifier_.schedule_error().has_value()) {
    // Rejected up front: no message of this schedule may reach the wire.
    note_failure(FailureKind::kDecodeError);
    aborted_ = true;
  }

  report_.trace_id = obs::make_trace_id(prover_.device_id(), verifier_.nonce());
  static obs::Counter& sessions_started =
      obs::MetricsRegistry::global().counter("sacha.session.started");
  sessions_started.add(1);

  // Session timeline: one top-level span, one child span per protocol phase
  // (the Table 4 steps), one grandchild per readback round. The phase spans
  // tile the session (see begin_phase), so the timeline covers its
  // wall-clock.
  if (emit_spans_) {
    session_span_.emplace("session", report_.trace_id);
    session_span_->arg("device", prover_.device_id());
  }
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

SessionMachine::Round SessionMachine::step() {
  const std::size_t i = next_;
  Round out;
  out.index = i;
  const sim::SimDuration elapsed_before = report_.total_time;

  if (emit_spans_) {
    if (i == 0 && configs_ > 1) begin_phase("configure.stream_in");
    if (i + 1 == configs_) {
      begin_phase("nonce.inject");
    } else if (i == configs_) {
      begin_phase("readback.absorb");
    } else if (i + 1 == commands_) {
      begin_phase("cmac.finish");
    }
    if (obs::enabled() && i >= configs_ && i + 1 < commands_) {
      round_span_.emplace("readback.round", report_.trace_id, "readback");
    }
  }
  const Command command = verifier_.command(i);
  if (round_span_.has_value()) {
    round_span_->arg("frame", std::to_string(command.frame_nb));
  }
  if (hooks_.before_command) hooks_.before_command(i, prover_);

  // Session deadline: the fleet verifier's port-occupancy bound. Abort
  // before starting another round once simulated time is exhausted.
  if (past_deadline()) {
    report_.deadline_hit = true;
    note_failure(FailureKind::kDeadlineExceeded);
    aborted_ = true;
    out.last = true;
    out.elapsed = report_.total_time - elapsed_before;
    return out;
  }

  // Phase boundary: the whole DynMem is (over)written; the application
  // starts running (register churn) and the adversary gets its window.
  if (!config_phase_done_ && command.type != CommandType::kIcapConfig) {
    config_phase_done_ = true;
    if (hooks_.after_config) hooks_.after_config(prover_);
    prover_.memory().tick_registers(churn_rng_,
                                    options_.register_flip_probability);
  }

  const ActionKeys keys = keys_for(command.type);
  std::optional<Response> final_response;
  bool delivered_and_answered = false;
  std::optional<Response> cached_device_response;  // dedup across retries
  bool device_handled = false;
  const net::WireModel& wire = options_.channel.wire;

  const std::uint32_t attempts =
      options_.reliable ? options_.max_retries + 1 : 1;
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++report_.retransmissions;
      const sim::SimDuration wait =
          backoff_wait(options_, attempt, backoff_rng_);
      report_.ledger.add(actions::kRetransmit, wait);
      report_.total_time += wait;
      report_.backoff_wait += wait;
      if (past_deadline()) {
        report_.deadline_hit = true;
        note_failure(FailureKind::kDeadlineExceeded);
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
    report_.ledger.add(keys.send, wire_up);
    report_.bytes_to_prover += wire.frame_bytes(packet_bytes);
    report_.total_time += wire_up;
    if (!uplink.has_value()) continue;  // lost in transit
    report_.ledger.add(actions::kNetLatency, *uplink - wire_up);
    report_.total_time += *uplink - wire_up;

    // Device side. Retransmitted commands the device already executed are
    // answered from the response cache (sequence-number dedup in the RX
    // FSM) so a lost *response* cannot double-step the MAC.
    SachaProver::HandleResult result;
    if (device_handled) {
      // The cache must survive further retries, but the last permitted
      // attempt can consume it instead of copying the frame payload.
      if (attempt + 1 == attempts) {
        result.response = std::move(cached_device_response);
      } else {
        result.response = cached_device_response;
      }
    } else {
      result = hooks_.on_command ? prover_.handle_packet(packet)
                                 : prover_.handle(command);
      if (result.dropped) {
        // Crashed or stalled device: the packet never reached the ICAP.
        // No dedup-cache entry — a later retransmission must actually
        // execute the command once the device recovers.
        continue;
      }
      device_handled = true;
      // Only a later attempt reads the cache, so the last one (the only
      // one in unreliable mode) skips the copy.
      if (attempt + 1 < attempts) cached_device_response = result.response;
      if (result.icap_time > 0 && keys.device != nullptr) {
        report_.ledger.add(keys.device, result.icap_time);
        report_.total_time += result.icap_time;
      }
      if (result.mac_init_time > 0) {
        report_.ledger.add(actions::kA5, result.mac_init_time);
        report_.total_time += result.mac_init_time;
      }
      if (result.mac_update_time > 0) {
        report_.ledger.add(actions::kA6, result.mac_update_time);
        report_.total_time += result.mac_update_time;
      }
      if (result.mac_finalize_time > 0) {
        report_.ledger.add(actions::kA7, result.mac_finalize_time);
        report_.total_time += result.mac_finalize_time;
      }
    }

    // Response path (or a synthetic ack in reliable mode so the verifier
    // can detect loss of fire-and-forget configuration commands).
    std::optional<Response> response = std::move(result.response);
    if (!response.has_value() && options_.reliable) {
      response =
          Response{.type = ResponseType::kAck, .status = ProverStatus::kOk};
    }
    if (!response.has_value()) {
      final_response = std::nullopt;
      delivered_and_answered = true;
      break;
    }
    Bytes reply;
    std::size_t reply_bytes = response->wire_payload_bytes();
    if (hooks_.on_response) {
      reply = response->encode();
      if (!hooks_.on_response(reply)) {
        continue;  // response suppressed
      }
      reply_bytes = reply.size();
    }
    const auto downlink = channel_.transfer(reply_bytes);
    const sim::SimDuration wire_down = wire.frame_time(reply_bytes);
    const char* reply_key = keys.reply;
    if (response->type == ResponseType::kAck) reply_key = actions::kAck;
    if (response->type == ResponseType::kError) reply_key = actions::kAck;
    if (reply_key != nullptr) {
      report_.ledger.add(reply_key, wire_down);
      report_.total_time += wire_down;
      report_.bytes_to_verifier += wire.frame_bytes(reply_bytes);
    }
    if (!downlink.has_value()) continue;  // response lost
    report_.ledger.add(actions::kNetLatency, *downlink - wire_down);
    report_.total_time += *downlink - wire_down;

    if (!hooks_.on_response) {
      final_response = std::move(response);
    } else if (auto decoded = Response::decode(reply); decoded.ok()) {
      final_response = std::move(decoded).take();
    } else if (options_.reliable) {
      // Undecodable response: corruption the transport checksum would
      // have caught on a real link. Treat it exactly like loss and
      // retransmit — the dedup cache answers, so the prover MAC cannot
      // double-step.
      continue;
    } else {
      note_failure(FailureKind::kDecodeError);
      final_response = std::nullopt;
    }
    if (final_response.has_value() &&
        final_response->type == ResponseType::kAck) {
      final_response = std::nullopt;  // acks are transport-level only
    }
    if (final_response.has_value() &&
        final_response->type == ResponseType::kError) {
      note_failure(FailureKind::kDeviceError);
    }
    delivered_and_answered = true;
    break;
  }

  if (report_.deadline_hit) {  // deadline tripped mid-retry loop
    aborted_ = true;
    out.last = true;
    out.elapsed = report_.total_time - elapsed_before;
    return out;
  }
  if (delivered_and_answered || !options_.reliable) {
    out.deliver = true;
    out.response = std::move(final_response);
  } else {
    // Retries exhausted: record the absence so finish() reports it.
    note_failure(FailureKind::kTimeoutExhausted);
    static obs::Counter& exhausted = obs::MetricsRegistry::global().counter(
        "sacha.session.retries_exhausted");
    exhausted.add(1);
    out.deliver = true;
    out.response = Response{.type = ResponseType::kError,
                            .status = ProverStatus::kBadCommand};
  }
  if (out.response.has_value() &&
      out.response->type == ResponseType::kFrameData) {
    out.verify_words = out.response->frame_words.size();
  }
  ++next_;
  out.last = next_ >= commands_;
  out.elapsed = report_.total_time - elapsed_before;
  return out;
}

void SessionMachine::deliver(Round round) {
  if (round.deliver) {
    (void)verifier_.on_response(round.index, std::move(round.response));
  }
  // Close the round's readback span (a no-op for config rounds and in
  // engine mode, where no spans are opened).
  if (emit_spans_) round_span_.reset();
}

AttestationReport SessionMachine::finish() {
  for (const char* key :
       {actions::kA1, actions::kA2, actions::kA3, actions::kA4, actions::kA5,
        actions::kA6, actions::kA7, actions::kA8, actions::kA9,
        actions::kA10}) {
    report_.theoretical_time += report_.ledger.total(key);
  }
  round_span_.reset();
  // Streaming mode did its masked compares during readback.absorb; this
  // phase is where the retained oracle does all of its comparing.
  if (emit_spans_) begin_phase("compare.verdict");
  report_.verdict = verifier_.finish();
  // The session span ends where its last phase does.
  const std::uint64_t verdict_end = emit_spans_ ? begin_phase(nullptr) : 0;
  report_.verifier_retained_bytes = verifier_.retained_readback_bytes();
  report_.messages_lost = channel_.messages_lost();
  report_.channel_time = channel_.transfer_time();
  // Typed cause: the first transport failure wins; a transport-clean
  // session inherits the verifier's crypto classification.
  report_.failure = transport_failure_ != FailureKind::kNone
                        ? transport_failure_
                        : report_.verdict.kind;
  if (report_.failure != FailureKind::kNone && session_span_.has_value()) {
    session_span_->arg("failure", to_string(report_.failure));
  }
  if (session_span_.has_value()) session_span_->end_at(verdict_end);
  session_span_.reset();
  report_.host_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - host_start_)
          .count());

  {
    auto& registry = obs::MetricsRegistry::global();
    static obs::Counter& attested = registry.counter("sacha.session.attested");
    static obs::Counter& failed = registry.counter("sacha.session.failed");
    static obs::Counter& commands = registry.counter("sacha.session.commands");
    static obs::Counter& retransmissions =
        registry.counter("sacha.session.retransmissions");
    static obs::Histogram& host_hist =
        registry.histogram("sacha.session.host_ns");
    (report_.verdict.ok() ? attested : failed).add(1);
    commands.add(report_.commands_sent);
    retransmissions.add(report_.retransmissions);
    host_hist.observe(report_.host_ns);
    if (report_.failure != FailureKind::kNone) {
      // Per-cause counters so fleet dashboards can alert on tampering
      // (mac_mismatch) separately from infrastructure rot (timeouts).
      registry
          .counter(std::string("sacha.session.failure.") +
                   to_string(report_.failure))
          .add(1);
    }
    if (report_.backoff_wait > 0) {
      static obs::Histogram& backoff_hist =
          registry.histogram("sacha.session.backoff_sim_ns");
      backoff_hist.observe(report_.backoff_wait);
    }
  }
  if (log_enabled(LogLevel::kDebug)) {
    (log_debug() << "attestation session finished")
        .kv("device", prover_.device_id())
        .kv("nonce", verifier_.nonce())
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
  while (!machine.done()) machine.deliver(machine.step());
  return machine.finish();
}

void apply_register_churn(SachaProver& prover, std::uint64_t session_seed,
                          double flip_probability) {
  Rng rng(session_seed ^ kChurnSeedSalt);
  prover.memory().tick_registers(rng, flip_probability);
}

namespace {
/// Lane-key salt for verifier-side span records: both halves of a
/// cross-process timeline key their Chrome lane off the trace id (not the
/// OS thread — verify strands hop threads), the verifier half offset so
/// prover and verifier render as two adjacent lanes per session.
constexpr std::uint64_t kVerifierLaneSalt = 0x5643;  // "VC"
}  // namespace

VerifierSession::VerifierSession(SachaVerifier& verifier)
    : verifier_(verifier), host_start_(std::chrono::steady_clock::now()) {
  verifier_.begin();
  if (verifier_.schedule_error().has_value()) {
    // Rejected up front, exactly as SessionMachine does: nothing to issue,
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

void VerifierSession::set_trace(const obs::TraceId& trace, bool sampled) {
  trace_ = trace;
  sampled_ = sampled;
  // The propagated flag is authoritative (it IS the client's deterministic
  // decision); telemetry still has to be on locally for spans to exist.
  tracing_ = sampled_ && trace_.valid() && obs::enabled();
  if (tracing_) session_start_ns_ = obs::Tracer::global().now_ns();
}

void VerifierSession::emit_span(const char* name, const char* category,
                                std::uint64_t start, std::uint64_t end,
                                std::uint32_t depth) {
  obs::SpanRecord r;
  r.name = name;
  r.category = category;
  r.trace = trace_;
  r.thread_id = trace_.lo ^ kVerifierLaneSalt;
  r.start_ns = start;
  r.duration_ns = end > start ? end - start : 0;
  r.depth = depth;
  r.args.emplace_back("side", "verifier");
  if (std::string_view(category) == "phase") {
    obs::observe_phase_duration(r.name, r.duration_ns);
  }
  timeline_.push_back(r);
  obs::Tracer::global().record(std::move(r));
}

void VerifierSession::begin_phase(const char* name) {
  if (!tracing_) return;
  const std::uint64_t now = obs::Tracer::global().now_ns();
  if (phase_name_ != nullptr) {
    emit_span(phase_name_, "phase", phase_start_ns_, now, 1);
  }
  phase_name_ = name;
  phase_start_ns_ = now;
}

std::optional<Bytes> VerifierSession::next_command_wire() {
  if (issued_ >= commands_) return std::nullopt;
  return verifier_.command(issued_++).encode();
}

void VerifierSession::on_response(std::optional<Response> response) {
  if (delivered_ >= commands_) return;
  // Phase boundaries mirror SessionMachine::step(): [0, configs-1) app
  // configuration, configs-1 the nonce frame, [configs, n-1) readback,
  // n-1 the MAC checksum. Measured between response deliveries — the
  // verifier-side view of where the session's wall-clock went.
  const std::size_t i = delivered_;
  if (i == 0 && configs_ > 1) begin_phase("configure.stream_in");
  if (i + 1 == configs_) {
    begin_phase("nonce.inject");
  } else if (i == configs_) {
    begin_phase("readback.absorb");
  } else if (i + 1 == commands_) {
    begin_phase("cmac.finish");
  }
  if (response.has_value()) {
    if (response->type == ResponseType::kAck) {
      response = std::nullopt;  // acks are transport-level only
    } else if (response->type == ResponseType::kError) {
      note_failure(FailureKind::kDeviceError);
    }
  }
  (void)verifier_.on_response(delivered_++, std::move(response));
}

void VerifierSession::note_failure(FailureKind kind) {
  if (transport_failure_ == FailureKind::kNone) transport_failure_ = kind;
}

VerifierSession::Report VerifierSession::finish() {
  Report report;
  begin_phase("compare.verdict");
  report.verdict = verifier_.finish();
  begin_phase(nullptr);  // close compare.verdict
  if (tracing_) {
    // Top-level verifier-side session span, parent of the phases above.
    emit_span("session", "session", session_start_ns_,
              obs::Tracer::global().now_ns(), 0);
    tracing_ = false;
  }
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
    registry
        .counter(std::string("sacha.session.failure.") +
                 to_string(report.failure))
        .add(1);
  }
  return report;
}

}  // namespace sacha::core
