// Attestation session driver.
//
// Connects a SachaVerifier to a SachaProver over a simulated channel and
// executes the full protocol of Fig. 9, accounting simulated time per
// low-level action (A1-A10 of Table 3) in a ledger. The report separates
// the paper's two headline numbers: `theoretical_time` (wire occupancy +
// device work, 1.44 s on the PoC) and `total_time` (adding per-command
// network latency, 28.5 s in the authors' lab).
//
// Adversaries plug in through SessionHooks: a tamper window between the
// configuration and readback phases, and command/response interceptors on
// the public channel (the "local adversary controlling the communication"
// of the threat model).
#pragma once

#include <chrono>
#include <functional>
#include <optional>

#include "core/failure.hpp"
#include "core/prover.hpp"
#include "core/verifier.hpp"
#include "net/channel.hpp"
#include "obs/trace.hpp"
#include "sim/ledger.hpp"

namespace sacha::core {

/// Seed salt for the phase-boundary register-churn RNG. Shared with the
/// socket transport: the remote prover agent must replay the exact churn
/// SessionMachine would apply locally (same salt, same session seed) for
/// loopback runs to be bit-identical to the in-process engine.
inline constexpr std::uint64_t kChurnSeedSalt = 0xfeedface12345678ULL;

struct SessionOptions {
  net::ChannelParams channel = net::ChannelParams::ideal();
  std::uint64_t seed = 1;
  /// Acknowledge every command and retransmit on loss (extension beyond the
  /// PoC, used by the lossy-network robustness tests).
  bool reliable = false;
  std::uint32_t max_retries = 5;
  /// Initial retransmission timeout. Successive retries of the same command
  /// back off exponentially: wait_n = min(backoff_cap, timeout *
  /// backoff_multiplier^(n-1)), plus uniform jitter of up to
  /// backoff_jitter * wait_n so a fleet's retries do not synchronise.
  /// Sessions with no retries draw no backoff randomness (bit-identity).
  sim::SimDuration retransmit_timeout = 2 * sim::kMillisecond;
  double backoff_multiplier = 2.0;
  sim::SimDuration backoff_cap = 64 * sim::kMillisecond;
  double backoff_jitter = 0.1;
  /// Simulated-time budget for the whole session (0 = unbounded). A session
  /// that exceeds it is aborted and reported as kDeadlineExceeded — a fleet
  /// verifier must bound every member's port occupancy.
  sim::SimDuration deadline = 0;
  /// Register churn applied once between the configuration and readback
  /// phases (the application "runs"); makes raw readback differ from the
  /// golden bitstream so only the masked compare can succeed.
  double register_flip_probability = 0.25;
};

struct SessionHooks {
  /// Runs after the last configuration command, before readback — the
  /// natural tamper window for a remote adversary.
  std::function<void(SachaProver&)> after_config;
  /// Intercepts the encoded command on the wire; return false to drop it.
  /// The in-process session carries commands and responses as words and
  /// encodes only while one of these two byte hooks is armed; the hooks
  /// see the same bytes a socket would carry.
  std::function<bool(Bytes&)> on_command;
  /// Intercepts the encoded response; return false to drop it.
  std::function<bool(Bytes&)> on_response;
  /// Runs before each command round with the command index — the fault
  /// harness's trigger point for protocol-progress-keyed device faults
  /// (crash at command k, ICAP stall at command k).
  std::function<void(std::size_t, SachaProver&)> before_command;
};

/// Ledger action keys (Table 3 rows).
namespace actions {
inline constexpr const char* kA1 = "A1 Vrf sends ICAP_config";
inline constexpr const char* kA2 = "A2 Prv performs ICAP_config";
inline constexpr const char* kA3 = "A3 Vrf sends ICAP_readback";
inline constexpr const char* kA4 = "A4 Prv performs ICAP_readback";
inline constexpr const char* kA5 = "A5 Prv performs MAC init";
inline constexpr const char* kA6 = "A6 Prv performs MAC update";
inline constexpr const char* kA7 = "A7 Prv performs MAC finalize";
inline constexpr const char* kA8 = "A8 Prv performs frame sendback";
inline constexpr const char* kA9 = "A9 Vrf sends MAC checksum";
inline constexpr const char* kA10 = "A10 Prv performs MAC sendback";
inline constexpr const char* kNetLatency = "network per-command latency";
inline constexpr const char* kRetransmit = "retransmission timeouts";
inline constexpr const char* kAck = "acknowledgements (reliable mode)";
}  // namespace actions

struct AttestationReport {
  SachaVerifier::Verdict verdict;
  /// Typed cause when the session did not attest (kNone on success). The
  /// first transport failure observed wins over the crypto verdict: a
  /// session that timed out cannot judge tampering.
  FailureKind failure = FailureKind::kNone;
  sim::TimeLedger ledger;
  /// Sum of the A1-A10 buckets (Table 4's "theoretical duration").
  sim::SimDuration theoretical_time = 0;
  /// Everything, including channel latency (Table 4's "measured duration").
  sim::SimDuration total_time = 0;
  std::uint64_t commands_sent = 0;
  std::uint64_t retransmissions = 0;
  /// Messages the channel dropped (both directions, independent + burst).
  std::uint64_t messages_lost = 0;
  /// Total simulated time spent waiting in retransmission backoff.
  sim::SimDuration backoff_wait = 0;
  /// True when the session was cut short by SessionOptions::deadline.
  bool deadline_hit = false;
  std::uint64_t bytes_to_prover = 0;
  std::uint64_t bytes_to_verifier = 0;
  /// Readback bytes the verifier still buffers after finish(): the full
  /// transcript in VerifyMode::kRetained, 0 in the streaming mode. The
  /// fleet benches aggregate this per member.
  std::uint64_t verifier_retained_bytes = 0;
  /// Simulated time delivered messages occupied the channel (both
  /// directions) — the share of total_time a blocking driver spends
  /// waiting on the wire, i.e. what the fleet engine overlaps.
  sim::SimDuration channel_time = 0;
  /// Timeline key of this session ((device id, nonce)-derived), valid even
  /// with telemetry disabled so audit entries always link to a would-be
  /// trace. With telemetry enabled, the global obs::Tracer holds the spans.
  obs::TraceId trace_id{};
  /// Host wall-clock of the whole session (not simulated time).
  std::uint64_t host_ns = 0;
};

/// Resumable form of the attestation session driver.
///
/// One SessionMachine runs exactly the protocol loop of run_attestation,
/// split at the channel boundary: step() executes one full command round
/// (transfer, device, retries — everything except the verifier absorb) and
/// returns the round's outcome; deliver() folds that outcome into the
/// verifier (the streaming CMAC absorb + masked compare); finish()
/// assembles the report. Driving `while (!done()) deliver(step())` then
/// finish() is bit-identical to run_attestation — same RNG draw order,
/// same ledger, same failure precedence — because the split only moves the
/// on_response call, which the command schedule never depends on (it is
/// frozen at begin()). The fleet engine uses the split to record each
/// round's simulated time and verify cost for its makespan model.
///
/// A machine stays on one thread from construction to finish(): its
/// session, phase and readback-round spans are RAII obs::Spans, which are
/// thread-affine.
class SessionMachine {
 public:
  /// Outcome of one command round, produced by step() and consumed by
  /// deliver(). `response` is what the verifier absorbs (nullopt for
  /// fire-and-forget config commands in unreliable mode); `verify_words`
  /// is the frame-data payload size, the verify-side cost driver.
  struct Round {
    std::size_t index = 0;
    /// False only when the round aborted on the session deadline — there
    /// is nothing to absorb and the session is over.
    bool deliver = false;
    std::optional<Response> response;
    /// Simulated time this round added to the session (wire + latency +
    /// device + backoff).
    sim::SimDuration elapsed = 0;
    std::size_t verify_words = 0;
  };

  /// Calls verifier.begin() (fresh nonce, frozen schedule). A schedule the
  /// wire cannot carry (SachaVerifier::schedule_error) is rejected here:
  /// the machine starts done and finish() reports kDecodeError.
  SessionMachine(SachaVerifier& verifier, SachaProver& prover,
                 const SessionOptions& options = {},
                 const SessionHooks& hooks = {});

  bool done() const { return aborted_ || next_ >= commands_; }
  /// Executes the next command round. Precondition: !done().
  Round step();
  /// Absorbs a round produced by step(), in production order.
  void deliver(Round round);
  /// Finalises the verdict and returns the report. Call exactly once,
  /// after done() and after every produced round was delivered.
  AttestationReport finish();

 private:
  void note_failure(FailureKind kind);
  bool past_deadline() const;
  /// Ends the running phase span and opens `name` (nullptr: none) at one
  /// clock reading, which it returns.
  std::uint64_t begin_phase(const char* name);

  SachaVerifier& verifier_;
  SachaProver& prover_;
  const SessionOptions options_;
  const SessionHooks hooks_;
  AttestationReport report_;
  net::Channel channel_;
  Rng churn_rng_;
  Rng backoff_rng_;
  FailureKind transport_failure_ = FailureKind::kNone;
  std::chrono::steady_clock::time_point host_start_;
  std::size_t commands_ = 0;
  std::size_t configs_ = 0;
  std::size_t next_ = 0;
  bool config_phase_done_ = false;
  bool aborted_ = false;  // session deadline tripped; no further rounds
  std::optional<obs::Span> session_span_;
  std::optional<obs::Span> phase_span_;
  std::optional<obs::Span> round_span_;
};

/// Runs one full attestation. The verifier's begin() is called internally.
AttestationReport run_attestation(SachaVerifier& verifier, SachaProver& prover,
                                  const SessionOptions& options = {},
                                  const SessionHooks& hooks = {});

/// Applies the phase-boundary register churn exactly as SessionMachine
/// does at the first non-config command: a fresh Rng seeded
/// `session_seed ^ kChurnSeedSalt`, one tick_registers pass. The remote
/// prover agent calls this so a device driven over a socket holds the same
/// DynMem contents as one driven in-process with the same seed.
void apply_register_churn(SachaProver& prover, std::uint64_t session_seed,
                          double flip_probability);

/// Verifier half of a *remote* attestation session (socket transport).
///
/// SessionMachine drives verifier and prover in one process over the
/// simulated channel; on a real socket the prover lives in another process
/// and the transport carries bytes, not simulated time. VerifierSession
/// keeps only the verifier-side bookkeeping: the frozen command schedule
/// feeds the wire (pipelined — a window of commands may be in flight),
/// responses absorb in strict index order, and finish() applies the same
/// response mapping and failure precedence as SessionMachine — kAck
/// responses are transport-level only (absorbed as nullopt), a kError
/// response notes kDeviceError but is still absorbed, and the first
/// transport failure wins over the crypto verdict. Combined with the
/// client replaying apply_register_churn under the same session seed, a
/// loss-free loopback run is bit-identical (verdict + MAC) to the
/// in-process engine.
class VerifierSession {
 public:
  struct Report {
    SachaVerifier::Verdict verdict;
    FailureKind failure = FailureKind::kNone;
    std::optional<crypto::Mac> expected_mac;
    std::uint64_t commands = 0;
    /// Host wall-clock from construction to finish() (nanoseconds).
    std::uint64_t host_ns = 0;
  };

  /// Calls verifier.begin() (fresh nonce, frozen schedule).
  explicit VerifierSession(SachaVerifier& verifier);

  /// Adopts the trace context propagated in the HELLO frame. When
  /// `sampled` is set (the client's deterministic head-sampling decision)
  /// and telemetry is enabled, the session emits verifier-side phase spans
  /// (Table-4 names, category "phase", arg side=verifier) under the
  /// client's TraceId — the other half of the cross-process timeline. The
  /// spans are assembled manually (Tracer::record) rather than via the
  /// RAII Span because verify strands hop between worker threads; their
  /// lane key derives from the trace id, not the OS thread, so one
  /// session's two halves sit adjacent in the merged Chrome trace.
  void set_trace(const obs::TraceId& trace, bool sampled);

  const obs::TraceId& trace() const { return trace_; }
  bool sampled() const { return sampled_; }
  /// Copy of the verifier-side span records this session emitted (session
  /// + phases), for endpoints that show recent timelines (/tracez).
  const std::vector<obs::SpanRecord>& timeline() const { return timeline_; }

  std::size_t command_count() const { return commands_; }
  std::size_t issued() const { return issued_; }
  std::size_t delivered() const { return delivered_; }
  bool all_issued() const { return issued_ >= commands_; }
  bool done() const { return delivered_ >= commands_; }

  /// Encoded wire payload of the next command; nullopt once the schedule
  /// is exhausted.
  std::optional<Bytes> next_command_wire();

  /// Absorbs the response to the next undelivered command. The transport
  /// is an ordered byte stream, so responses arrive in command order;
  /// nullopt means the command produced no response (fire-and-forget
  /// configuration).
  void on_response(std::optional<Response> response);

  /// Records a transport-layer failure (peer disconnect, decode poison,
  /// timeout); the first one observed wins.
  void note_failure(FailureKind kind);

  /// Finalises the verdict. Call once, after every response was delivered
  /// or the session was abandoned to a transport failure.
  Report finish();

  /// Routes streaming CMAC folds into a verify-lane batch (see
  /// SachaVerifier::set_absorb_sink for the ordering contract: flush
  /// before finish(), detach when the batch closes).
  void set_absorb_sink(crypto::CmacBatch* sink) {
    verifier_.set_absorb_sink(sink);
  }

 private:
  /// Closes the running phase (if any) and opens `name`; nullptr closes
  /// without opening. No-op unless this session is traced.
  void begin_phase(const char* name);
  void emit_span(const char* name, const char* category, std::uint64_t start,
                 std::uint64_t end, std::uint32_t depth);

  SachaVerifier& verifier_;
  FailureKind transport_failure_ = FailureKind::kNone;
  std::chrono::steady_clock::time_point host_start_;
  std::size_t commands_ = 0;
  std::size_t configs_ = 0;
  std::size_t issued_ = 0;
  std::size_t delivered_ = 0;
  obs::TraceId trace_{};
  bool sampled_ = false;
  bool tracing_ = false;
  const char* phase_name_ = nullptr;
  std::uint64_t phase_start_ns_ = 0;
  std::uint64_t session_start_ns_ = 0;
  std::vector<obs::SpanRecord> timeline_;
};

}  // namespace sacha::core
