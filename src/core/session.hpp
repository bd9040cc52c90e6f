// Attestation session core: one verifier half, one prover half, and the
// in-process driver that runs them over a simulated channel.
//
// VerifierSession and ProverSession are the protocol of Fig. 9 with no
// transport: commands out, responses in, and the device-side rule at the
// configuration/readback boundary. SessionMachine drives the pair over the
// simulated channel and accounts simulated time per low-level action
// (A1-A10 of Table 3) in a ledger; attestd (net/attest_server) and
// net::ProverAgent drive the same pair over a socket. The report separates
// the paper's two headline numbers: `theoretical_time` (wire occupancy +
// device work, 1.44 s on the PoC) and `total_time` (adding per-command
// network latency, 28.5 s in the authors' lab).
//
// Adversaries plug in through SessionHooks: a tamper window between the
// configuration and readback phases, and command/response interceptors on
// the public channel (the "local adversary controlling the communication"
// of the threat model).
#pragma once

#include <array>
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

/// The same rows as an index: what a session books, by action. A driver
/// books by Action and resolves each one's ledger row once per session;
/// the names above appear only in the ledger itself.
enum class Action : std::uint8_t {
  kA1, kA2, kA3, kA4, kA5, kA6, kA7, kA8, kA9, kA10,
  kNetLatency, kRetransmit, kAck,
};
inline constexpr std::size_t kActionCount =
    static_cast<std::size_t>(Action::kAck) + 1;

/// The ledger key (actions::k*) of `action`.
const char* action_key(Action action);

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

/// Applies the phase-boundary register churn: one tick_registers pass
/// under a fresh Rng seeded from the session seed and a fixed salt. The
/// one place the churn RNG is built; ProverSession calls it at the
/// boundary, so a device driven over a socket holds the same DynMem
/// contents as one driven in process with the same seed.
void apply_register_churn(SachaProver& prover, std::uint64_t session_seed,
                          double flip_probability);

/// Verifier half of a session, free of transport: it takes responses in
/// and gives commands out, and every driver runs it — SessionMachine over
/// the simulated channel, attestd over a socket.
///
/// It owns the verifier's whole rule set: begin() (fresh nonce, frozen
/// schedule) and the up-front rejection of a schedule the wire cannot
/// carry; the index→phase rule; the response mapping (kAck is
/// transport-level only and absorbs as nullopt, kError notes kDeviceError
/// and is still absorbed); the failure precedence (the first failure noted
/// wins over the crypto verdict); and the sacha.session.{started,attested,
/// failed,failure.*} counters. Commands go out in schedule order, possibly
/// pipelined (a window of them in flight); responses absorb in strict
/// index order. One thread drives a session: attestd's loop shares its
/// thread among many sessions, as the client loop does.
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

  /// The phase finish() runs in: the verdict (the masked compares ran as
  /// each readback absorbed).
  static constexpr const char* kVerdictPhase = "compare.verdict";

  /// Calls verifier.begin(). A schedule the wire cannot carry
  /// (SachaVerifier::schedule_error) is rejected here: the session starts
  /// done, with nothing to issue, and finish() reports kDecodeError.
  explicit VerifierSession(SachaVerifier& verifier);

  /// Adopts the trace context propagated in the HELLO frame. When
  /// `sampled` is set (the client's deterministic head-sampling decision)
  /// and telemetry is enabled, the session records verifier-side phase
  /// spans (Table-4 names, arg side=verifier) under the client's TraceId,
  /// measured between response deliveries — the other half of the
  /// cross-process timeline.
  void set_trace(const obs::TraceId& trace, bool sampled) {
    timeline_.start(trace, sampled);
  }

  /// Copy of the verifier-side span records this session emitted (session
  /// + phases), for endpoints that show recent timelines (/tracez).
  const std::vector<obs::SpanRecord>& timeline() const {
    return timeline_.records();
  }

  std::size_t command_count() const { return commands_; }
  std::size_t issued() const { return issued_; }
  bool all_issued() const { return issued_ >= commands_; }
  bool done() const { return delivered_ >= commands_; }

  /// The Table-4 phase that begins at command `index`, or nullptr: [0,
  /// configs-1) app configuration, configs-1 the nonce frame, [configs,
  /// n-1) readback, n-1 the MAC checksum.
  const char* phase_at(std::size_t index) const;

  /// Builds the next command of the schedule into `out`, in its storage
  /// (SachaVerifier::command_into), so a driver's command rounds do not
  /// allocate. Precondition: !all_issued().
  void next_command(Command& out);
  /// The next command's wire encoding; nullopt once the schedule is
  /// exhausted.
  std::optional<Bytes> next_command_wire();

  /// Absorbs the response to the next undelivered command; nullopt means
  /// the command produced no response (fire-and-forget configuration).
  void on_response(std::optional<Response> response);
  /// The same for a response the caller keeps: its frame words absorb in
  /// place and stay in `response` for reuse, paired with the device's fold
  /// in a full `fold` slot (SachaVerifier::on_response_in_place). An ack is
  /// reset to nullopt.
  void on_response_in_place(std::optional<Response>& response,
                            MacFold* fold = nullptr);
  /// Absorbs the next undelivered command as unanswered after the
  /// transport exhausted its retries: notes kTimeoutExhausted and absorbs
  /// a device error in the response's place.
  void on_retries_exhausted();

  /// Records a transport-layer failure (peer disconnect, decode poison,
  /// timeout, deadline); the first one noted wins.
  void note_failure(FailureKind kind);

  /// Finalises the verdict. Call once, after every response was delivered
  /// or the session was abandoned to a transport failure.
  Report finish();

  const SachaVerifier& verifier() const { return verifier_; }

 private:
  SachaVerifier& verifier_;
  FailureKind transport_failure_ = FailureKind::kNone;
  std::chrono::steady_clock::time_point host_start_;
  std::size_t commands_ = 0;
  std::size_t configs_ = 0;
  std::size_t issued_ = 0;
  std::size_t delivered_ = 0;
  obs::SessionTimeline timeline_;
};

/// Prover half of a session: the device, and the one rule the protocol
/// applies on the device side at the configuration/readback boundary. At
/// the first non-configuration command the adversary's tamper window opens
/// (the `after_config` hook), then the application starts running: one
/// register-churn pass under the session seed (apply_register_churn).
/// SessionMachine applies the rule when it issues that command, a socket
/// prover (net::ProverAgent) when the command arrives.
class ProverSession {
 public:
  ProverSession(SachaProver& device,
                std::function<void(SachaProver&)> after_config,
                std::uint64_t session_seed, double flip_probability);

  SachaProver& device() { return device_; }

  /// Applies the boundary rule for a command of `type`; only the first
  /// non-configuration command of the session does anything.
  void note_command(CommandType type);

 private:
  SachaProver& device_;
  std::function<void(SachaProver&)> after_config_;
  std::uint64_t session_seed_;
  double flip_probability_;
  bool config_phase_done_ = false;
};

/// In-process session driver: runs a VerifierSession and a ProverSession
/// over the simulated channel, one command round per step(). What only
/// the in-process path has lives here: the channel model, retries with
/// exponential backoff and the device's dedup cache, the session
/// deadline, the byte hooks, and the Table 3 ledger with its RAII spans.
/// Driving `while (!done()) step()` then finish() is run_attestation; the
/// fleet engine drives it the same way and records each round's simulated
/// time and verify cost for its makespan model.
///
/// A machine stays on one thread from construction to finish(): its
/// session, phase and readback-round spans are RAII obs::Spans, which are
/// thread-affine.
class SessionMachine {
 public:
  /// What one command round cost: the simulated time it added to the
  /// session (wire + latency + device + backoff), and the frame-data words
  /// the verifier absorbed, the verify-side cost driver.
  struct Round {
    sim::SimDuration elapsed = 0;
    std::size_t verify_words = 0;
  };

  /// Starts the verifier half; a schedule it rejects leaves the machine
  /// done before its first step (see VerifierSession's constructor).
  SessionMachine(SachaVerifier& verifier, SachaProver& prover,
                 const SessionOptions& options = {},
                 const SessionHooks& hooks = {});

  bool done() const { return aborted_ || verifier_.all_issued(); }
  /// Runs the next command round, through the verifier's absorb.
  /// Precondition: !done().
  Round step();
  /// Finalises the verdict and returns the report. Call exactly once,
  /// after done().
  AttestationReport finish();

 private:
  bool past_deadline() const;
  /// Ends the running phase span and opens `name` (nullptr: none) at one
  /// clock reading, which it returns.
  std::uint64_t begin_phase(const char* name);
  /// Books `duration` onto `action`'s ledger row, resolving the row on the
  /// action's first booking (so rows keep their first-use order).
  void book(Action action, sim::SimDuration duration);

  const SessionOptions options_;
  const SessionHooks hooks_;
  VerifierSession verifier_;
  ProverSession prover_;
  AttestationReport report_;
  net::Channel channel_;
  Rng backoff_rng_;
  bool aborted_ = false;  // session deadline tripped; no further rounds
  std::optional<obs::Span> session_span_;
  std::optional<obs::Span> phase_span_;
  /// Each action's row in report_.ledger, or kUnbooked.
  static constexpr std::size_t kUnbooked = ~std::size_t{0};
  std::array<std::size_t, kActionCount> rows_;
  /// Storage every round reuses: the command the verifier builds, and the
  /// frame buffer the last response handed back, which the prover reads
  /// the next frame into.
  Command command_;
  std::vector<std::uint32_t> frame_buffer_;
};

/// Runs one full attestation. The verifier's begin() is called internally.
AttestationReport run_attestation(SachaVerifier& verifier, SachaProver& prover,
                                  const SessionOptions& options = {},
                                  const SessionHooks& hooks = {});

}  // namespace sacha::core
