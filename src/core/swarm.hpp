// Swarm attestation.
//
// The related-work section (§4.2) motivates attesting fleets of devices
// ("a number of low-end, tiny embedded devices ... employed as a group").
// SACHa composes naturally: each device runs its own session under its own
// key, and the coordinator aggregates verdicts. Every schedule runs the
// member sessions the same way, through the fleet engine
// (fleet_engine.hpp): kSerial on a pool of one, inline on the caller in
// member order; kParallel and kMultiplexed on `engine.pool_size` workers.
// Sessions share no state, every member derives its channel randomness
// from a splitmix64 hash of (fleet seed, member id, attempt) — never from
// its index or schedule — and the report is merged in member order, so
// the report is bit-identical whatever the schedule or pool. The schedule
// picks only the makespan model: the sum of member durations (one
// verifier port), the slowest member (one port per member), or the
// engine's K-lane virtual-time figure (a verifier that parks sessions
// through their channel latency). bench_swarm measures how fleet size
// scales under each model and that a single compromised member is
// isolated, not hidden by the aggregate.
//
// The coordinator is also a self-healing supervisor: members whose session
// fails are re-attested — a complete fresh session with a fresh nonce and
// full reconfiguration, never a mid-stream resume — up to a retry budget,
// and persistent failures are quarantined with their typed FailureKind.
#pragma once

#include <string>
#include <vector>

#include "core/fleet_engine.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sacha::core {

struct SwarmMember {
  std::string id;
  SachaVerifier* verifier = nullptr;
  SachaProver* prover = nullptr;
  /// Per-member adversary, if any.
  SessionHooks hooks;
  /// Per-member session customisation, run once per attempt after `hooks`
  /// are copied in: the fault harness chains member-specific channel faults
  /// and device-fault triggers here (fault::FaultInjector::arm). `attempt`
  /// is 0 for the first session, 1.. for supervisor re-attestations.
  std::function<void(SessionOptions&, SessionHooks&, std::uint32_t attempt)>
      configure;
};

/// The makespan model, and whether the host runs the sessions inline.
enum class SwarmSchedule : std::uint8_t {
  kSerial,       // inline, in member order; makespan = sum (one port)
  kParallel,     // worker pool; makespan = slowest member
  kMultiplexed,  // worker pool; makespan from the engine's K-lane
                 // virtual-time schedule (fleet_engine.hpp)
};

/// Supervisor policy for attest_swarm. Defaults preserve the pre-supervisor
/// semantics for healthy fleets exactly: with zero faults no retries fire,
/// so the report is bit-identical to retry_budget = 0.
struct SwarmOptions {
  SessionOptions session{};
  SwarmSchedule schedule = SwarmSchedule::kParallel;
  /// Re-attestations granted per failed member. Every retry is a full
  /// fresh session — run_attestation re-runs begin(), so the nonce is
  /// fresh and the whole configuration is re-installed (security-
  /// preserving retry: a retried attestation never resumes mid-stream).
  std::uint32_t retry_budget = 2;
  /// Host wall-clock bound on the whole sweep, retries included (0 =
  /// unbounded). Once exceeded, no further retries are scheduled and the
  /// still-failing members are quarantined with their typed cause.
  std::uint64_t fleet_deadline_ns = 0;
  /// Engine tuning. kParallel and kMultiplexed run on engine.pool_size
  /// workers (kSerial on one); every schedule reports the engine's model.
  FleetEngineOptions engine{};
};

struct SwarmMemberResult {
  std::string id;
  SachaVerifier::Verdict verdict;
  /// Typed cause of the *final* attempt (kNone when attested).
  FailureKind failure = FailureKind::kNone;
  /// Sessions run for this member (1 = attested or quarantined first try).
  std::uint32_t attempts = 1;
  /// Failed every attempt; the supervisor stopped retrying (budget or
  /// fleet deadline) and the member needs operator attention.
  bool quarantined = false;
  /// Attested after at least one failed attempt (a fresh-nonce retry
  /// recovered the member — transient fault, not tamper).
  bool healed = false;
  sim::SimDuration duration = 0;
  /// H_Prv of the member's session (the device's attestation evidence),
  /// recorded so fleet runs can be compared MAC-for-MAC.
  std::optional<crypto::Mac> mac;
  /// Transport health across all attempts (lossy-sweep auditing).
  std::uint64_t messages_lost = 0;
  std::uint64_t retransmissions = 0;
  sim::SimDuration backoff_wait = 0;
  /// Host wall-clock of this member's session (steady clock, not simulated
  /// time) — what the fleet timeline reports, recorded here so the
  /// timeline and the report agree. Scheduling-dependent, so excluded from
  /// the bit-identity guarantee.
  std::uint64_t host_ns = 0;
  /// Timeline key of the member's session; with telemetry enabled the
  /// session's spans in obs::Tracer carry this id.
  obs::TraceId trace_id{};
};

struct SwarmReport {
  std::vector<SwarmMemberResult> members;
  std::size_t attested = 0;
  /// Wall-clock of the whole sweep under the chosen schedule.
  sim::SimDuration makespan = 0;
  /// Sum of per-member durations (bandwidth/energy budget).
  sim::SimDuration total_work = 0;

  // Verifier-side memory accounting. Members provisioned with the same
  // device type + designs share one interned GoldenModel, so
  // `golden_model_bytes` stays flat as the fleet grows while
  // `unshared_golden_model_bytes` (what per-member copies would cost)
  // grows linearly.
  std::size_t distinct_golden_models = 0;
  std::size_t golden_model_bytes = 0;           // sum over distinct models
  std::size_t unshared_golden_model_bytes = 0;  // sum over members

  // Supervisor outcome. A healthy fleet has attested == members.size() and
  // zeros everywhere here; a converged faulty fleet has every member either
  // attested (possibly healed) or quarantined with a typed cause.
  std::size_t quarantined = 0;
  std::size_t healed = 0;
  /// Extra sessions the supervisor ran beyond the first per member.
  std::uint64_t reattempts = 0;
  /// The fleet deadline cut retries short.
  bool fleet_deadline_exceeded = false;

  // Transport health totals across all members and attempts, so lossy
  // sweeps are auditable from the report (and the bench JSON) alone.
  std::uint64_t messages_lost = 0;
  std::uint64_t retransmissions = 0;
  sim::SimDuration backoff_wait = 0;

  /// Engine accounting, whatever the schedule: K-lane makespan model,
  /// thread-per-member baseline, overlap efficiency. Accumulated across
  /// supervisor rounds.
  FleetEngineStats engine{};

  /// Host wall-clock of the whole attest_swarm call.
  std::uint64_t host_ns = 0;
  /// Fleet timeline key (seed + fleet size derived). The per-member session
  /// spans nest under "swarm.member" spans carrying this id, one tracer
  /// thread lane per worker, so one Chrome-trace export shows the merged
  /// fleet timeline.
  obs::TraceId fleet_trace{};
  /// Registry snapshot taken when the sweep finished (empty with telemetry
  /// disabled). Audited verdicts can embed or countersign it.
  obs::MetricsSnapshot metrics;

  bool all_attested() const { return attested == members.size(); }
  /// Every member reached a terminal state: attested or quarantined with a
  /// typed cause (the supervisor's convergence property).
  bool converged() const { return attested + quarantined == members.size(); }
  std::vector<std::string> failed_ids() const;
  std::vector<std::string> quarantined_ids() const;
};

/// Self-healing swarm attestation: runs every member, then re-attests
/// failed members (fresh nonce, full reconfiguration) up to the retry
/// budget, quarantining persistent failures with their typed cause.
SwarmReport attest_swarm(std::vector<SwarmMember>& fleet,
                         const SwarmOptions& options);

/// Pre-supervisor form: one attempt per member, no retries (exactly the
/// historical behaviour; equivalent to SwarmOptions{.retry_budget = 0}).
SwarmReport attest_swarm(std::vector<SwarmMember>& fleet,
                         SwarmSchedule schedule = SwarmSchedule::kParallel,
                         const SessionOptions& options = {});

}  // namespace sacha::core
