// EpochScheduler — continuous attestation for a fleet.
//
// Between full attestations a fleet's members decay: the verifier knows
// what each device ran at its last full session, nothing since. The
// scheduler keeps that decay bounded with three mechanisms per epoch tick:
//
//   probes      cheap sampled refresh-only sessions (§5.2.2 nonce refresh
//               with probe_coverage of the memory read back) for every
//               member not otherwise scheduled. A probe PASS is only "no
//               new evidence of staleness" — it never refreshes a member's
//               last_full_epoch and never feeds an update gate, because a
//               tamper outside the sample is invisible to the probe (the
//               escalation-soundness property test pins this down).
//   escalation  a probe mismatch or transport exhaustion escalates the
//               member to a fresh-nonce FULL re-attestation (complete
//               reinstall, swarm-supervisor retries); persistent failure
//               quarantines it with its typed cause.
//   budget      a rolling re-attestation budget (full_budget_fraction of
//               the fleet per epoch, oldest first) keeps members inside
//               the freshness window; the achieved fraction is tracked as
//               an SLO and exported via obs::SloTracker under
//               sacha.epoch.freshness_*.
//
// A staged signed update rides the same loop: each tick, up to update_wave
// members run the full attestation-gated pipeline (run_update) instead of
// their probe — a committed update counts as a fresh full attestation, a
// rollback with a re-attested old image keeps the member fresh on the old
// version, and members that exhaust their update attempts are quarantined.
//
// Sessions run through the swarm supervisor / fleet engine
// (SwarmSchedule::kMultiplexed by default: probe and verify sessions run
// on the engine's worker pool).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/swarm.hpp"
#include "obs/slo.hpp"
#include "update/pipeline.hpp"

namespace sacha::update {

struct EpochMember {
  std::string id;
  core::SachaVerifier* verifier = nullptr;
  core::SachaProver* prover = nullptr;
  /// Per-session customisation (fault arming), chained into every probe,
  /// full, and update-phase session this member runs.
  std::function<void(core::SessionOptions&, core::SessionHooks&,
                     std::uint32_t attempt)>
      configure;
};

enum class Freshness : std::uint8_t {
  kFresh = 0,        // last full attestation within the freshness window
  kStale = 1,        // window exceeded (budget pressure) — not yet failed
  kQuarantined = 2,  // escalation/full re-attest failed; operator attention
};

constexpr const char* to_string(Freshness health) {
  switch (health) {
    case Freshness::kFresh:
      return "fresh";
    case Freshness::kStale:
      return "stale";
    case Freshness::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

struct EpochMemberState {
  std::string id;
  Freshness health = Freshness::kFresh;
  /// Epoch of the last PASSING full attestation (0 = the provisioning
  /// attestation before the scheduler started).
  std::uint64_t last_full_epoch = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  std::uint64_t escalations = 0;
  std::uint64_t full_attests = 0;
  std::uint64_t healed = 0;
  core::FailureKind last_failure = core::FailureKind::kNone;
  /// Update progress (when an update is staged).
  std::uint32_t update_attempts = 0;
  bool update_committed = false;
};

struct EpochOptions {
  core::SessionOptions session{};
  core::SwarmSchedule schedule = core::SwarmSchedule::kMultiplexed;
  core::FleetEngineOptions engine{};
  /// Fraction of the configuration memory a probe session reads back.
  double probe_coverage = 0.10;
  /// Epochs a full attestation keeps a member fresh.
  std::uint64_t freshness_window = 4;
  /// Fraction of active members granted a budgeted full re-attestation per
  /// epoch (oldest first); at least one when any member is due.
  double full_budget_fraction = 0.25;
  /// Swarm retry budget for escalations and budgeted fulls.
  std::uint32_t retry_budget = 1;
  /// Members running the staged update pipeline per epoch (update wave).
  std::uint32_t update_wave = 8;
  /// Complete pipeline re-runs granted to a member whose update rolled
  /// back with the old image re-attested; exhaustion quarantines.
  std::uint32_t update_attempt_budget = 2;
  /// Freshness SLO: target fraction of active members within the window.
  double slo_target = 0.95;
};

struct EpochTickReport {
  std::uint64_t epoch = 0;
  std::size_t probed = 0;
  std::size_t probe_passed = 0;
  std::size_t escalated = 0;
  std::size_t healed = 0;
  std::size_t full_attested = 0;
  std::size_t newly_quarantined = 0;
  std::size_t updates_run = 0;
  std::size_t updates_committed = 0;
  std::size_t updates_rolled_back = 0;
  // Fleet health after the tick.
  std::size_t fresh = 0;
  std::size_t stale = 0;
  std::size_t quarantined = 0;
  std::uint64_t oldest_age_epochs = 0;
  /// Fraction of non-quarantined members within the freshness window.
  std::int64_t within_window_ppm = 0;
  /// Freshness SLO over the WHOLE fleet (quarantined members burn budget).
  bool slo_met = false;
};

class EpochScheduler {
 public:
  EpochScheduler(std::vector<EpochMember> members, EpochOptions options);

  /// Stages a signed update for the fleet. The manifest is verified once
  /// at the coordinator (signature, device type of the first member's
  /// floorplan, one-time leaf) and again per member inside run_update.
  Status stage_update(const SignedManifest& manifest,
                      const crypto::Sha256Digest& trusted_root);

  /// Runs one epoch: update wave, budgeted fulls, probes, escalations,
  /// then health/SLO accounting.
  EpochTickReport tick();

  /// Every non-quarantined member committed the staged update (true with
  /// no update staged).
  bool update_complete() const;

  const std::vector<EpochMemberState>& members() const { return states_; }
  const std::vector<UpdateReport>& update_reports() const {
    return update_reports_;
  }
  const obs::SloTracker& slo() const { return slo_; }
  std::uint64_t epoch() const { return epoch_; }

 private:
  struct StagedUpdate {
    SignedManifest manifest;
    crypto::Sha256Digest trusted_root{};
  };

  /// Builds a swarm for `indices` and runs it with a per-epoch derived
  /// session seed (results in index order).
  core::SwarmReport run_swarm(const std::vector<std::size_t>& indices,
                              std::string_view label,
                              std::uint32_t retry_budget);
  /// Runs full fresh-nonce sessions for `indices` through the swarm
  /// supervisor; updates last_full_epoch / health / counters.
  void run_full(const std::vector<std::size_t>& indices, bool escalation,
                EpochTickReport& report);
  void publish(const EpochTickReport& report);

  std::vector<EpochMember> members_;
  std::vector<EpochMemberState> states_;
  /// Operator-level one-time-leaf enforcement across staged manifests.
  core::LeafPolicy coordinator_policy_;
  EpochOptions options_;
  std::uint64_t epoch_ = 0;
  std::optional<StagedUpdate> staged_;
  std::vector<UpdateReport> update_reports_;
  obs::SloTracker slo_;
  obs::Gauge& g_fresh_;
  obs::Gauge& g_stale_;
  obs::Gauge& g_quarantined_;
  obs::Gauge& g_within_ppm_;
  obs::Gauge& g_oldest_age_;
  obs::Gauge& g_epoch_;
};

}  // namespace sacha::update
