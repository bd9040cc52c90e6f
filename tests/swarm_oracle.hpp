// Test-only bit-identity oracle for attest_swarm.
//
// Every schedule runs its member sessions through the fleet engine, so
// comparing one schedule against another would compare the engine with
// itself. The oracle is the supervisor written as a plain loop of
// run_attestation instead: the same per-member seed, hooks and `configure`,
// the same retry rounds (full configuration forced back on), merged the
// same way. fleet_engine_test, swarm_test and bench_swarm's identity gate
// hold every schedule to it with `report_differences`.
//
// The fleet deadline is not modelled: it cuts retries on host time, which
// no identity check can pin.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/swarm.hpp"

namespace sacha::oracle {

/// attest_swarm(fleet, options) as one loop of run_attestation per round.
inline core::SwarmReport run_attestation_loop(
    std::vector<core::SwarmMember>& fleet, const core::SwarmOptions& options) {
  core::SwarmReport report;
  report.members.resize(fleet.size());
  std::vector<std::size_t> pending(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) pending[i] = i;
  for (std::uint32_t attempt = 0;
       attempt <= options.retry_budget && !pending.empty(); ++attempt) {
    if (attempt > 0) report.reattempts += pending.size();
    std::vector<std::size_t> still_failed;
    for (const std::size_t i : pending) {
      core::SwarmMember& member = fleet[i];
      if (attempt > 0) member.verifier->set_refresh_only(false);
      core::SessionOptions session = options.session;
      session.seed = derive_seed(options.session.seed, member.id, attempt);
      core::SessionHooks hooks = member.hooks;
      if (member.configure) member.configure(session, hooks, attempt);
      const core::AttestationReport run = core::run_attestation(
          *member.verifier, *member.prover, session, hooks);

      core::SwarmMemberResult& result = report.members[i];
      result.id = member.id;
      result.verdict = run.verdict;
      result.failure = run.failure;
      result.attempts = attempt + 1;
      result.duration = run.total_time;
      result.mac = member.prover->last_mac();
      result.messages_lost += run.messages_lost;
      result.retransmissions += run.retransmissions;
      result.backoff_wait += run.backoff_wait;
      result.host_ns = run.host_ns;
      result.trace_id = run.trace_id;
      result.healed = attempt > 0 && run.verdict.ok();
      report.total_work += run.total_time;
      if (!run.verdict.ok()) still_failed.push_back(i);
    }
    pending = std::move(still_failed);
  }
  for (core::SwarmMemberResult& m : report.members) {
    if (m.verdict.ok()) {
      ++report.attested;
      if (m.healed) ++report.healed;
    } else {
      m.quarantined = true;
      ++report.quarantined;
    }
    report.messages_lost += m.messages_lost;
    report.retransmissions += m.retransmissions;
    report.backoff_wait += m.backoff_wait;
  }
  return report;
}

/// Every scheduling-independent field on which `actual` differs from
/// `expected`, one line each; empty when they are bit-identical. Per
/// member: verdict, kind, failure, attempts, quarantine and healing, MAC,
/// duration, the loss/retransmission/backoff counters and the trace id;
/// plus the fleet totals. host_ns is the one scheduling-dependent field.
inline std::vector<std::string> report_differences(
    const core::SwarmReport& actual, const core::SwarmReport& expected) {
  std::vector<std::string> diffs;
  const auto check = [&diffs](bool same, const std::string& what) {
    if (!same) diffs.push_back(what);
  };
  check(actual.members.size() == expected.members.size(), "member count");
  check(actual.attested == expected.attested, "attested");
  check(actual.quarantined == expected.quarantined, "quarantined");
  check(actual.healed == expected.healed, "healed");
  check(actual.reattempts == expected.reattempts, "reattempts");
  check(actual.total_work == expected.total_work, "total_work");
  check(actual.messages_lost == expected.messages_lost, "messages_lost");
  check(actual.retransmissions == expected.retransmissions, "retransmissions");
  check(actual.backoff_wait == expected.backoff_wait, "backoff_wait");
  for (std::size_t i = 0;
       i < std::min(actual.members.size(), expected.members.size()); ++i) {
    const core::SwarmMemberResult& a = actual.members[i];
    const core::SwarmMemberResult& e = expected.members[i];
    const std::string who = "member " + std::to_string(i) + " ";
    check(a.id == e.id, who + "id");
    check(a.verdict.ok() == e.verdict.ok(), who + "verdict");
    check(a.verdict.kind == e.verdict.kind, who + "verdict kind");
    check(a.failure == e.failure, who + "failure");
    check(a.attempts == e.attempts, who + "attempts");
    check(a.quarantined == e.quarantined, who + "quarantined");
    check(a.healed == e.healed, who + "healed");
    check(a.mac == e.mac, who + "mac");
    check(a.duration == e.duration, who + "duration");
    check(a.messages_lost == e.messages_lost, who + "messages_lost");
    check(a.retransmissions == e.retransmissions, who + "retransmissions");
    check(a.backoff_wait == e.backoff_wait, who + "backoff_wait");
    check(a.trace_id == e.trace_id, who + "trace_id");
  }
  return diffs;
}

}  // namespace sacha::oracle
