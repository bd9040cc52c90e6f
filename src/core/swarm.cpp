#include "core/swarm.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace sacha::core {

namespace {

const char* schedule_name(SwarmSchedule schedule) {
  switch (schedule) {
    case SwarmSchedule::kSerial:
      return "serial";
    case SwarmSchedule::kParallel:
      return "parallel";
    case SwarmSchedule::kMultiplexed:
      return "multiplexed";
  }
  return "unknown";
}

/// Folds one attempt's report into the member's running result. The final
/// attempt's verdict/MAC/duration win; transport totals accumulate.
void merge_attempt(SwarmMemberResult& result, const SwarmMember& member,
                   const AttestationReport& session, std::uint32_t attempt) {
  result.id = member.id;
  result.verdict = session.verdict;
  result.failure = session.failure;
  result.attempts = attempt + 1;
  result.duration = session.total_time;
  result.mac = member.prover->last_mac();
  result.messages_lost += session.messages_lost;
  result.retransmissions += session.retransmissions;
  result.backoff_wait += session.backoff_wait;
  result.host_ns = session.host_ns;
  result.trace_id = session.trace_id;
  result.healed = attempt > 0 && session.verdict.ok();
}

/// Runs `indices` of the fleet, one attempt each, through the fleet engine
/// and merges into `report.members`. Every schedule takes this path:
/// kSerial on a pool of one (inline on the caller, in member order), the
/// others on `options.engine.pool_size` workers. Seeds derive from the
/// fleet seed, the member id and the attempt via splitmix64 — never from
/// the member index or scheduling — so reports are bit-identical across
/// schedules and pools (host_ns aside), adjacent fleet seeds do not collide
/// across members, and every retry sees fresh channel randomness. Returns
/// the round's simulated makespan under the schedule's model: the sum of
/// member durations (kSerial), the slowest member (kParallel), or the
/// engine's K-lane figure (kMultiplexed).
sim::SimDuration run_round(std::vector<SwarmMember>& fleet,
                           const std::vector<std::size_t>& indices,
                           SwarmReport& report, const SwarmOptions& options,
                           std::uint32_t attempt,
                           const obs::TraceId& fleet_trace) {
  std::vector<FleetSessionJob> jobs(indices.size());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    SwarmMember& member = fleet[indices[k]];
    FleetSessionJob& job = jobs[k];
    job.verifier = member.verifier;
    job.prover = member.prover;
    job.options = options.session;
    job.options.seed = derive_seed(options.session.seed, member.id, attempt);
    job.hooks = member.hooks;
    if (member.configure) member.configure(job.options, job.hooks, attempt);
    job.member = member.id;
    job.attempt = attempt;
  }
  FleetEngineOptions engine = options.engine;
  if (options.schedule == SwarmSchedule::kSerial) engine.pool_size = 1;
  const FleetRunResult run = run_fleet(jobs, engine, fleet_trace);

  sim::SimDuration sum = 0;
  sim::SimDuration slowest = 0;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::size_t i = indices[k];
    const AttestationReport& session = run.reports[k];
    merge_attempt(report.members[i], fleet[i], session, attempt);
    sum += session.total_time;
    slowest = std::max(slowest, session.total_time);
  }
  report.total_work += sum;

  // Accumulate engine accounting across supervisor rounds; the overlap
  // ratio is recomputed from the accumulated totals.
  FleetEngineStats& acc = report.engine;
  acc.pool_size = run.stats.pool_size;
  acc.makespan += run.stats.makespan;
  acc.thread_per_member_makespan += run.stats.thread_per_member_makespan;
  acc.total_work += run.stats.total_work;
  acc.verify_busy += run.stats.verify_busy;
  acc.channel_busy += run.stats.channel_busy;
  acc.host_ns += run.stats.host_ns;
  acc.overlap_efficiency =
      acc.makespan > 0 ? static_cast<double>(acc.total_work) /
                             static_cast<double>(acc.makespan)
                       : 0.0;

  switch (options.schedule) {
    case SwarmSchedule::kSerial:
      return sum;
    case SwarmSchedule::kParallel:
      return slowest;
    case SwarmSchedule::kMultiplexed:
      return run.stats.makespan;
  }
  return sum;
}

}  // namespace

std::vector<std::string> SwarmReport::failed_ids() const {
  std::vector<std::string> ids;
  for (const SwarmMemberResult& m : members) {
    if (!m.verdict.ok()) ids.push_back(m.id);
  }
  return ids;
}

std::vector<std::string> SwarmReport::quarantined_ids() const {
  std::vector<std::string> ids;
  for (const SwarmMemberResult& m : members) {
    if (m.quarantined) ids.push_back(m.id);
  }
  return ids;
}

SwarmReport attest_swarm(std::vector<SwarmMember>& fleet,
                         SwarmSchedule schedule,
                         const SessionOptions& options) {
  SwarmOptions swarm_options;
  swarm_options.session = options;
  swarm_options.schedule = schedule;
  swarm_options.retry_budget = 0;  // historical one-shot semantics
  return attest_swarm(fleet, swarm_options);
}

SwarmReport attest_swarm(std::vector<SwarmMember>& fleet,
                         const SwarmOptions& options) {
  SwarmReport report;
  report.members.resize(fleet.size());
  report.fleet_trace = obs::make_trace_id(
      "swarm/" + std::to_string(fleet.size()), options.session.seed);
  const auto host_start = std::chrono::steady_clock::now();
  const auto host_elapsed_ns = [&host_start]() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - host_start)
            .count());
  };
  obs::Span fleet_span("swarm", report.fleet_trace, "swarm");
  fleet_span.arg("members", std::to_string(fleet.size()));
  fleet_span.arg("schedule", schedule_name(options.schedule));

  // Round 0: every member, then supervisor rounds over the failed subset.
  // Each retry is a fresh full session — run_attestation re-runs begin()
  // (fresh nonce) and the verifier is forced out of refresh-only mode so
  // the whole configuration is re-installed, never resumed mid-stream.
  std::vector<std::size_t> pending(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) pending[i] = i;

  for (std::uint32_t attempt = 0; attempt <= options.retry_budget;
       ++attempt) {
    if (pending.empty()) break;
    if (attempt > 0) {
      if (options.fleet_deadline_ns > 0 &&
          host_elapsed_ns() >= options.fleet_deadline_ns) {
        report.fleet_deadline_exceeded = true;
        break;
      }
      static obs::Counter& reattests =
          obs::MetricsRegistry::global().counter("sacha.swarm.reattests");
      reattests.add(pending.size());
      report.reattempts += pending.size();
      for (const std::size_t i : pending) {
        // Security-preserving retry: whatever mode the member was in, the
        // re-attestation installs the full configuration from scratch.
        fleet[i].verifier->set_refresh_only(false);
      }
      (log_debug() << "swarm supervisor retry round")
          .kv("attempt", attempt)
          .kv("members", pending.size());
    }
    report.makespan += run_round(fleet, pending, report, options, attempt,
                                 report.fleet_trace);
    std::vector<std::size_t> still_failed;
    for (const std::size_t i : pending) {
      if (!report.members[i].verdict.ok()) still_failed.push_back(i);
    }
    pending = std::move(still_failed);
  }

  // Terminal states: whoever is still failing is quarantined with the
  // typed cause of their last attempt.
  for (SwarmMemberResult& m : report.members) {
    if (m.verdict.ok()) {
      ++report.attested;
      if (m.healed) ++report.healed;
    } else {
      m.quarantined = true;
      ++report.quarantined;
    }
  }
  {
    auto& registry = obs::MetricsRegistry::global();
    static obs::Counter& quarantined =
        registry.counter("sacha.swarm.quarantined");
    static obs::Counter& healed = registry.counter("sacha.swarm.healed");
    quarantined.add(report.quarantined);
    healed.add(report.healed);
  }

  // Merge in member order. total_work has already accumulated every
  // attempt; here only transport totals merge.
  for (const SwarmMemberResult& m : report.members) {
    report.messages_lost += m.messages_lost;
    report.retransmissions += m.retransmissions;
    report.backoff_wait += m.backoff_wait;
  }

  // Verifier-side memory accounting: interned GoldenModels dedupe by
  // pointer identity, so a homogeneous fleet counts one model.
  std::set<const bitstream::GoldenModel*> distinct;
  for (const SwarmMember& member : fleet) {
    const auto& model = member.verifier->golden_model();
    report.unshared_golden_model_bytes += model->footprint_bytes();
    if (distinct.insert(model.get()).second) {
      report.golden_model_bytes += model->footprint_bytes();
    }
  }
  report.distinct_golden_models = distinct.size();

  for (const SwarmMemberResult& m : report.members) {
    if (m.quarantined) {
      fleet_span.arg("quarantine." + m.id, to_string(m.failure));
    }
  }
  fleet_span.end();
  report.host_ns = host_elapsed_ns();
  if (obs::enabled()) {
    report.metrics = obs::MetricsRegistry::global().snapshot();
  }
  (log_debug() << "swarm attestation finished")
      .kv("members", fleet.size())
      .kv("attested", report.attested)
      .kv("healed", report.healed)
      .kv("quarantined", report.quarantined)
      .kv("reattempts", report.reattempts)
      .kv("schedule", schedule_name(options.schedule))
      .kv("trace", obs::to_string(report.fleet_trace))
      .kv("host_ms", static_cast<double>(report.host_ns) / 1e6);
  return report;
}

}  // namespace sacha::core
