#include "core/swarm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>

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

/// Runs member `i`'s session (attempt `attempt`). Seeds derive from the
/// fleet seed, the member id and the attempt via splitmix64 — never from
/// the member index or scheduling — so serial and parallel runs are
/// bit-identical, adjacent fleet seeds do not collide across members, and
/// every retry sees fresh channel randomness (the host_ns wall-clock is
/// the one scheduling-dependent field).
AttestationReport run_attempt(SwarmMember& member,
                              const SessionOptions& options,
                              std::uint32_t attempt,
                              const obs::TraceId& fleet_trace) {
  SessionOptions attempt_options = options;
  attempt_options.seed = derive_seed(options.seed, member.id, attempt);
  SessionHooks attempt_hooks = member.hooks;
  if (member.configure) {
    member.configure(attempt_options, attempt_hooks, attempt);
  }
  obs::Span member_span(attempt == 0 ? "swarm.member" : "swarm.reattest",
                        fleet_trace, "swarm");
  member_span.arg("member", member.id);
  if (attempt > 0) member_span.arg("attempt", std::to_string(attempt));
  return run_attestation(*member.verifier, *member.prover, attempt_options,
                         attempt_hooks);
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

/// Runs `indices` of the fleet under the chosen schedule, one attempt
/// each, merging into `report.members`. Returns the round's simulated
/// makespan contribution (max under parallel, sum under serial).
sim::SimDuration run_round(std::vector<SwarmMember>& fleet,
                           const std::vector<std::size_t>& indices,
                           SwarmReport& report, const SwarmOptions& options,
                           std::uint32_t attempt,
                           const obs::TraceId& fleet_trace,
                           sim::SimDuration& total_work) {
  std::vector<sim::SimDuration> durations(indices.size(), 0);
  const auto run_one = [&](std::size_t k) {
    const std::size_t i = indices[k];
    const AttestationReport session =
        run_attempt(fleet[i], options.session, attempt, fleet_trace);
    merge_attempt(report.members[i], fleet[i], session, attempt);
    durations[k] = session.total_time;
  };

  if (options.schedule == SwarmSchedule::kMultiplexed) {
    // Engine round: build one job per pending member with the same derived
    // seed and configure hook as run_attempt would use, then run them on
    // the engine's worker pool. Reports come back in job order,
    // bit-identical to run_attestation per member.
    std::vector<FleetSessionJob> jobs(indices.size());
    for (std::size_t k = 0; k < indices.size(); ++k) {
      const std::size_t i = indices[k];
      SwarmMember& member = fleet[i];
      SessionOptions attempt_options = options.session;
      attempt_options.seed =
          derive_seed(options.session.seed, member.id, attempt);
      SessionHooks attempt_hooks = member.hooks;
      if (member.configure) {
        member.configure(attempt_options, attempt_hooks, attempt);
      }
      jobs[k] = FleetSessionJob{member.verifier, member.prover,
                                std::move(attempt_options),
                                std::move(attempt_hooks)};
    }
    FleetRunResult run = run_fleet(jobs, options.engine, fleet_trace);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      const std::size_t i = indices[k];
      merge_attempt(report.members[i], fleet[i], run.reports[k], attempt);
      durations[k] = run.reports[k].total_time;
      total_work += run.reports[k].total_time;
    }
    // Accumulate engine accounting across supervisor rounds; the overlap
    // ratio is recomputed from the accumulated totals.
    report.engine.pool_size = run.stats.pool_size;
    report.engine.makespan += run.stats.makespan;
    report.engine.thread_per_member_makespan +=
        run.stats.thread_per_member_makespan;
    report.engine.total_work += run.stats.total_work;
    report.engine.verify_busy += run.stats.verify_busy;
    report.engine.channel_busy += run.stats.channel_busy;
    report.engine.host_ns += run.stats.host_ns;
    report.engine.overlap_efficiency =
        report.engine.makespan > 0
            ? static_cast<double>(report.engine.total_work) /
                  static_cast<double>(report.engine.makespan)
            : 0.0;
    return run.stats.makespan;
  }

  if (options.schedule == SwarmSchedule::kParallel && indices.size() > 1) {
    // Worker pool: members are independent devices with independent
    // verifiers, so N sessions genuinely run on N threads. Work is claimed
    // by index from a shared counter; results land in member order.
    const std::size_t workers = std::min<std::size_t>(
        indices.size(), std::max(1u, std::thread::hardware_concurrency()));
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
           k < indices.size();
           k = next.fetch_add(1, std::memory_order_relaxed)) {
        run_one(k);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  } else {
    for (std::size_t k = 0; k < indices.size(); ++k) run_one(k);
  }

  sim::SimDuration round_makespan = 0;
  for (const sim::SimDuration d : durations) {
    total_work += d;
    if (options.schedule == SwarmSchedule::kParallel) {
      round_makespan = std::max(round_makespan, d);
    } else {
      round_makespan += d;
    }
  }
  return round_makespan;
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
    report.makespan +=
        run_round(fleet, pending, report, options, attempt,
                  report.fleet_trace, report.total_work);
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

  // Merge in member order (identical for both schedules). total_work has
  // already accumulated every attempt; here only transport totals merge.
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
    report.retained_readback_bytes +=
        member.verifier->retained_readback_bytes();
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
