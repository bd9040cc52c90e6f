// Tests for the run-to-completion fleet engine: bit-identity of multiplexed
// reports against the serial and thread-per-member schedules (the engine's
// core invariant), across fleet sizes, pool sizes and a lossy fault plan;
// one worker per session; plus the virtual-time makespan model and
// supervisor interplay.
#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <string>
#include <thread>

#include "attacks/env.hpp"
#include "core/fleet_engine.hpp"
#include "core/swarm.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/trace.hpp"

namespace sacha::core {
namespace {

/// Owns the fleet's verifiers/provers (SwarmMember holds raw pointers).
struct Fleet {
  explicit Fleet(std::size_t n, std::uint64_t base_seed = 650) {
    for (std::size_t i = 0; i < n; ++i) {
      envs.push_back(attacks::AttackEnv::small(base_seed + i));
      verifiers.push_back(envs.back().make_verifier());
      provers.push_back(envs.back().make_prover());
    }
    for (std::size_t i = 0; i < n; ++i) {
      members.push_back(SwarmMember{"node-" + std::to_string(i), &verifiers[i],
                                    &provers[i], {}});
    }
  }

  /// Tampers members `indices` post-configuration so failing verdicts are
  /// part of the comparison too.
  void tamper(std::initializer_list<std::size_t> indices) {
    for (const std::size_t i : indices) {
      members[i].hooks.after_config = [](SachaProver& p) {
        bitstream::Frame f = p.memory().config_frame(5);
        f.flip_bit(7);
        p.memory().write_frame(5, f);
      };
    }
  }

  std::deque<attacks::AttackEnv> envs;
  std::deque<SachaVerifier> verifiers;
  std::deque<SachaProver> provers;
  std::vector<SwarmMember> members;
};

/// Every scheduling-independent field of every member result must match:
/// verdicts, typed failures, MACs, durations, transport totals, trace ids.
/// (host_ns is the one scheduling-dependent field, as documented.)
void expect_bit_identical(const SwarmReport& actual,
                          const SwarmReport& expected) {
  ASSERT_EQ(actual.members.size(), expected.members.size());
  EXPECT_EQ(actual.attested, expected.attested);
  EXPECT_EQ(actual.quarantined, expected.quarantined);
  EXPECT_EQ(actual.healed, expected.healed);
  EXPECT_EQ(actual.reattempts, expected.reattempts);
  EXPECT_EQ(actual.total_work, expected.total_work);
  EXPECT_EQ(actual.messages_lost, expected.messages_lost);
  EXPECT_EQ(actual.retransmissions, expected.retransmissions);
  EXPECT_EQ(actual.backoff_wait, expected.backoff_wait);
  EXPECT_EQ(actual.failed_ids(), expected.failed_ids());
  EXPECT_EQ(actual.quarantined_ids(), expected.quarantined_ids());
  for (std::size_t i = 0; i < expected.members.size(); ++i) {
    const SwarmMemberResult& a = actual.members[i];
    const SwarmMemberResult& e = expected.members[i];
    EXPECT_EQ(a.id, e.id) << i;
    EXPECT_EQ(a.verdict.ok(), e.verdict.ok()) << i;
    EXPECT_EQ(a.verdict.kind, e.verdict.kind) << i;
    EXPECT_EQ(a.failure, e.failure) << i;
    EXPECT_EQ(a.attempts, e.attempts) << i;
    EXPECT_EQ(a.quarantined, e.quarantined) << i;
    EXPECT_EQ(a.healed, e.healed) << i;
    EXPECT_EQ(a.duration, e.duration) << i;
    EXPECT_EQ(a.messages_lost, e.messages_lost) << i;
    EXPECT_EQ(a.retransmissions, e.retransmissions) << i;
    EXPECT_EQ(a.backoff_wait, e.backoff_wait) << i;
    EXPECT_EQ(a.trace_id, e.trace_id) << i;
    ASSERT_EQ(a.mac.has_value(), e.mac.has_value()) << i;
    if (e.mac.has_value()) {
      EXPECT_EQ(*a.mac, *e.mac) << i;
    }
  }
}

SwarmReport run_schedule(Fleet& fleet, SwarmSchedule schedule,
                         std::size_t pool = 0) {
  SwarmOptions options;
  options.schedule = schedule;
  options.retry_budget = 0;
  options.engine.pool_size = pool;
  return attest_swarm(fleet.members, options);
}

TEST(FleetEngine, MultiplexedMatchesSerialAndParallelAcrossSizes) {
  for (const std::size_t n : {1u, 3u, 16u, 64u}) {
    Fleet serial_fleet(n);
    Fleet parallel_fleet(n);
    Fleet mux_fleet(n);
    if (n >= 4) {
      for (Fleet* f : {&serial_fleet, &parallel_fleet, &mux_fleet}) {
        f->tamper({1, 3});
      }
    }
    const SwarmReport serial =
        run_schedule(serial_fleet, SwarmSchedule::kSerial);
    const SwarmReport parallel =
        run_schedule(parallel_fleet, SwarmSchedule::kParallel);
    const SwarmReport mux =
        run_schedule(mux_fleet, SwarmSchedule::kMultiplexed);
    SCOPED_TRACE("fleet size " + std::to_string(n));
    expect_bit_identical(parallel, serial);
    expect_bit_identical(mux, serial);
  }
}

TEST(FleetEngine, PoolSizeDoesNotChangeReports) {
  constexpr std::size_t kFleetSize = 16;
  Fleet baseline_fleet(kFleetSize);
  baseline_fleet.tamper({2, 9});
  const SwarmReport baseline =
      run_schedule(baseline_fleet, SwarmSchedule::kSerial);
  const std::size_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t pool : {std::size_t{1}, std::size_t{2}, cores}) {
    Fleet fleet(kFleetSize);
    fleet.tamper({2, 9});
    const SwarmReport mux =
        run_schedule(fleet, SwarmSchedule::kMultiplexed, pool);
    SCOPED_TRACE("pool " + std::to_string(pool));
    expect_bit_identical(mux, baseline);
    EXPECT_EQ(mux.engine.pool_size, pool);
  }
}

TEST(FleetEngine, LossyFaultPlanStaysBitIdenticalAcrossSchedules) {
  // An 8-member fleet under correlated burst loss + reliable transport +
  // supervisor retries: the engine must reproduce the exact retransmission,
  // backoff and healing trajectory of the serial schedule. Each fleet gets
  // its own injector set with the same seeds (injector RNG state advances
  // per session, keyed only by the member's own stream).
  constexpr std::size_t kFleetSize = 8;
  const auto plan = fault::FaultPlan::parse("burst=0.05:0.5:1");
  ASSERT_TRUE(plan.ok());

  const auto run = [&](SwarmSchedule schedule) {
    Fleet fleet(kFleetSize);
    std::deque<fault::FaultInjector> injectors;
    for (std::size_t i = 0; i < fleet.members.size(); ++i) {
      injectors.emplace_back(plan.value(), 800 + i);
      fault::FaultInjector& injector = injectors.back();
      fleet.members[i].configure = [&injector](SessionOptions& options,
                                               SessionHooks& hooks,
                                               std::uint32_t) {
        injector.arm(options, hooks);
      };
    }
    SwarmOptions options;
    options.schedule = schedule;
    options.session.reliable = true;
    options.session.max_retries = 8;
    options.retry_budget = 2;
    return attest_swarm(fleet.members, options);
  };

  const SwarmReport serial = run(SwarmSchedule::kSerial);
  const SwarmReport parallel = run(SwarmSchedule::kParallel);
  const SwarmReport mux = run(SwarmSchedule::kMultiplexed);
  EXPECT_GT(serial.messages_lost, 0u);
  EXPECT_GT(serial.retransmissions, 0u);
  expect_bit_identical(parallel, serial);
  expect_bit_identical(mux, serial);
}

TEST(FleetEngine, SupervisorQuarantinesPersistentTamperUnderEngine) {
  Fleet serial_fleet(5);
  Fleet mux_fleet(5);
  for (Fleet* f : {&serial_fleet, &mux_fleet}) f->tamper({2});
  SwarmOptions options;
  options.retry_budget = 3;
  options.schedule = SwarmSchedule::kSerial;
  const SwarmReport serial = attest_swarm(serial_fleet.members, options);
  options.schedule = SwarmSchedule::kMultiplexed;
  const SwarmReport mux = attest_swarm(mux_fleet.members, options);
  expect_bit_identical(mux, serial);
  EXPECT_TRUE(mux.converged());
  EXPECT_EQ(mux.quarantined, 1u);
  EXPECT_EQ(mux.members[2].attempts, 4u);  // budget fully spent
}

TEST(FleetEngine, SessionDeadlineAbortsIdenticallyUnderEngine) {
  Fleet serial_fleet(3);
  Fleet mux_fleet(3);
  SwarmOptions options;
  options.retry_budget = 0;
  options.session.channel = net::ChannelParams::lab();
  options.session.deadline = 2 * sim::kMillisecond;
  options.schedule = SwarmSchedule::kSerial;
  const SwarmReport serial = attest_swarm(serial_fleet.members, options);
  options.schedule = SwarmSchedule::kMultiplexed;
  const SwarmReport mux = attest_swarm(mux_fleet.members, options);
  EXPECT_EQ(serial.attested, 0u);
  for (const SwarmMemberResult& m : mux.members) {
    EXPECT_EQ(m.failure, FailureKind::kDeadlineExceeded);
  }
  expect_bit_identical(mux, serial);
}

TEST(FleetEngine, MakespanModelOverlapsLatencyAcrossMembers) {
  // 16 members on the lab channel with a pool of 4: every session spends
  // almost all its simulated time parked on channel latency, so the
  // multiplexed makespan collapses toward the slowest member while the
  // thread-per-member baseline stacks ~4 sessions per port.
  constexpr std::size_t kFleetSize = 16;
  Fleet fleet(kFleetSize);
  SwarmOptions options;
  options.schedule = SwarmSchedule::kMultiplexed;
  options.session.channel = net::ChannelParams::lab();
  options.engine.pool_size = 4;
  const SwarmReport report = attest_swarm(fleet.members, options);
  ASSERT_TRUE(report.all_attested());

  sim::SimDuration slowest = 0;
  for (const SwarmMemberResult& m : report.members) {
    slowest = std::max(slowest, m.duration);
  }
  const FleetEngineStats& engine = report.engine;
  // The multiplexed schedule can never beat the slowest member, and the
  // thread-per-member baseline can never beat ceil(N/pool) stacked
  // sessions of the fastest member.
  EXPECT_GE(engine.makespan, slowest);
  EXPECT_GT(engine.thread_per_member_makespan, engine.makespan);
  // ≥2x latency hiding at N=16, pool=4 (the bench gates N=64 at ≥2x too).
  EXPECT_GE(static_cast<double>(engine.thread_per_member_makespan),
            2.0 * static_cast<double>(engine.makespan));
  EXPECT_GT(engine.overlap_efficiency, 2.0);
  EXPECT_EQ(engine.total_work, report.total_work);
  EXPECT_GT(engine.channel_busy, 0u);
  EXPECT_GT(engine.verify_busy, 0u);
}

TEST(FleetEngine, LossyTamperedFleetsBitIdenticalAcrossPools) {
  // Which worker runs a session, and how many sessions run at once, never
  // changes a report bit. Swept across fleet sizes × pool sizes under a
  // lossy plan + reliable transport + a supervisor retry, with tampered
  // members, against the kParallel oracle.
  const auto plan = fault::FaultPlan::parse("burst=0.05:0.5:1");
  ASSERT_TRUE(plan.ok());
  const auto run = [&](std::size_t n, SwarmSchedule schedule,
                       std::size_t pool) {
    Fleet fleet(n);
    if (n >= 4) fleet.tamper({1, 3});
    std::deque<fault::FaultInjector> injectors;
    for (std::size_t i = 0; i < fleet.members.size(); ++i) {
      injectors.emplace_back(plan.value(), 800 + i);
      fault::FaultInjector& injector = injectors.back();
      fleet.members[i].configure = [&injector](SessionOptions& options,
                                               SessionHooks& hooks,
                                               std::uint32_t) {
        injector.arm(options, hooks);
      };
    }
    SwarmOptions options;
    options.schedule = schedule;
    options.session.reliable = true;
    options.session.max_retries = 8;
    options.retry_budget = 1;
    options.engine.pool_size = pool;
    return attest_swarm(fleet.members, options);
  };

  const std::size_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t n : {1u, 3u, 16u, 64u}) {
    const SwarmReport parallel = run(n, SwarmSchedule::kParallel, 0);
    for (const std::size_t pool : {std::size_t{1}, std::size_t{2}, cores}) {
      SCOPED_TRACE("fleet " + std::to_string(n) + " pool " +
                   std::to_string(pool));
      const SwarmReport mux = run(n, SwarmSchedule::kMultiplexed, pool);
      expect_bit_identical(mux, parallel);
      EXPECT_EQ(mux.engine.pool_size, pool);
    }
  }
}

TEST(FleetEngine, EachSessionRunsOnOneWorker) {
  // Run-to-completion: a worker drives its member from the first command
  // to the verdict, so every command of a session runs on one thread, and
  // no more threads than the pool ever run commands. One member's hooks
  // never run concurrently, so each writes its own set unguarded; the
  // sets are read after attest_swarm has joined the workers.
  constexpr std::size_t kFleetSize = 16;
  constexpr std::size_t kPool = 4;
  Fleet fleet(kFleetSize);
  std::vector<std::set<std::thread::id>> threads(kFleetSize);
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    fleet.members[i].hooks.before_command =
        [&threads, i](std::size_t, SachaProver&) {
          threads[i].insert(std::this_thread::get_id());
        };
  }
  const SwarmReport report =
      run_schedule(fleet, SwarmSchedule::kMultiplexed, kPool);
  ASSERT_TRUE(report.all_attested());
  std::set<std::thread::id> workers;
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    EXPECT_EQ(threads[i].size(), 1u) << "member " << i;
    workers.insert(threads[i].begin(), threads[i].end());
  }
  EXPECT_LE(workers.size(), kPool);
}

TEST(FleetEngine, MembersEmitTheirSessionTimeline) {
  // A member session stays on its worker, so it records the same session
  // span and Table-4 phase spans run_attestation does, all on one thread.
  obs::set_enabled(true);
  obs::Tracer::global().clear();
  Fleet fleet(6);
  const SwarmReport report =
      run_schedule(fleet, SwarmSchedule::kMultiplexed, 4);
  const std::vector<obs::SpanRecord> records = obs::Tracer::global().drain();
  obs::set_enabled(false);
  ASSERT_TRUE(report.all_attested());
  for (const SwarmMemberResult& m : report.members) {
    std::set<std::string> names;
    std::set<std::uint64_t> threads;
    for (const obs::SpanRecord& r : records) {
      if (r.trace != m.trace_id) continue;
      names.insert(r.name);
      threads.insert(r.thread_id);
    }
    for (const char* name :
         {"session", "configure.stream_in", "nonce.inject", "readback.absorb",
          "readback.round", "cmac.finish", "compare.verdict"}) {
      EXPECT_EQ(names.count(name), 1u) << m.id << " " << name;
    }
    EXPECT_EQ(threads.size(), 1u) << m.id;
  }
}

TEST(FleetEngine, MakespanModelMatchesParent) {
  // The makespan model merges the members' verify timelines through a heap
  // keyed (ready, member). These figures come from the model it replaced,
  // which stable-sorted every verify job of the fleet by the same key. The
  // verify cost per word is set high enough that the 4 lanes, not the
  // sessions, set both makespans. On the ideal channel every member has
  // the same round times, so ready times tie across members at every
  // round; the jittered lab channel interleaves them unevenly.
  const auto engine_stats = [](std::size_t n, const net::ChannelParams& channel,
                               std::uint64_t verify_ns_per_word) {
    Fleet fleet(n);
    SwarmOptions options;
    options.schedule = SwarmSchedule::kMultiplexed;
    options.retry_budget = 0;
    options.session.channel = channel;
    options.engine.pool_size = 4;
    options.engine.verify_ns_per_word = verify_ns_per_word;
    return attest_swarm(fleet.members, options).engine;
  };
  const FleetEngineStats ideal =
      engine_stats(8, net::ChannelParams::ideal(), 10'000);
  EXPECT_EQ(ideal.makespan, 2'707'732u);
  EXPECT_EQ(ideal.thread_per_member_makespan, 3'968'304u);

  net::ChannelParams lab = net::ChannelParams::lab();
  lab.jitter_max = 50'000;
  const FleetEngineStats jittered = engine_stats(16, lab, 100'000);
  EXPECT_EQ(jittered.makespan, 56'210'729u);
  EXPECT_EQ(jittered.thread_per_member_makespan, 118'563'780u);
}

TEST(FleetEngine, RunFleetMatchesRunAttestationPerJob) {
  // Direct engine API: one job's report equals a standalone session run
  // field-for-field (host_ns excluded).
  attacks::AttackEnv env_a = attacks::AttackEnv::small(660);
  SachaVerifier verifier_a = env_a.make_verifier();
  SachaProver prover_a = env_a.make_prover();
  SessionOptions options;
  options.seed = 42;
  options.channel.jitter_max = 50'000;
  const AttestationReport solo =
      run_attestation(verifier_a, prover_a, options);

  attacks::AttackEnv env_b = attacks::AttackEnv::small(660);
  SachaVerifier verifier_b = env_b.make_verifier();
  SachaProver prover_b = env_b.make_prover();
  std::vector<FleetSessionJob> jobs;
  jobs.push_back(FleetSessionJob{&verifier_b, &prover_b, options, {}});
  const FleetRunResult run = run_fleet(jobs);
  ASSERT_EQ(run.reports.size(), 1u);
  const AttestationReport& mux = run.reports[0];
  EXPECT_EQ(mux.verdict.ok(), solo.verdict.ok());
  EXPECT_EQ(mux.verdict.kind, solo.verdict.kind);
  EXPECT_EQ(mux.failure, solo.failure);
  EXPECT_EQ(mux.total_time, solo.total_time);
  EXPECT_EQ(mux.theoretical_time, solo.theoretical_time);
  EXPECT_EQ(mux.channel_time, solo.channel_time);
  EXPECT_EQ(mux.commands_sent, solo.commands_sent);
  EXPECT_EQ(mux.retransmissions, solo.retransmissions);
  EXPECT_EQ(mux.messages_lost, solo.messages_lost);
  EXPECT_EQ(mux.bytes_to_prover, solo.bytes_to_prover);
  EXPECT_EQ(mux.bytes_to_verifier, solo.bytes_to_verifier);
  EXPECT_EQ(mux.trace_id, solo.trace_id);
}

TEST(FleetEngine, EmptyFleetIsVacuous) {
  std::vector<FleetSessionJob> jobs;
  const FleetRunResult run = run_fleet(jobs);
  EXPECT_TRUE(run.reports.empty());
  EXPECT_EQ(run.stats.makespan, 0u);

  std::vector<SwarmMember> empty;
  SwarmOptions options;
  options.schedule = SwarmSchedule::kMultiplexed;
  const SwarmReport report = attest_swarm(empty, options);
  EXPECT_TRUE(report.all_attested());
  EXPECT_EQ(report.makespan, 0u);
}

}  // namespace
}  // namespace sacha::core
