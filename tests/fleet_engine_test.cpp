// Tests for the run-to-completion fleet engine, which runs every swarm
// schedule: bit-identity of every schedule's reports against the
// run_attestation loop oracle (swarm_oracle.hpp) across fleet sizes, pool
// sizes, a lossy fault plan, deadlines and the supervisor; the serial
// schedule's inline member order; one worker per session; plus the
// virtual-time makespan model.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <set>
#include <string>
#include <thread>

#include "attacks/env.hpp"
#include "core/fleet_engine.hpp"
#include "core/swarm.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/trace.hpp"
#include "swarm_oracle.hpp"

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

  /// Arms every member with its own injector for `plan`, seeded
  /// `base_seed + i`; the injector's streams advance per session, keyed
  /// only by the member.
  void arm(const fault::FaultPlan& plan, std::uint64_t base_seed) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      injectors.emplace_back(plan, base_seed + i);
      fault::FaultInjector& injector = injectors.back();
      members[i].configure = [&injector](SessionOptions& options,
                                         SessionHooks& hooks, std::uint32_t) {
        injector.arm(options, hooks);
      };
    }
  }

  std::deque<attacks::AttackEnv> envs;
  std::deque<SachaVerifier> verifiers;
  std::deque<SachaProver> provers;
  std::deque<fault::FaultInjector> injectors;
  std::vector<SwarmMember> members;
};

/// Every scheduling-independent field must match: verdicts, typed
/// failures, MACs, durations, transport totals, trace ids (host_ns is the
/// one scheduling-dependent field, as documented).
void expect_bit_identical(const SwarmReport& actual,
                          const SwarmReport& expected) {
  for (const std::string& diff : oracle::report_differences(actual, expected)) {
    ADD_FAILURE() << "differs: " << diff;
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

constexpr SwarmSchedule kSchedules[] = {
    SwarmSchedule::kSerial, SwarmSchedule::kParallel,
    SwarmSchedule::kMultiplexed};

/// Names a schedule in failure traces.
std::string schedule_name(SwarmSchedule schedule) {
  return "schedule " + std::to_string(static_cast<int>(schedule));
}

/// Runs a fresh `n`-member fleet (prepared by `prepare`) through the
/// run_attestation loop, then a fresh one under each schedule with
/// `options`, and holds every schedule to the loop field for field.
/// Returns the loop's report.
SwarmReport expect_schedules_match_oracle(
    std::size_t n, SwarmOptions options,
    const std::function<void(Fleet&)>& prepare = {}) {
  Fleet oracle_fleet(n);
  if (prepare) prepare(oracle_fleet);
  const SwarmReport expected =
      oracle::run_attestation_loop(oracle_fleet.members, options);
  for (const SwarmSchedule schedule : kSchedules) {
    Fleet fleet(n);
    if (prepare) prepare(fleet);
    options.schedule = schedule;
    SCOPED_TRACE(schedule_name(schedule));
    expect_bit_identical(attest_swarm(fleet.members, options), expected);
  }
  return expected;
}

TEST(FleetEngine, MultiplexedMatchesSerialAndParallelAcrossSizes) {
  // Every schedule equals the run_attestation loop, so all three equal
  // each other; tampered members put failing verdicts in the comparison.
  SwarmOptions options;
  options.retry_budget = 0;
  for (const std::size_t n : {1u, 3u, 16u, 64u}) {
    SCOPED_TRACE("fleet size " + std::to_string(n));
    expect_schedules_match_oracle(n, options, [n](Fleet& f) {
      if (n >= 4) f.tamper({1, 3});
    });
  }
}

TEST(FleetEngine, PoolSizeDoesNotChangeReports) {
  constexpr std::size_t kFleetSize = 16;
  SwarmOptions options;
  options.retry_budget = 0;
  Fleet oracle_fleet(kFleetSize);
  oracle_fleet.tamper({2, 9});
  const SwarmReport expected =
      oracle::run_attestation_loop(oracle_fleet.members, options);
  const std::size_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t pool : {std::size_t{1}, std::size_t{2}, cores}) {
    for (const SwarmSchedule schedule :
         {SwarmSchedule::kParallel, SwarmSchedule::kMultiplexed}) {
      Fleet fleet(kFleetSize);
      fleet.tamper({2, 9});
      options.schedule = schedule;
      options.engine.pool_size = pool;
      const SwarmReport report = attest_swarm(fleet.members, options);
      SCOPED_TRACE(schedule_name(schedule) + " pool " + std::to_string(pool));
      expect_bit_identical(report, expected);
      EXPECT_EQ(report.engine.pool_size, pool);
    }
  }
}

TEST(FleetEngine, LossyFaultPlanStaysBitIdenticalAcrossSchedules) {
  // An 8-member fleet under burst loss + reliable transport + supervisor
  // retries: every schedule must reproduce the loop's exact
  // retransmission, backoff and healing trajectory. Each fleet gets its
  // own injector set with the same seeds.
  const auto plan = fault::FaultPlan::parse("burst=0.05:0.5:1");
  ASSERT_TRUE(plan.ok());
  SwarmOptions options;
  options.session.reliable = true;
  options.session.max_retries = 8;
  options.retry_budget = 2;
  const SwarmReport expected = expect_schedules_match_oracle(
      8, options, [&plan](Fleet& f) { f.arm(plan.value(), 800); });
  EXPECT_GT(expected.messages_lost, 0u);
  EXPECT_GT(expected.retransmissions, 0u);
}

TEST(FleetEngine, SupervisorQuarantinesPersistentTamperUnderEngine) {
  SwarmOptions options;
  options.retry_budget = 3;
  const SwarmReport expected = expect_schedules_match_oracle(
      5, options, [](Fleet& f) { f.tamper({2}); });
  EXPECT_TRUE(expected.converged());
  EXPECT_EQ(expected.quarantined, 1u);
  EXPECT_EQ(expected.members[2].attempts, 4u);  // budget fully spent
}

TEST(FleetEngine, SessionDeadlineAbortsIdenticallyUnderEngine) {
  SwarmOptions options;
  options.retry_budget = 0;
  options.session.channel = net::ChannelParams::lab();
  options.session.deadline = 2 * sim::kMillisecond;
  const SwarmReport expected = expect_schedules_match_oracle(3, options);
  EXPECT_EQ(expected.attested, 0u);
  for (const SwarmMemberResult& m : expected.members) {
    EXPECT_EQ(m.failure, FailureKind::kDeadlineExceeded);
  }
}

TEST(FleetEngine, SerialRunsEveryMemberInlineInMemberOrder) {
  // kSerial is the engine on a pool of one: every member's configure, and
  // then every member's session, runs on the calling thread in member
  // order, whatever engine.pool_size says. bench_faults' shared-uplink
  // cells rely on that order.
  constexpr std::size_t kFleetSize = 6;
  Fleet fleet(kFleetSize);
  std::vector<std::size_t> configured;
  std::vector<std::size_t> sessions;
  std::set<std::thread::id> threads;
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    fleet.members[i].configure = [&configured, &threads, i](
                                     SessionOptions&, SessionHooks&,
                                     std::uint32_t) {
      configured.push_back(i);
      threads.insert(std::this_thread::get_id());
    };
    fleet.members[i].hooks.after_config = [&sessions, &threads,
                                           i](SachaProver&) {
      sessions.push_back(i);
      threads.insert(std::this_thread::get_id());
    };
  }
  SwarmOptions options;
  options.schedule = SwarmSchedule::kSerial;
  options.engine.pool_size = 4;
  const SwarmReport report = attest_swarm(fleet.members, options);
  ASSERT_TRUE(report.all_attested());
  const std::vector<std::size_t> in_order = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(configured, in_order);
  EXPECT_EQ(sessions, in_order);
  EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
  EXPECT_EQ(report.engine.pool_size, 1u);
}

TEST(FleetEngine, SerialSharedUplinkRunsReplayAfterReset) {
  // Every member draws its loss from ONE shared uplink chain, so a report
  // depends on the order sessions draw from it. Two kSerial runs from a
  // fresh chain must agree field for field, and equal the loop, which
  // draws in member order too.
  const auto plan = fault::FaultPlan::parse("uplink=7:0.05:0.5:1");
  ASSERT_TRUE(plan.ok());
  SwarmOptions options;
  options.schedule = SwarmSchedule::kSerial;
  options.session.reliable = true;
  options.session.max_retries = 8;
  options.retry_budget = 2;
  const auto run = [&](bool through_loop) {
    fault::reset_uplink_bursts();
    Fleet fleet(8);
    fleet.arm(plan.value(), 4200);
    return through_loop
               ? oracle::run_attestation_loop(fleet.members, options)
               : attest_swarm(fleet.members, options);
  };
  const SwarmReport first = run(false);
  const SwarmReport second = run(false);
  const SwarmReport loop = run(true);
  fault::reset_uplink_bursts();
  EXPECT_GT(first.messages_lost, 0u);
  expect_bit_identical(second, first);
  expect_bit_identical(first, loop);
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
  // members, against the run_attestation loop.
  const auto plan = fault::FaultPlan::parse("burst=0.05:0.5:1");
  ASSERT_TRUE(plan.ok());
  SwarmOptions options;
  options.session.reliable = true;
  options.session.max_retries = 8;
  options.retry_budget = 1;
  const auto prepare = [&plan](Fleet& fleet) {
    if (fleet.members.size() >= 4) fleet.tamper({1, 3});
    fleet.arm(plan.value(), 800);
  };

  const std::size_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t n : {1u, 3u, 16u, 64u}) {
    Fleet oracle_fleet(n);
    prepare(oracle_fleet);
    const SwarmReport expected =
        oracle::run_attestation_loop(oracle_fleet.members, options);
    for (const SwarmSchedule schedule : kSchedules) {
      for (const std::size_t pool : {std::size_t{1}, std::size_t{2}, cores}) {
        if (schedule == SwarmSchedule::kSerial && pool > 1) break;
        SCOPED_TRACE("fleet " + std::to_string(n) + " " +
                     schedule_name(schedule) + " pool " +
                     std::to_string(pool));
        Fleet fleet(n);
        prepare(fleet);
        options.schedule = schedule;
        options.engine.pool_size = pool;
        const SwarmReport report = attest_swarm(fleet.members, options);
        expect_bit_identical(report, expected);
        EXPECT_EQ(report.engine.pool_size, pool);
      }
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
