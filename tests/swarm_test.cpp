// Tests for swarm attestation: aggregation, the schedules' makespan
// models, bit-identity with the run_attestation loop, and isolation of
// compromised members.
#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "attacks/env.hpp"
#include "core/swarm.hpp"
#include "swarm_oracle.hpp"

namespace sacha::core {
namespace {

/// Owns the fleet's verifiers/provers (SwarmMember holds raw pointers).
struct Fleet {
  explicit Fleet(std::size_t n, std::uint64_t base_seed = 500) {
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

  std::deque<attacks::AttackEnv> envs;
  std::deque<SachaVerifier> verifiers;
  std::deque<SachaProver> provers;
  std::vector<SwarmMember> members;
};

TEST(Swarm, AllHonestMembersAttest) {
  Fleet fleet(5);
  const SwarmReport report = attest_swarm(fleet.members);
  EXPECT_TRUE(report.all_attested());
  EXPECT_EQ(report.attested, 5u);
  EXPECT_TRUE(report.failed_ids().empty());
  EXPECT_EQ(report.members.size(), 5u);
}

TEST(Swarm, CompromisedMemberIsolated) {
  Fleet fleet(4);
  fleet.members[2].hooks.after_config = [](SachaProver& p) {
    bitstream::Frame f = p.memory().config_frame(6);
    f.flip_bit(1);
    p.memory().write_frame(6, f);
  };
  const SwarmReport report = attest_swarm(fleet.members);
  EXPECT_EQ(report.attested, 3u);
  EXPECT_EQ(report.failed_ids(), std::vector<std::string>{"node-2"});
}

TEST(Swarm, ParallelMakespanIsMaxSerialIsSum) {
  Fleet fleet(6);
  const SwarmReport parallel = attest_swarm(fleet.members, SwarmSchedule::kParallel);
  Fleet fleet2(6);
  const SwarmReport serial = attest_swarm(fleet2.members, SwarmSchedule::kSerial);
  EXPECT_EQ(serial.makespan, serial.total_work);
  EXPECT_LT(parallel.makespan, parallel.total_work);
  sim::SimDuration max_member = 0;
  for (const auto& m : parallel.members) {
    max_member = std::max(max_member, m.duration);
  }
  EXPECT_EQ(parallel.makespan, max_member);
}

TEST(Swarm, TotalWorkEqualsSumOfMembers) {
  Fleet fleet(3);
  const SwarmReport report = attest_swarm(fleet.members);
  sim::SimDuration sum = 0;
  for (const auto& m : report.members) sum += m.duration;
  EXPECT_EQ(report.total_work, sum);
}

TEST(Swarm, EmptyFleetIsVacuouslyAttested) {
  std::vector<SwarmMember> empty;
  const SwarmReport report = attest_swarm(empty);
  EXPECT_TRUE(report.all_attested());
  EXPECT_EQ(report.makespan, 0u);
}

TEST(Swarm, ParallelMatchesSerialDeterministically) {
  // 16-member fleet, same base seeds: every schedule must produce the
  // report of a plain run_attestation loop (swarm_oracle.hpp) — per-member
  // verdicts, durations, MACs and every other scheduling-independent field
  // — so the schedules also equal each other. Member seeds derive from
  // (fleet seed, member id, attempt), never from scheduling, so threading
  // must not be observable in the results.
  static constexpr std::size_t kFleetSize = 16;
  const auto tampered_fleet = [] {
    auto fleet = std::make_unique<Fleet>(kFleetSize);
    // Two tampered members put failing verdicts in the comparison too.
    for (std::size_t i : {3u, 11u}) {
      fleet->members[i].hooks.after_config = [](SachaProver& p) {
        bitstream::Frame f = p.memory().config_frame(4);
        f.flip_bit(9);
        p.memory().write_frame(4, f);
      };
    }
    return fleet;
  };
  SwarmOptions options;
  options.retry_budget = 0;
  const SwarmReport expected =
      oracle::run_attestation_loop(tampered_fleet()->members, options);
  EXPECT_EQ(expected.failed_ids(),
            (std::vector<std::string>{"node-3", "node-11"}));
  for (const SwarmSchedule schedule :
       {SwarmSchedule::kSerial, SwarmSchedule::kParallel,
        SwarmSchedule::kMultiplexed}) {
    options.schedule = schedule;
    const SwarmReport report =
        attest_swarm(tampered_fleet()->members, options);
    for (const std::string& diff :
         oracle::report_differences(report, expected)) {
      ADD_FAILURE() << "schedule " << static_cast<int>(schedule)
                    << " differs: " << diff;
    }
  }
}

TEST(Swarm, MembersGetIndependentChannelRandomness) {
  // With jitter enabled, member durations must not be identical clones.
  Fleet fleet(4);
  SessionOptions options;
  options.channel.jitter_max = 100'000;
  const SwarmReport report = attest_swarm(fleet.members, SwarmSchedule::kParallel,
                                          options);
  ASSERT_TRUE(report.all_attested());
  std::set<sim::SimDuration> distinct;
  for (const auto& m : report.members) distinct.insert(m.duration);
  EXPECT_GT(distinct.size(), 1u);
}

}  // namespace
}  // namespace sacha::core
