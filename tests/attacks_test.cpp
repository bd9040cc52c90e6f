// Tests for the adversary library: every §7.2 threat must be detected or
// structurally prevented on a fresh environment, and the honest control run
// must still pass under the same harness.
#include <gtest/gtest.h>

#include <ostream>

#include "attacks/library.hpp"

namespace sacha::attacks {
namespace {

TEST(AttackEnv, HonestControlRunAttests) {
  const AttackEnv env = AttackEnv::small();
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();
  const auto report = core::run_attestation(verifier, prover, env.session_options);
  EXPECT_TRUE(report.verdict.ok()) << report.verdict.detail;
}

TEST(AttackEnv, NonGenuineKeyDiffersFromProvisioned) {
  const AttackEnv env = AttackEnv::small();
  auto genuine = env.make_prover(true);
  auto fake = env.make_prover(false);
  // Indirect check: the fake prover fails attestation, the genuine passes.
  auto v1 = env.make_verifier();
  EXPECT_TRUE(core::run_attestation(v1, genuine).verdict.ok());
  auto v2 = env.make_verifier();
  EXPECT_FALSE(core::run_attestation(v2, fake).verdict.ok());
}

struct SuiteCase {
  std::size_t index;
  const char* expected_name;
  AttackResult expected_result;
};

// Prints the attack's name: gtest would otherwise dump the raw bytes, the
// name's pointer included, so the test names would change with every build.
void PrintTo(const SuiteCase& c, std::ostream* os) { *os << c.expected_name; }

class StandardSuite : public ::testing::TestWithParam<SuiteCase> {};

TEST_P(StandardSuite, OutcomeMatchesSecurityArgument) {
  const auto suite = standard_suite();
  ASSERT_LT(GetParam().index, suite.size());
  const Attack& attack = *suite[GetParam().index];
  EXPECT_EQ(attack.name(), GetParam().expected_name);
  const AttackEnv env = AttackEnv::small(17 + GetParam().index);
  const AttackOutcome outcome = attack.run(env);
  EXPECT_EQ(outcome.result, GetParam().expected_result)
      << attack.name() << ": " << outcome.evidence;
  EXPECT_NE(outcome.result, AttackResult::kUndetected)
      << "no attack in the suite may go unnoticed";
}

INSTANTIATE_TEST_SUITE_P(
    AllAttacks, StandardSuite,
    ::testing::Values(
        SuiteCase{0, "dynpart-tamper", AttackResult::kDetected},
        SuiteCase{1, "statpart-tamper", AttackResult::kDetected},
        SuiteCase{2, "impersonation", AttackResult::kDetected},
        SuiteCase{3, "proxy-mac", AttackResult::kDetected},
        SuiteCase{4, "replay", AttackResult::kDetected},
        SuiteCase{5, "nonce-freeze", AttackResult::kDetected},
        SuiteCase{6, "bram-staging", AttackResult::kPrevented},
        SuiteCase{7, "hidden-module", AttackResult::kPrevented},
        SuiteCase{8, "update-injection", AttackResult::kDetected},
        SuiteCase{9, "external-tap", AttackResult::kDetected}),
    [](const ::testing::TestParamInfo<SuiteCase>& info) {
      std::string name = info.param.expected_name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(StandardSuiteSweep, RobustAcrossSeeds) {
  // The detection arguments are structural, not probabilistic: they must
  // hold for every seed, not just a lucky one.
  const auto suite = standard_suite();
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    for (const auto& attack : suite) {
      const AttackOutcome outcome = attack->run(AttackEnv::small(seed));
      EXPECT_NE(outcome.result, AttackResult::kUndetected)
          << attack->name() << " seed " << seed << ": " << outcome.evidence;
    }
  }
}

TEST(StandardSuiteSweep, RobustAcrossReadbackOrders) {
  const auto suite = standard_suite();
  for (const core::ReadbackOrder order :
       {core::ReadbackOrder::kSequentialFromZero,
        core::ReadbackOrder::kSequentialFromOffset,
        core::ReadbackOrder::kRandomPermutation}) {
    AttackEnv env = AttackEnv::small(55);
    env.verifier_options.order = order;
    for (const auto& attack : suite) {
      const AttackOutcome outcome = attack->run(env);
      EXPECT_NE(outcome.result, AttackResult::kUndetected)
          << attack->name() << " order " << static_cast<int>(order);
    }
  }
}

TEST(AttackDescriptions, AreNonEmptyAndUnique) {
  const auto suite = standard_suite();
  std::set<std::string> names;
  for (const auto& attack : suite) {
    EXPECT_FALSE(attack->name().empty());
    EXPECT_FALSE(attack->description().empty());
    EXPECT_TRUE(names.insert(attack->name()).second) << attack->name();
  }
  EXPECT_EQ(names.size(), 10u);
}

TEST(ToString, CoversAllResults) {
  EXPECT_STREQ(to_string(AttackResult::kDetected), "DETECTED");
  EXPECT_STREQ(to_string(AttackResult::kPrevented), "PREVENTED");
  EXPECT_STREQ(to_string(AttackResult::kUndetected), "UNDETECTED");
}

}  // namespace
}  // namespace sacha::attacks
