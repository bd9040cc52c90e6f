// Protocol-level property sweeps: structural invariants that must hold for
// every verifier configuration, seed and device — the counts and identities
// that make Tables 3/4 derivable rather than coincidental.
#include <gtest/gtest.h>

#include <ostream>

#include "attacks/env.hpp"
#include "core/session.hpp"

namespace sacha::core {
namespace {

struct PropertyCase {
  PropertyCase(std::uint32_t frames, ReadbackOrder readback,
               std::uint64_t case_seed)
      : frames_per_config(frames), order(readback), seed(case_seed) {}

  std::uint32_t frames_per_config;
  ReadbackOrder order;
  // gtest names each case by printing its raw bytes. Zero bytes in place of
  // padding keep those names the same in every run.
  std::uint8_t zero_fill[3] = {};
  std::uint64_t seed;
};
static_assert(sizeof(PropertyCase) == 16, "PropertyCase must have no padding");

class SessionInvariants : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SessionInvariants, HoldForEveryConfiguration) {
  const PropertyCase& p = GetParam();
  attacks::AttackEnv env = attacks::AttackEnv::small(p.seed);
  env.verifier_options.frames_per_config = p.frames_per_config;
  env.verifier_options.order = p.order;
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();
  const AttestationReport report = run_attestation(verifier, prover);

  ASSERT_TRUE(report.verdict.ok()) << report.verdict.detail;

  // Per-readback identities: every readback is executed, MACed and answered.
  const auto readbacks = report.ledger.count(actions::kA3);
  EXPECT_EQ(report.ledger.count(actions::kA4), readbacks);
  EXPECT_EQ(report.ledger.count(actions::kA6), readbacks);
  EXPECT_EQ(report.ledger.count(actions::kA8), readbacks);
  EXPECT_EQ(readbacks, 16u) << "full memory, regardless of options";

  // Once-per-session actions.
  EXPECT_EQ(report.ledger.count(actions::kA5), 1u);
  EXPECT_EQ(report.ledger.count(actions::kA7), 1u);
  EXPECT_EQ(report.ledger.count(actions::kA9), 1u);
  EXPECT_EQ(report.ledger.count(actions::kA10), 1u);

  // Config commands follow the chunking arithmetic (+1 nonce).
  const std::uint32_t app_frames = 11;
  const std::uint32_t expected_configs =
      (app_frames + p.frames_per_config - 1) / p.frames_per_config + 1;
  EXPECT_EQ(report.ledger.count(actions::kA1), expected_configs);
  EXPECT_EQ(report.ledger.count(actions::kA2), expected_configs);

  // The theoretical time is exactly the sum of the A-buckets.
  sim::SimDuration sum = 0;
  for (const char* key : {actions::kA1, actions::kA2, actions::kA3, actions::kA4,
                          actions::kA5, actions::kA6, actions::kA7, actions::kA8,
                          actions::kA9, actions::kA10}) {
    sum += report.ledger.total(key);
  }
  EXPECT_EQ(report.theoretical_time, sum);
  EXPECT_GE(report.total_time, report.theoretical_time);

  // Command accounting matches the ledger.
  EXPECT_EQ(report.commands_sent,
            report.ledger.count(actions::kA1) + readbacks + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SessionInvariants,
    ::testing::Values(
        PropertyCase{1, ReadbackOrder::kSequentialFromOffset, 1},
        PropertyCase{1, ReadbackOrder::kSequentialFromZero, 2},
        PropertyCase{1, ReadbackOrder::kRandomPermutation, 3},
        PropertyCase{2, ReadbackOrder::kSequentialFromOffset, 4},
        PropertyCase{3, ReadbackOrder::kRandomPermutation, 5},
        PropertyCase{5, ReadbackOrder::kSequentialFromZero, 6},
        PropertyCase{11, ReadbackOrder::kSequentialFromOffset, 7}));

TEST(VerifierDeterminism, SameSeedSameCommands) {
  attacks::AttackEnv env = attacks::AttackEnv::small(77);
  auto v1 = env.make_verifier();
  auto v2 = env.make_verifier();
  v1.begin();
  v2.begin();
  ASSERT_EQ(v1.command_count(), v2.command_count());
  for (std::size_t i = 0; i < v1.command_count(); ++i) {
    EXPECT_EQ(v1.command(i), v2.command(i)) << i;
  }
}

TEST(VerifierDeterminism, SessionsDifferWithinOneVerifier) {
  attacks::AttackEnv env = attacks::AttackEnv::small(78);
  auto verifier = env.make_verifier();
  verifier.begin();
  const std::size_t config_count = verifier.command_count() - 17;  // 16 rb + mac
  const Command nonce_cmd_1 = verifier.command(config_count - 1);
  verifier.begin();
  const Command nonce_cmd_2 = verifier.command(config_count - 1);
  EXPECT_NE(nonce_cmd_1, nonce_cmd_2) << "nonce frame content must roll";
}

TEST(CommandIdempotence, ReplayingConfigCommandIsHarmless) {
  // The RX-side dedup covers retransmissions; even without it, re-executing
  // the same config command writes the same bytes.
  attacks::AttackEnv env = attacks::AttackEnv::small(79);
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();
  verifier.begin();
  const Command cmd = verifier.command(0);
  (void)prover.handle(cmd);
  const auto snapshot = prover.memory().config_frame(4);
  (void)prover.handle(cmd);
  EXPECT_EQ(prover.memory().config_frame(4), snapshot);
}

struct RetransmitCase {
  std::uint32_t max_retries;
  std::uint64_t seed;
};

// Prints the two fields: gtest would otherwise dump the raw bytes, padding
// included, so the test names would change between builds.
void PrintTo(const RetransmitCase& c, std::ostream* os) {
  *os << "max_retries=" << c.max_retries << ",seed=" << c.seed;
}

class RetransmitDedup : public ::testing::TestWithParam<RetransmitCase> {};

TEST_P(RetransmitDedup, LostResponsePlusRetryNeverDoubleStepsTheMac) {
  // Drop the first delivery of every response — configuration acks,
  // readback frames and the MAC checksum alike — so every command round
  // retransmits at least once. The device's sequence-number dedup answers
  // the retry from its response cache, so the ICAP executes each command
  // exactly once and the running CMAC steps exactly once per readback.
  // If a retry double-stepped the MAC, H_Prv would diverge from H_Vrf and
  // the verdict would fail; attesting proves the property across all
  // three command types for this retry budget.
  const RetransmitCase& p = GetParam();
  attacks::AttackEnv env = attacks::AttackEnv::small(p.seed);
  env.session_options.reliable = true;
  env.session_options.max_retries = p.max_retries;
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();
  SessionHooks hooks;
  std::size_t responses_this_command = 0;
  hooks.before_command = [&responses_this_command](std::size_t,
                                                   SachaProver&) {
    responses_this_command = 0;
  };
  hooks.on_response = [&responses_this_command](Bytes&) {
    return responses_this_command++ > 0;  // swallow the first delivery
  };
  const AttestationReport report =
      run_attestation(verifier, prover, env.session_options, hooks);
  ASSERT_TRUE(report.verdict.ok()) << report.verdict.detail;
  EXPECT_EQ(report.failure, FailureKind::kNone);
  // One retry per command that expects a reply (readbacks + MAC) and per
  // acked configuration command.
  EXPECT_GE(report.retransmissions, report.commands_sent / 2);

  // The reference MAC of an undisturbed run is identical: the retries were
  // invisible to the crypto.
  attacks::AttackEnv clean_env = attacks::AttackEnv::small(p.seed);
  auto clean_verifier = clean_env.make_verifier();
  auto clean_prover = clean_env.make_prover();
  const AttestationReport clean =
      run_attestation(clean_verifier, clean_prover, clean_env.session_options);
  ASSERT_TRUE(clean.verdict.ok());
  ASSERT_TRUE(prover.last_mac().has_value());
  ASSERT_TRUE(clean_prover.last_mac().has_value());
  EXPECT_EQ(*prover.last_mac(), *clean_prover.last_mac());
}

INSTANTIATE_TEST_SUITE_P(AllRetryBudgets, RetransmitDedup,
                         ::testing::Values(RetransmitCase{1, 90},
                                           RetransmitCase{2, 91},
                                           RetransmitCase{3, 92},
                                           RetransmitCase{5, 93},
                                           RetransmitCase{8, 94}));

TEST(StreamPadding, PaddedAndUnpaddedCommandsActIdentically) {
  attacks::AttackEnv env = attacks::AttackEnv::small(80);
  env.verifier_options.config_pad_words = 0;  // no padding at all
  env.verifier_options.readback_pad_words = 0;
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();
  const AttestationReport report = run_attestation(verifier, prover);
  EXPECT_TRUE(report.verdict.ok()) << report.verdict.detail;
  // Less wire time than the padded PoC framing, same device-side work.
  EXPECT_LT(report.ledger.average(actions::kA1), 8'848u);
  EXPECT_EQ(report.ledger.average(actions::kA2),
            sim::icap_domain().cycles_to_time(18 + 8 + 11));
}

}  // namespace
}  // namespace sacha::core
