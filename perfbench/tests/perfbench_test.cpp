// Tests of the benchmark's own machinery: percentile helpers, the MAC
// digest, the traced replicas, and every correctness gate firing on a
// planted fault. A gate that fires leaves its GateLog not ok(), which is
// what makes a run print correct=false and exit 1.
//
//   cmake --build <build> --target perfbench_tests && <build>/perfbench_tests
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "attacks/env.hpp"
#include "core/session.hpp"
#include "gates.hpp"
#include "net/attest_client.hpp"
#include "replica.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sacha::core::FailureKind;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  return v;
}

sacha::crypto::Mac mac_of(std::uint8_t fill) {
  sacha::crypto::Mac mac{};
  mac.fill(fill);
  return mac;
}

// ---- Percentiles ------------------------------------------------------------

TEST(Percentile, NearestRankReturnsAMeasuredSample) {
  EXPECT_EQ(median(one_to(100)), 50.0);
  EXPECT_EQ(median(one_to(101)), 51.0);
  EXPECT_EQ(percentile(one_to(100), 0.9), 90.0);
  EXPECT_EQ(percentile(one_to(10), 1.0), 10.0);
  EXPECT_EQ(median({}), std::nullopt);
}

TEST(Percentile, P90RefusesFewerThanTenSamplesBeyondIt) {
  EXPECT_EQ(p90(one_to(99)), std::nullopt);  // 9 samples above rank 90
  EXPECT_EQ(p90(one_to(100)), 90.0);         // exactly 10 above
  EXPECT_EQ(p90(one_to(1000)), 900.0);
  EXPECT_EQ(p90({}), std::nullopt);
}

// ---- Measurement windows ----------------------------------------------------

TEST(Windows, RoundsStayWholeAndLeftoversJoinTheLastWindow) {
  // Rounds of 60 sessions ending at t = 10, 20, ..., 50 s, with one CPU
  // second per round; the measured loop starts at t = 5 s, CPU 2 s.
  std::vector<Completion> done;
  for (int round = 5; round >= 1; --round) {
    for (int k = 0; k < 60; ++k) {
      done.push_back(Completion{10.0 * round, 2.0 + round, static_cast<double>(k)});
    }
  }
  const std::vector<Window> w = cut_windows(done, 5.0, 2.0);
  ASSERT_EQ(w.size(), 2u);  // rounds {1,2} and {3,4}, then round 5 as leftover
  EXPECT_EQ(w[0].latency_ms.size(), 120u);
  EXPECT_DOUBLE_EQ(w[0].wall_s, 15.0);
  EXPECT_DOUBLE_EQ(w[0].cpu_s, 2.0);
  EXPECT_EQ(w[1].latency_ms.size(), 180u);
  EXPECT_DOUBLE_EQ(w[1].wall_s, 30.0);
  EXPECT_DOUBLE_EQ(w[1].cpu_s, 3.0);
  EXPECT_TRUE(p90(w[0].latency_ms).has_value());
}

TEST(Windows, FewerThanOneWindowGivesNone) {
  std::vector<Completion> done(kWindowSessions - 1, Completion{1.0, 1.0, 1.0});
  EXPECT_TRUE(cut_windows(done, 0.0, 0.0).empty());
  done.push_back(Completion{2.0, 2.0, 1.0});
  EXPECT_EQ(cut_windows(done, 0.0, 0.0).size(), 1u);
}

// ---- MAC digest -------------------------------------------------------------

TEST(MacDigest, IndependentOfInsertionOrder) {
  MacDigest forward;
  MacDigest backward;
  for (std::uint64_t k = 0; k < 16; ++k) forward.add(k, mac_of(static_cast<std::uint8_t>(k)));
  for (std::uint64_t k = 16; k-- > 0;) backward.add(k, mac_of(static_cast<std::uint8_t>(k)));
  EXPECT_EQ(forward.hex(), backward.hex());
  EXPECT_EQ(forward.hex().size(), 64u);
}

TEST(MacDigest, ChangesWithAnyMacKeyOrAbsence) {
  MacDigest base;
  base.add(1, mac_of(1));
  base.add(2, mac_of(2));

  MacDigest flipped = base;
  sacha::crypto::Mac m = mac_of(2);
  m[15] ^= 1;
  flipped.add(2, m);
  EXPECT_NE(base.hex(), flipped.hex());

  MacDigest rekeyed;
  rekeyed.add(1, mac_of(1));
  rekeyed.add(3, mac_of(2));
  EXPECT_NE(base.hex(), rekeyed.hex());

  MacDigest missing = base;
  missing.add(2, std::nullopt);
  EXPECT_NE(base.hex(), missing.hex());
}

// ---- Gates on planted faults ------------------------------------------------

TEST(Gates, VerdictGateFiresOnEveryUnexpectedOutcome) {
  GateLog good;
  EXPECT_TRUE(expect_verdict(good, "honest", false, {true, FailureKind::kNone, {}}));
  EXPECT_TRUE(expect_verdict(good, "tampered", true,
                             {false, FailureKind::kMaskedCompareMismatch, {}}));
  EXPECT_TRUE(good.ok());

  GateLog honest_failed;
  EXPECT_FALSE(expect_verdict(honest_failed, "honest", false,
                              {false, FailureKind::kMacMismatch, {}}));
  EXPECT_FALSE(honest_failed.ok());

  GateLog tamper_missed;
  EXPECT_FALSE(expect_verdict(tamper_missed, "tampered", true, {true, FailureKind::kNone, {}}));
  EXPECT_FALSE(tamper_missed.ok());

  GateLog wrong_cause;
  EXPECT_FALSE(expect_verdict(wrong_cause, "tampered", true,
                              {false, FailureKind::kMacMismatch, {}}));
  EXPECT_FALSE(wrong_cause.ok());
}

/// Installs a small device with one full session, then runs two refresh
/// sessions with `tamper` armed and reports whether each was caught. Frame
/// 5 lies outside the nonce partition, so a refresh never rewrites it.
std::vector<bool> caught_on_reuse(bool use_standard_tamper) {
  sacha::attacks::AttackEnv env = sacha::attacks::AttackEnv::small(11);
  sacha::core::SachaVerifier verifier = env.make_verifier();
  sacha::core::SachaProver prover = env.make_prover();
  EXPECT_TRUE(sacha::core::run_attestation(verifier, prover).verdict.ok());
  verifier.set_refresh_only(true);
  sacha::core::SessionHooks hooks;
  hooks.after_config =
      use_standard_tamper ? sacha::net::standard_tamper() : pinned_tamper(verifier);
  std::vector<bool> caught;
  for (std::uint64_t s = 0; s < 2; ++s) {
    sacha::core::SessionOptions options;
    options.seed = 100 + s;
    const auto report = sacha::core::run_attestation(verifier, prover, options, hooks);
    GateLog log;
    expect_verdict(log, "reused", true,
                   {report.verdict.ok(), report.failure, verifier.expected_mac()});
    caught.push_back(log.ok());
  }
  return caught;
}

TEST(Gates, TamperGateFiresWhenTheTamperTogglesOnAReusedDevice) {
  EXPECT_EQ(caught_on_reuse(/*use_standard_tamper=*/false),
            (std::vector<bool>{true, true}));
  // Planted fault: the flipping tamper undoes itself on the second session.
  EXPECT_EQ(caught_on_reuse(/*use_standard_tamper=*/true),
            (std::vector<bool>{true, false}));
}

TEST(Gates, TheoreticalTimeGate) {
  GateLog good;
  check_theoretical(good, "s", kV6TheoreticalNs);
  EXPECT_TRUE(good.ok());
  GateLog planted;
  check_theoretical(planted, "s", kV6TheoreticalNs - 1);
  EXPECT_FALSE(planted.ok());
}

TEST(Gates, LabChannelGate) {
  GateLog good;
  check_lab_total(good, 28'498'400'000);
  EXPECT_TRUE(good.ok());
  // Planted fault: the ideal-channel duration instead of the lab channel's.
  GateLog planted;
  check_lab_total(planted, kV6TheoreticalNs);
  EXPECT_FALSE(planted.ok());
}

TEST(Gates, DigestGateAtTheDefaultSeedOnly) {
  for (const std::string& workload : workload_names()) {
    const std::string recorded = recorded_digest(workload);
    ASSERT_EQ(recorded.size(), 64u) << workload;
    GateLog good;
    check_digest(good, workload, kDefaultSeed, recorded);
    EXPECT_TRUE(good.ok()) << workload;

    std::string planted_digest = recorded;
    planted_digest[0] = planted_digest[0] == '0' ? '1' : '0';
    GateLog planted;
    check_digest(planted, workload, kDefaultSeed, planted_digest);
    EXPECT_FALSE(planted.ok()) << workload;

    GateLog other_seed;
    check_digest(other_seed, workload, kDefaultSeed + 1, planted_digest);
    EXPECT_TRUE(other_seed.ok()) << workload;
  }
}

TEST(Gates, SameOutcomeGateFiresOnAFlippedMacOrVerdict) {
  const Outcome want{true, FailureKind::kNone, mac_of(9)};
  GateLog good;
  check_same_outcome(good, "s", want, want);
  EXPECT_TRUE(good.ok());

  Outcome flipped = want;
  (*flipped.mac)[3] ^= 0x80;
  GateLog planted_mac;
  check_same_outcome(planted_mac, "s", want, flipped);
  EXPECT_FALSE(planted_mac.ok());

  Outcome failed = want;
  failed.attested = false;
  failed.failure = FailureKind::kMaskedCompareMismatch;
  GateLog planted_verdict;
  check_same_outcome(planted_verdict, "s", want, failed);
  EXPECT_FALSE(planted_verdict.ok());

  GateLog missing;
  check_same_outcome(missing, "s", want, {true, FailureKind::kNone, std::nullopt});
  EXPECT_FALSE(missing.ok());
}

// ---- Replicas ---------------------------------------------------------------

struct Twin {
  explicit Twin(std::uint64_t seed)
      : env(sacha::attacks::AttackEnv::small(seed)),
        verifier(env.make_verifier()),
        prover(env.make_prover()) {}
  sacha::attacks::AttackEnv env;
  sacha::core::SachaVerifier verifier;
  sacha::core::SachaProver prover;
};

TEST(Replica, TracedSessionEqualsRunAttestation) {
  for (const bool tampered : {false, true}) {
    Twin a(21);
    Twin b(21);
    SpanRecorder rec;
    for (const bool refresh : {false, true}) {
      a.verifier.set_refresh_only(refresh);
      b.verifier.set_refresh_only(refresh);
      sacha::core::SessionOptions options;
      options.seed = refresh ? 77 : 76;
      sacha::core::SessionHooks hooks;
      if (tampered) hooks.after_config = pinned_tamper(a.verifier);
      const auto want =
          sacha::core::run_attestation(a.verifier, a.prover, options, hooks);
      const TracedSession got = run_traced_session(
          b.verifier, b.prover, b.env.key, options, hooks.after_config, rec);

      GateLog log;
      check_same_outcome(log, "replica",
                         {want.verdict.ok(), want.failure, a.verifier.expected_mac()},
                         got.outcome);
      check_same_ledger(log, "replica", want, got.ledger, got.theoretical_ns,
                        got.total_ns);
      EXPECT_TRUE(log.ok()) << (log.ok() ? "" : log.failures().front());
      EXPECT_TRUE(got.shadow_mac_matches);
      EXPECT_EQ(got.outcome.attested, !tampered);

      // Planted fault: one extra ledger row breaks the ledger gate.
      sacha::sim::TimeLedger planted = got.ledger;
      planted.add(sacha::core::actions::kA1, 1);
      GateLog planted_log;
      check_same_ledger(planted_log, "replica", want, planted, got.theoretical_ns,
                        got.total_ns);
      EXPECT_FALSE(planted_log.ok());
    }
  }
}

TEST(Replica, SelfTimesSumToTheSessionSpan) {
  Twin t(5);
  SpanRecorder rec;
  sacha::core::SessionOptions options;
  const TracedSession s =
      run_traced_session(t.verifier, t.prover, t.env.key, options, {}, rec);
  double sum = 0.0;
  for (const double ns : s.self_ns) sum += ns;
  EXPECT_NEAR(sum, s.wall_ns, 1.0);
  ASSERT_GT(rec.spans().size(), 1u);
  EXPECT_EQ(rec.spans().front().parent, Span::kNoParent);
  for (std::size_t i = 1; i < rec.spans().size(); ++i) {
    EXPECT_EQ(rec.spans()[i].parent, 0u);
    EXPECT_LE(rec.spans()[i].start_ns, rec.spans()[i].end_ns);
  }
}

TEST(Replica, ServiceSessionEqualsTheInProcessSession) {
  sacha::net::FleetSpec spec;
  spec.mixed = true;
  sacha::core::AuditLog audit;
  for (std::size_t slot = 0; slot < 4; ++slot) {
    const bool tampered = slot == 3;
    const sacha::net::HelloMsg hello = sacha::net::member_hello(spec, slot);
    const ServiceSession got = run_service_session(
        hello, tampered ? sacha::net::standard_tamper() : nullptr, audit);

    const sacha::attacks::AttackEnv env = sacha::net::member_env(
        sacha::net::member_scale(spec, slot), spec.base_seed + slot);
    sacha::core::SachaVerifier verifier = env.make_verifier();
    sacha::core::SachaProver prover = env.make_prover();
    sacha::core::SessionOptions options = env.session_options;
    options.seed = sacha::net::member_session_seed(spec, slot);
    sacha::core::SessionHooks hooks;
    if (tampered) hooks.after_config = sacha::net::standard_tamper();
    const auto want = sacha::core::run_attestation(verifier, prover, options, hooks);

    GateLog log;
    check_same_outcome(log, "service",
                       {want.verdict.ok(), want.failure, verifier.expected_mac()},
                       got.outcome);
    EXPECT_TRUE(log.ok()) << slot;
    EXPECT_EQ(got.outcome.attested, !tampered);
  }
  EXPECT_EQ(audit.size(), 4u);
  EXPECT_TRUE(audit.verify_chain());
}

}  // namespace
}  // namespace perfbench
