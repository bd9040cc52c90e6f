// Correctness gates of the benchmark.
//
// Every check the benchmark makes on the program's outputs goes through a
// GateLog. A run whose log holds a failure prints correct=false and exits
// non-zero, whatever its timings; sessions that did not end with their
// expected verdict also count against success_rate.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/failure.hpp"
#include "core/session.hpp"
#include "crypto/cmac.hpp"
#include "sim/ledger.hpp"

namespace perfbench {

/// Theoretical duration of one full XC6VLX240T session (Table 4, 1.442 s).
inline constexpr std::uint64_t kV6TheoreticalNs = 1'441'704'256;
/// Total duration of one full session on the lab channel (Table 4, 28.5 s),
/// to the millisecond.
inline constexpr std::uint64_t kV6LabMs = 28'498;
/// Seed whose MAC digests are recorded in recorded_digest().
inline constexpr std::uint64_t kDefaultSeed = 1;

class GateLog {
 public:
  /// Records one check; a false `ok` fails the run with `what` as reason.
  void check(bool ok, const std::string& what);
  /// Appends another log's checks and failures (per-thread logs).
  void merge(const GateLog& other);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// What one session ended with, as the benchmark compares it.
struct Outcome {
  bool attested = false;
  sacha::core::FailureKind failure = sacha::core::FailureKind::kNone;
  std::optional<sacha::crypto::Mac> mac;  // the verifier's MAC (H_Vrf)
};

/// Honest sessions must attest; tampered ones must fail the masked
/// compare. Returns whether the session ended as expected (the
/// success_rate numerator) and records a gate failure otherwise.
bool expect_verdict(GateLog& log, const std::string& who, bool tampered,
                    const Outcome& outcome);

/// Every full Virtex-6 session reproduces Table 4's theoretical duration.
void check_theoretical(GateLog& log, const std::string& who,
                       std::uint64_t theoretical_ns);

/// The lab-channel session reproduces Table 4's measured 28.498 s.
void check_lab_total(GateLog& log, std::uint64_t total_ns);

/// Two runs of one session (live vs in-process, traced vs untraced) must
/// agree on verdict, failure kind and MAC.
void check_same_outcome(GateLog& log, const std::string& who,
                        const Outcome& want, const Outcome& got);

/// ... and, for in-process runs, on every ledger row and the two totals.
void check_same_ledger(GateLog& log, const std::string& who,
                       const sacha::core::AttestationReport& want,
                       const sacha::sim::TimeLedger& got_ledger,
                       std::uint64_t got_theoretical,
                       std::uint64_t got_total);

/// Order-independent fold of session MACs: entries are sorted by key before
/// hashing, so the digest depends on which sessions ran and what they
/// produced, never on the order threads finished them in.
class MacDigest {
 public:
  void add(std::uint64_t key, const std::optional<sacha::crypto::Mac>& mac);
  /// Hex SHA-256 over (key, MAC) in key order; a missing MAC hashes as a
  /// distinct marker so it can never collide with a present one.
  std::string hex() const;

 private:
  std::map<std::uint64_t, std::optional<sacha::crypto::Mac>> entries_;
};

/// Digest recorded for `workload` at kDefaultSeed, empty when none is.
std::string recorded_digest(const std::string& workload);

/// At kDefaultSeed the digest must equal the recorded one; at other seeds
/// there is no record and the check is skipped.
void check_digest(GateLog& log, const std::string& workload,
                  std::uint64_t seed, const std::string& digest_hex);

}  // namespace perfbench
