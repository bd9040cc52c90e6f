#include "gates.hpp"

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace perfbench {

using sacha::core::FailureKind;

void GateLog::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void GateLog::merge(const GateLog& other) {
  failures_.insert(failures_.end(), other.failures_.begin(),
                   other.failures_.end());
}

bool expect_verdict(GateLog& log, const std::string& who, bool tampered,
                    const Outcome& outcome) {
  const bool as_expected =
      tampered ? (!outcome.attested &&
                  outcome.failure == FailureKind::kMaskedCompareMismatch)
               : (outcome.attested && outcome.failure == FailureKind::kNone);
  log.check(as_expected,
            who + (tampered ? ": tampered session ended with "
                            : ": honest session ended with ") +
                (outcome.attested ? "attested"
                                  : sacha::core::to_string(outcome.failure)));
  return as_expected;
}

void check_theoretical(GateLog& log, const std::string& who,
                       std::uint64_t theoretical_ns) {
  log.check(theoretical_ns == kV6TheoreticalNs,
            who + ": theoretical_time " + std::to_string(theoretical_ns) +
                " ns, want " + std::to_string(kV6TheoreticalNs));
}

void check_lab_total(GateLog& log, std::uint64_t total_ns) {
  const std::uint64_t ms = (total_ns + 500'000) / 1'000'000;
  log.check(ms == kV6LabMs, "lab-channel session took " + std::to_string(ms) +
                                " ms, want " + std::to_string(kV6LabMs));
}

void check_same_outcome(GateLog& log, const std::string& who,
                        const Outcome& want, const Outcome& got) {
  log.check(want.attested == got.attested && want.failure == got.failure,
            who + ": verdict differs between the two runs");
  log.check(want.mac.has_value() && got.mac.has_value() && *want.mac == *got.mac,
            who + ": MAC differs between the two runs");
}

void check_same_ledger(GateLog& log, const std::string& who,
                       const sacha::core::AttestationReport& want,
                       const sacha::sim::TimeLedger& got_ledger,
                       std::uint64_t got_theoretical,
                       std::uint64_t got_total) {
  bool same = want.ledger.actions() == got_ledger.actions() &&
              want.theoretical_time == got_theoretical &&
              want.total_time == got_total;
  for (const std::string& action : want.ledger.actions()) {
    if (!same) break;
    same = want.ledger.count(action) == got_ledger.count(action) &&
           want.ledger.total(action) == got_ledger.total(action);
  }
  log.check(same, who + ": ledger differs between the two runs");
}

void MacDigest::add(std::uint64_t key,
                    const std::optional<sacha::crypto::Mac>& mac) {
  entries_[key] = mac;
}

std::string MacDigest::hex() const {
  sacha::crypto::Sha256 sha;
  for (const auto& [key, mac] : entries_) {
    sacha::Bytes record;
    sacha::put_u64be(record, key);
    record.push_back(mac.has_value() ? 1 : 0);
    if (mac.has_value()) record.insert(record.end(), mac->begin(), mac->end());
    sha.update(record);
  }
  const sacha::crypto::Sha256Digest digest = sha.finalize();
  return sacha::to_hex(sacha::ByteSpan(digest.data(), digest.size()));
}

std::string recorded_digest(const std::string& workload) {
  // Recorded with `perfbench --workload <w> --seed 1 --print-digest` on a
  // build whose MACs match the in-process oracles; re-record only when a
  // change to the protocol is meant to change MACs.
  static const std::map<std::string, std::string> kRecorded = {
      {"v6_full",
       "82872b8a862b45eea628488f27b8f8cc1f845faaa44e8fed4104ce8ffe704045"},
      {"v6_refresh_fleet",
       "51e7e5cd9864b8979c4326325a92782d10ea028a31d40f3452cdfb1dc7d05048"},
      {"service_mixed",
       "d86e08c80a275be679aa781f129b034ff414a7d93143405623202652a2bced57"},
  };
  const auto it = kRecorded.find(workload);
  return it == kRecorded.end() ? std::string() : it->second;
}

void check_digest(GateLog& log, const std::string& workload,
                  std::uint64_t seed, const std::string& digest_hex) {
  if (seed != kDefaultSeed) return;
  const std::string want = recorded_digest(workload);
  log.check(!want.empty() && want == digest_hex,
            workload + ": MAC digest " + digest_hex +
                " differs from the recorded " + want);
}

}  // namespace perfbench
