// The benchmark's three closed-loop workloads.
//
//   v6_full           4 client threads, each running back-to-back full
//                     XC6VLX240T sessions through core::run_attestation on
//                     its own device; one device is tampered.
//   v6_refresh_fleet  8 installed XC6VLX240T devices; each round is one
//                     core::attest_swarm(kMultiplexed) over §5.2.2 refresh
//                     sessions (4 workers, verify batch width 4, no
//                     supervisor retries); one member is tampered.
//   service_mixed     an in-process net::AttestServer (2 verify workers)
//                     driven over loopback by net::run_load with 4
//                     connections, small and softcore members alternating,
//                     one member in 64 tampered.
//
// Untraced runs report the end-to-end metrics; traced runs (the
// perfbench_traced binary) replay the same seeds through the replicas in
// replica.hpp and report the per-layer metrics. Both check every output.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/prover.hpp"
#include "core/verifier.hpp"
#include "gates.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Traced runs write the first traced session's spans here (if set).
  std::string spans_out;
};

struct RunResult {
  GateLog gates;
  /// Sessions attempted, and those that ended with their expected verdict.
  std::uint64_t attempted = 0;
  std::uint64_t as_expected = 0;
  /// MAC digest of the run's fixed prefix of sessions.
  std::string digest;
  std::vector<Metric> metrics;
};

/// The frame bit every tamper of the benchmark changes (a static frame on
/// the Virtex-6 floorplan, the same bit net::standard_tamper flips).
inline constexpr std::uint32_t kTamperFrame = 5;
inline constexpr std::uint32_t kTamperBit = 7;

/// The benchmark's tamper on a device `verifier` attests: pins the bit to
/// the complement of its golden value. net::standard_tamper flips it
/// instead, which undoes itself on the next session of a reused device.
std::function<void(sacha::core::SachaProver&)> pinned_tamper(
    const sacha::core::SachaVerifier& verifier);

const std::vector<std::string>& workload_names();

/// Runs one workload end to end (or traced) and checks its outputs.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
