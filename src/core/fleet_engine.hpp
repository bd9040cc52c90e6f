// Run-to-completion fleet attestation engine.
//
// attest_swarm(kParallel) burns one OS thread per member (up to the host's
// cores) and lets each thread idle through its member's simulated channel
// latency — fine for a lab fleet, but it reports a makespan only as "the
// slowest member". This engine runs N member sessions on a fixed pool of
// min(pool_size, N) workers and models what a K-lane verifier would make
// of the fleet:
//
//  - Host clock: each worker claims the next member from an atomic counter
//    and drives that member's SessionMachine to its verdict on its own
//    thread (step() → record the round → deliver() → … → finish()), the
//    verifier folding its own CMAC. Simulated channel time costs no host
//    time, so there is nothing to overlap on the host: the counter is the
//    only shared state, and each worker writes only its own members'
//    reports and verify timelines, which the caller reads after join.
//  - Simulated clock: the recorded rounds replay through a deterministic
//    K-lane schedule (verify cost modelled per absorbed word; sessions park
//    through their channel latency, so drives overlap freely) to report
//    the fleet makespan next to the thread-per-member baseline (whole
//    sessions packed FIFO onto K ports) that kParallel models.
//
// Trade-offs of running each session on one worker: a fleet smaller than
// the pool no longer splits one session's drive and verify over two cores,
// and a fleet whose size is not a multiple of the pool finishes its last
// members on fewer workers.
//
// Reports are bit-identical to kSerial/kParallel: per-member results
// derive only from the member's own seed-keyed state, never from
// scheduling (host_ns excluded, as ever). Each member's session, phase and
// readback-round spans are emitted on its worker exactly as
// run_attestation emits them, and count toward the Tracer's record bound
// the same way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/session.hpp"
#include "obs/trace.hpp"

namespace sacha::core {

struct FleetEngineOptions {
  /// Workers, and virtual verify lanes of the makespan model. 0 = default
  /// pool (min(hardware_concurrency, 8)). The engine never spawns more
  /// threads than this, nor more than there are sessions.
  std::size_t pool_size = 0;
  /// Virtual verify-lane cost per absorbed readback word, for the
  /// simulated-makespan model (the streaming absorb is ~1 cycle/byte on
  /// AES-NI; 2 ns/word keeps the model honest without dominating).
  std::uint64_t verify_ns_per_word = 2;
  /// Ignored: each verifier folds its own CMAC. Kept only because the
  /// benchmark's workloads assign it; goes with the next benchmark
  /// revision.
  std::size_t verify_batch_width = 4;
};

/// One member session to run. The engine constructs the SessionMachine
/// itself (calling verifier->begin()) when a worker claims the job.
struct FleetSessionJob {
  SachaVerifier* verifier = nullptr;
  SachaProver* prover = nullptr;
  SessionOptions options{};
  SessionHooks hooks{};
};

struct FleetEngineStats {
  std::size_t pool_size = 0;
  /// Simulated fleet makespan of the multiplexed schedule: sessions park
  /// through their channel latency while verify jobs occupy pool_size
  /// virtual verify lanes, FIFO by (ready time, member).
  sim::SimDuration makespan = 0;
  /// Baseline: the same sessions packed whole (drive + verify serialised
  /// per member) FIFO onto pool_size lanes — what thread-per-member with
  /// pool_size ports models.
  sim::SimDuration thread_per_member_makespan = 0;
  /// Sum of member session times (total simulated compute + wire).
  sim::SimDuration total_work = 0;
  /// Sum of modelled verify-lane occupancy across all members.
  sim::SimDuration verify_busy = 0;
  /// Sum of per-member channel transfer time — the latency the modelled
  /// schedule parks instead of blocking a lane.
  sim::SimDuration channel_busy = 0;
  /// total_work / makespan: effective parallelism of the multiplexed
  /// schedule (→ pool_size when the lanes are saturated, > 1 whenever
  /// latency hiding works).
  double overlap_efficiency = 0.0;
  /// Always 0: the engine has no drive slices, verify batches, steals,
  /// inboxes or multi-stream absorbs. Kept only because the benchmark's
  /// workloads read them; they go with the next benchmark revision.
  std::uint64_t drive_slices = 0;
  std::uint64_t verify_batches = 0;
  std::uint64_t verify_steals = 0;
  std::size_t peak_inbox_rounds = 0;
  std::uint64_t multi_absorb_calls = 0;
  std::uint64_t multi_absorb_streams = 0;
  std::uint64_t host_ns = 0;
};

struct FleetRunResult {
  /// Per-job reports, in job order — bit-identical to running
  /// run_attestation on each job alone.
  std::vector<AttestationReport> reports;
  FleetEngineStats stats;
};

/// Default worker-pool size: min(hardware_concurrency, 8).
std::size_t default_fleet_pool();

/// Runs all jobs on a pool of at most options.pool_size workers and
/// returns their reports in job order. With telemetry enabled, the run
/// opens a "fleet.engine" span under `fleet_trace`, and each session emits
/// its own timeline under its trace id.
FleetRunResult run_fleet(std::vector<FleetSessionJob>& jobs,
                         const FleetEngineOptions& options = {},
                         const obs::TraceId& fleet_trace = {});

}  // namespace sacha::core
