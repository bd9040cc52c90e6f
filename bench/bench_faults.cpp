// E17 (extension) — fault-matrix robustness sweep.
//
// Sweeps the self-healing swarm supervisor across a burst-loss × device-
// crash × ICAP-stall matrix on small reliable-channel fleets and checks
// the PR's two contracts:
//
//   1. Convergence: in every cell, every member either attests (possibly
//      healed by a fresh-nonce re-attestation) or is quarantined with a
//      typed cause — no member is left undecided.
//   2. Bit-identity: the zero-fault cell, run through the supervisor,
//      produces member-for-member identical MACs and simulated durations
//      to the pre-supervisor one-shot attest_swarm.
//
// Exit status is the gate (0 = both contracts hold), so CI can run this
// binary directly. Emits BENCH_faults.json with the per-cell outcome.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <deque>

#include "bench_util.hpp"
#include "core/swarm.hpp"
#include "fault/injector.hpp"

using namespace sacha;

namespace {

constexpr std::size_t kFleetSize = 4;

struct Fleet {
  explicit Fleet(std::uint64_t base_seed = 4200) {
    for (std::size_t i = 0; i < kFleetSize; ++i) {
      envs.push_back(attacks::AttackEnv::small(base_seed + i));
      verifiers.push_back(envs.back().make_verifier());
      provers.push_back(envs.back().make_prover());
    }
    for (std::size_t i = 0; i < kFleetSize; ++i) {
      members.push_back(core::SwarmMember{"node-" + std::to_string(i),
                                          &verifiers[i], &provers[i], {}});
    }
  }
  std::deque<attacks::AttackEnv> envs;
  std::deque<core::SachaVerifier> verifiers;
  std::deque<core::SachaProver> provers;
  std::vector<core::SwarmMember> members;
};

struct Cell {
  const char* name;
  double burst_enter;  // 0 = no burst loss
  bool crash;          // member 1 crashes mid-session (first attempt)
  bool stall;          // member 2's ICAP stalls (first attempt)
  /// Every member shares ONE Gilbert–Elliott uplink chain (fault-plan
  /// `uplink=` clause): co-located members burst together instead of
  /// independently.
  bool correlated_uplink = false;
};

struct CellOutcome {
  core::SwarmReport report;
  bool converged = false;
  bool all_terminal_ok = false;  // attested everywhere (recoverable cell)
};

CellOutcome run_cell(const Cell& cell) {
  // Cell isolation: each cell's uplink groups get fresh shared chains.
  fault::reset_uplink_bursts();
  Fleet fleet;
  std::deque<fault::FaultInjector> injectors;
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    fault::FaultPlan plan;
    if (cell.burst_enter > 0.0) {
      plan.burst = {cell.burst_enter, 0.5, 0.0, 1.0};
    }
    if (cell.correlated_uplink) {
      plan.uplink = fault::UplinkFault{7, {0.05, 0.5, 0.0, 1.0}};
    }
    if (cell.crash && i == 1) plan.crash = fault::CrashFault{6, 2};
    if (cell.stall && i == 2) plan.stall = fault::StallFault{4, 3};
    injectors.emplace_back(plan, 4200 + i);
    fault::FaultInjector& injector = injectors.back();
    const bool device_fault = plan.crash.has_value() || plan.stall.has_value();
    fleet.members[i].configure = [&injector, device_fault](
                                     core::SessionOptions& options,
                                     core::SessionHooks& hooks,
                                     std::uint32_t attempt) {
      // Channel faults are environmental (every attempt); the one-shot
      // device faults hit only the first session, so a fresh-nonce retry
      // can heal the member.
      if (attempt == 0 || !device_fault) injector.arm(options, hooks);
    };
  }
  core::SwarmOptions options;
  options.session.reliable = true;
  options.session.max_retries = 8;
  options.retry_budget = 2;
  CellOutcome out;
  out.report = core::attest_swarm(fleet.members, options);
  out.converged = out.report.converged();
  out.all_terminal_ok = out.report.all_attested();
  return out;
}

/// The bit-identity gate: zero-fault supervised run vs the historical
/// one-shot attest_swarm, member for member.
bool zero_fault_bit_identical() {
  Fleet legacy_fleet;
  core::SessionOptions session;
  session.reliable = true;
  const auto legacy = core::attest_swarm(
      legacy_fleet.members, core::SwarmSchedule::kParallel, session);

  Fleet supervised_fleet;
  core::SwarmOptions options;
  options.session = session;
  options.retry_budget = 2;  // granted but never needed
  const auto supervised = core::attest_swarm(supervised_fleet.members, options);

  if (legacy.members.size() != supervised.members.size()) return false;
  if (supervised.reattempts != 0 || supervised.healed != 0 ||
      supervised.quarantined != 0) {
    return false;
  }
  for (std::size_t i = 0; i < legacy.members.size(); ++i) {
    const auto& a = legacy.members[i];
    const auto& b = supervised.members[i];
    if (!a.verdict.ok() || !b.verdict.ok()) return false;
    if (!a.mac || !b.mac || !(*a.mac == *b.mac)) return false;
    if (a.duration != b.duration) return false;
    if (a.retransmissions != b.retransmissions) return false;
  }
  return legacy.makespan == supervised.makespan &&
         legacy.total_work == supervised.total_work;
}

/// Runs the matrix; returns true iff every gate holds.
bool fault_matrix_and_emit() {
  benchutil::print_title(
      "Fault matrix: burst loss x crash x stall, supervised fleets");
  const Cell cells[] = {
      {"zero_fault", 0.0, false, false},
      {"burst", 0.03, false, false},
      {"crash", 0.0, true, false},
      {"stall", 0.0, false, true},
      {"burst_crash", 0.03, true, false},
      {"burst_stall", 0.03, false, true},
      {"crash_stall", 0.0, true, true},
      {"burst_crash_stall", 0.03, true, true},
      {"uplink_correlated", 0.0, false, false, true},
      {"uplink_crash", 0.0, true, false, true},
  };
  std::printf("%20s %9s %7s %12s %6s %13s %8s\n", "cell", "attested",
              "healed", "quarantined", "lost", "retransmitted", "status");
  std::vector<benchutil::BenchRecord> records;
  bool all_converged = true;
  bool recoverable_all_attested = true;
  for (const Cell& cell : cells) {
    const CellOutcome out = run_cell(cell);
    all_converged = all_converged && out.converged;
    // Every cell in this matrix is recoverable by construction (bounded
    // burst loss on a reliable channel, crash that reboots, stall that
    // drains), so the supervisor must attest everyone.
    recoverable_all_attested = recoverable_all_attested && out.all_terminal_ok;
    const auto& r = out.report;
    std::printf("%20s %9zu %7zu %12zu %6llu %13llu %8s\n", cell.name,
                r.attested, r.healed, r.quarantined,
                static_cast<unsigned long long>(r.messages_lost),
                static_cast<unsigned long long>(r.retransmissions),
                out.converged ? (out.all_terminal_ok ? "ok" : "CONVERGED")
                              : "STUCK");
    const std::string prefix = std::string("cell_") + cell.name;
    records.push_back({"bench_faults", prefix + "_attested",
                       static_cast<double>(r.attested), "sessions"});
    records.push_back({"bench_faults", prefix + "_healed",
                       static_cast<double>(r.healed), "sessions"});
    records.push_back({"bench_faults", prefix + "_quarantined",
                       static_cast<double>(r.quarantined), "sessions"});
    records.push_back({"bench_faults", prefix + "_reattempts",
                       static_cast<double>(r.reattempts), "sessions"});
    records.push_back({"bench_faults", prefix + "_messages_lost",
                       static_cast<double>(r.messages_lost), "messages"});
    records.push_back({"bench_faults", prefix + "_retransmissions",
                       static_cast<double>(r.retransmissions), "messages"});
    records.push_back({"bench_faults", prefix + "_backoff_wait",
                       sim::to_seconds(r.backoff_wait), "s", true});
  }

  const bool identical = zero_fault_bit_identical();
  std::printf("\nzero-fault supervised == one-shot baseline: %s\n",
              identical ? "bit-identical" : "MISMATCH");
  records.push_back({"bench_faults", "zero_fault_bit_identical",
                     identical ? 1.0 : 0.0, "bool"});
  records.push_back({"bench_faults", "all_cells_converged",
                     all_converged ? 1.0 : 0.0, "bool"});
  records.push_back({"bench_faults", "recoverable_cells_all_attested",
                     recoverable_all_attested ? 1.0 : 0.0, "bool"});
  benchutil::write_bench_json("BENCH_faults.json", records);

  if (!all_converged) std::printf("GATE FAILED: a cell did not converge\n");
  if (!recoverable_all_attested) {
    std::printf("GATE FAILED: a recoverable cell quarantined a member\n");
  }
  if (!identical) {
    std::printf("GATE FAILED: supervisor changed the zero-fault report\n");
  }
  return all_converged && recoverable_all_attested && identical;
}

void BM_SupervisedFaultyFleet(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_cell({"burst_crash_stall", 0.03, true, true}).report.attested);
  }
}
BENCHMARK(BM_SupervisedFaultyFleet)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool gates_ok = fault_matrix_and_emit();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return gates_ok ? 0 : 1;
}
