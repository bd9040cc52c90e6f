// E18 (extension) — attestation-gated OTA pipeline under faults, at scale.
//
// Three exit-code gates over src/update/:
//
//   1. Fault matrix: {burst loss, ICAP stall, device crash} x {pre-attest,
//      activate, post-attest} cells through run_update. Every cell must
//      end terminal (Committed or RolledBack) with the gate invariant
//      intact — zero commits without BOTH attestations, ever. Transport
//      cells (burst/stall on a reliable channel) must commit; the crash
//      cells must roll back, and a crash during Activating must bring the
//      device back attested on the OLD image (the crash-during-activation
//      rule).
//
//   2. Rolling wave: a 256-member fleet updated through EpochScheduler in
//      waves, converging inside the tick deadline with nobody
//      quarantined and every member committed through a two-attestation
//      pipeline.
//
//   3. Probe cost: a refresh-only probe at 2% coverage on the full
//      XC6VLX240T floorplan must cost <= 5% of a full session
//      (theoretical protocol time) — the economics that make continuous
//      attestation affordable between budgeted fulls.
//
// Emits BENCH_update.json; exit status 0 iff every gate holds, so CI can
// run this binary directly.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include "attacks/env.hpp"
#include "bench_util.hpp"
#include "fault/injector.hpp"
#include "update/epoch.hpp"
#include "update/pipeline.hpp"

using namespace sacha;

namespace {

/// The OTA stager's half: a manifest for `new_app` on `env`'s device with
/// the payload digest computed from a throwaway golden model.
update::UpdateManifest make_manifest(const attacks::AttackEnv& env,
                                     const bitstream::DesignSpec& new_app,
                                     std::uint64_t version) {
  attacks::AttackEnv staged = env;
  staged.app_spec = new_app;
  const core::SachaVerifier v = staged.make_verifier();
  update::UpdateManifest manifest;
  manifest.version = version;
  manifest.device_type = v.floorplan().device().name();
  manifest.app = new_app;
  manifest.payload = update::payload_digest(*v.golden_model());
  manifest.payload_bytes = update::payload_frame_bytes(*v.golden_model());
  return manifest;
}

struct Cell {
  const char* fault_name;
  const char* plan_spec;   // fault::FaultPlan textual form
  bool reliable;           // transport faults need ack/retransmit to heal
  bool expect_commit;      // transport cells commit, crash cells roll back
  const char* phase_name;
  std::string_view phase;  // run_update phase label the plan arms in
};

update::UpdateReport run_cell(const Cell& cell, std::uint64_t seed) {
  attacks::AttackEnv env = attacks::AttackEnv::small(seed);
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();
  crypto::HashSigner signer(seed ^ 0x5157, 3);
  auto signed_manifest = update::sign_manifest(
      make_manifest(env, {"app-v2", 2}, 2), signer);
  if (!signed_manifest.ok()) std::abort();

  const auto plan = fault::FaultPlan::parse(cell.plan_spec);
  if (!plan.ok()) std::abort();
  core::LeafPolicy policy;
  update::UpdateRunOptions run;
  run.session = env.session_options;
  run.session.seed = seed;
  run.session.reliable = cell.reliable;
  run.session.max_retries = 8;
  run.attest_retry_budget = 3;
  std::deque<fault::FaultInjector> injectors;
  run.configure = [&](core::SessionOptions& session, core::SessionHooks& hooks,
                      std::string_view phase, std::uint32_t attempt) {
    // The fault targets exactly one pipeline phase (every attempt of it);
    // the other phases — including the rollback recovery session — run
    // on a clean channel.
    if (phase != cell.phase) return;
    injectors.emplace_back(plan.value(), seed ^ (977u * (attempt + 1)));
    injectors.back().arm(session, hooks);
  };
  return update::run_update(verifier, prover, signed_manifest.value(),
                            signer.root(), policy, run);
}

bool fault_matrix(std::vector<benchutil::BenchRecord>& records) {
  benchutil::print_title(
      "Update gate fault matrix: burst x stall x crash, per phase");
  struct FaultRow {
    const char* name;
    const char* spec;
    bool reliable;
    bool expect_commit;
  };
  const FaultRow faults[] = {
      {"burst", "burst=0.05:0.5:1", true, true},
      {"stall", "stall=6:8", true, true},
      {"crash", "crash=8:4", false, false},
  };
  struct PhaseRow {
    const char* name;
    std::string_view label;
  };
  const PhaseRow phase_rows[] = {
      {"pre", update::phases::kPre},
      {"activate", update::phases::kActivate},
      {"post", update::phases::kPost},
  };
  std::printf("%18s %12s %10s %12s %8s\n", "cell", "final", "invariant",
              "old-attested", "status");
  bool all_ok = true;
  std::size_t phantom_commits = 0;
  for (const FaultRow& f : faults) {
    for (const PhaseRow& p : phase_rows) {
      const Cell cell{f.name, f.spec, f.reliable, f.expect_commit,
                      p.name,  p.label};
      const update::UpdateReport report = run_cell(cell, 0x9e00 + (&f - faults) * 16 + (&p - phase_rows));
      const std::string name =
          std::string(f.name) + "_" + p.name;
      const bool terminal =
          report.final_state == update::UpdateState::kCommitted ||
          report.final_state == update::UpdateState::kRolledBack;
      if (report.committed() &&
          !(report.pre_attested && report.post_attested)) {
        ++phantom_commits;
      }
      bool ok = terminal && report.invariant_ok &&
                report.committed() == f.expect_commit;
      // The crash-during-activation rule: the device reboots on the old
      // static image and the rollback session must re-attest it.
      if (f.expect_commit == false && p.label == update::phases::kActivate) {
        ok = ok && report.old_image_attested;
      }
      all_ok = all_ok && ok;
      std::printf("%18s %12s %10s %12s %8s\n", name.c_str(),
                  update::to_string(report.final_state),
                  report.invariant_ok ? "ok" : "BROKEN",
                  report.old_image_attested ? "yes" : "no",
                  ok ? "ok" : "FAILED");
      records.push_back({"bench_update", "cell_" + name + "_committed",
                         report.committed() ? 1.0 : 0.0, "bool"});
      records.push_back({"bench_update", "cell_" + name + "_invariant_ok",
                         report.invariant_ok ? 1.0 : 0.0, "bool"});
      records.push_back({"bench_update",
                         "cell_" + name + "_old_image_attested",
                         report.old_image_attested ? 1.0 : 0.0, "bool"});
    }
  }
  records.push_back({"bench_update", "commits_without_two_attestations",
                     static_cast<double>(phantom_commits), "updates"});
  if (phantom_commits > 0) {
    std::printf("GATE FAILED: %zu commit(s) without both attestations\n",
                phantom_commits);
  }
  if (!all_ok) std::printf("GATE FAILED: fault-matrix cell off contract\n");
  return all_ok && phantom_commits == 0;
}

constexpr std::size_t kWaveFleet = 256;
constexpr std::uint32_t kWave = 32;
constexpr int kTickDeadline = 12;  // 256 / 32 = 8 waves + slack

bool rolling_wave(std::vector<benchutil::BenchRecord>& records) {
  benchutil::print_title("Rolling update wave: 256 members, wave of 32");
  std::deque<attacks::AttackEnv> envs;
  std::deque<core::SachaVerifier> verifiers;
  std::deque<core::SachaProver> provers;
  std::vector<update::EpochMember> members;
  for (std::size_t i = 0; i < kWaveFleet; ++i) {
    envs.push_back(attacks::AttackEnv::small(7000 + i));
    verifiers.push_back(envs.back().make_verifier());
    provers.push_back(envs.back().make_prover());
  }
  for (std::size_t i = 0; i < kWaveFleet; ++i) {
    // Members enter the scheduler provisioned: one full attestation.
    if (!core::run_attestation(verifiers[i], provers[i]).verdict.ok()) {
      std::abort();
    }
    members.push_back(update::EpochMember{"node-" + std::to_string(i),
                                          &verifiers[i], &provers[i], {}});
  }

  update::EpochOptions options;
  options.update_wave = kWave;
  options.freshness_window = 8;
  options.probe_coverage = 0.10;
  options.full_budget_fraction = 0.10;
  update::EpochScheduler scheduler(members, options);

  crypto::HashSigner signer(314, 3);
  auto signed_manifest =
      update::sign_manifest(make_manifest(envs[0], {"app-v2", 2}, 2), signer);
  if (!signed_manifest.ok()) std::abort();
  if (!scheduler.stage_update(signed_manifest.value(), signer.root()).ok()) {
    std::abort();
  }

  const auto wall_start = std::chrono::steady_clock::now();
  int ticks = 0;
  while (!scheduler.update_complete() && ticks < kTickDeadline) {
    scheduler.tick();
    ++ticks;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::size_t committed = 0, quarantined = 0, phantom = 0;
  for (const update::EpochMemberState& m : scheduler.members()) {
    if (m.update_committed) ++committed;
    if (m.health == update::Freshness::kQuarantined) ++quarantined;
  }
  bool invariants = true;
  for (const update::UpdateReport& report : scheduler.update_reports()) {
    invariants = invariants && report.invariant_ok;
    if (report.committed() &&
        !(report.pre_attested && report.post_attested)) {
      ++phantom;
    }
  }
  const bool converged = scheduler.update_complete();
  std::printf(
      "%zu members: committed %zu, quarantined %zu, %d ticks, %.2f s wall "
      "(%.1f updates/s)\n",
      kWaveFleet, committed, quarantined, ticks, wall_s,
      wall_s > 0 ? static_cast<double>(committed) / wall_s : 0.0);
  records.push_back({"bench_update", "wave_members",
                     static_cast<double>(kWaveFleet), "devices"});
  records.push_back({"bench_update", "wave_committed",
                     static_cast<double>(committed), "devices"});
  records.push_back({"bench_update", "wave_quarantined",
                     static_cast<double>(quarantined), "devices"});
  records.push_back(
      {"bench_update", "wave_ticks", static_cast<double>(ticks), "epochs"});
  records.push_back({"bench_update", "wave_wall", wall_s, "s"});
  records.push_back({"bench_update", "wave_phantom_commits",
                     static_cast<double>(phantom), "updates"});

  const bool ok = converged && committed == kWaveFleet && quarantined == 0 &&
                  invariants && phantom == 0;
  if (!ok) std::printf("GATE FAILED: rolling wave off contract\n");
  return ok;
}

constexpr double kProbeCoverage = 0.02;
constexpr double kProbeCostBound = 0.05;  // probe <= 5% of a full session

bool probe_cost(std::vector<benchutil::BenchRecord>& records) {
  benchutil::print_title(
      "Probe economics: refresh-only 2% probe vs full session (XC6VLX240T)");
  attacks::AttackEnv env = attacks::AttackEnv::virtex6(11);
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();
  const auto full = core::run_attestation(verifier, prover,
                                          env.session_options);
  if (!full.verdict.ok()) std::abort();

  verifier.set_refresh_only(true);
  verifier.set_probe_coverage(kProbeCoverage);
  const auto probe = core::run_attestation(verifier, prover,
                                           env.session_options);
  verifier.set_refresh_only(false);
  verifier.set_probe_coverage(1.0);
  const double ratio =
      static_cast<double>(probe.theoretical_time) /
      static_cast<double>(full.theoretical_time);
  const bool ok = probe.verdict.ok() && ratio <= kProbeCostBound;
  std::printf(
      "full %.3f s, probe %.4f s (%.1f%% coverage) -> ratio %.4f "
      "(bound %.2f) %s\n",
      sim::to_seconds(full.theoretical_time),
      sim::to_seconds(probe.theoretical_time), kProbeCoverage * 100.0, ratio,
      kProbeCostBound, ok ? "ok" : "FAILED");
  records.push_back(
      {"bench_update", "full_session_s", sim::to_seconds(full.theoretical_time),
       "s", true});
  records.push_back({"bench_update", "probe_session_s",
                     sim::to_seconds(probe.theoretical_time), "s", true});
  records.push_back({"bench_update", "probe_cost_ratio", ratio, "ratio", true});
  records.push_back({"bench_update", "probe_cost_bound", kProbeCostBound,
                     "ratio"});
  if (!ok) std::printf("GATE FAILED: probe cost above bound\n");
  return ok;
}

bool gates_and_emit() {
  std::vector<benchutil::BenchRecord> records;
  const bool matrix_ok = fault_matrix(records);
  const bool wave_ok = rolling_wave(records);
  const bool probe_ok = probe_cost(records);
  records.push_back(
      {"bench_update", "gate_fault_matrix", matrix_ok ? 1.0 : 0.0, "bool"});
  records.push_back(
      {"bench_update", "gate_rolling_wave", wave_ok ? 1.0 : 0.0, "bool"});
  records.push_back(
      {"bench_update", "gate_probe_cost", probe_ok ? 1.0 : 0.0, "bool"});
  benchutil::write_bench_json("BENCH_update.json", records);
  return matrix_ok && wave_ok && probe_ok;
}

void BM_UpdatePipelineHappyPath(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_cell({"none", "none", false, true, "none", "no-phase"}, 0xbead)
            .committed());
  }
}
BENCHMARK(BM_UpdatePipelineHappyPath)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool gates_ok = gates_and_emit();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return gates_ok ? 0 : 1;
}
