// Verifier-side fast path: the streaming masked compare + MAC, and the
// shared-GoldenModel fleet memory model.
//
// This bench isolates the verifier's own work: a full Virtex-6 readback
// transcript (28,488 frames ≈ 9.2 MB) is captured once from an honest
// prover, then replayed into a fresh verifier. Headline numbers land in
// BENCH_verifier.json: masked-compare+MAC verify throughput, and the
// fleet-sweep golden-model sharing ratio (one model per device type, not
// per member).
#include <benchmark/benchmark.h>

#include <chrono>
#include <deque>

#include "bench_util.hpp"
#include "bitstream/golden_model.hpp"
#include "core/swarm.hpp"

using namespace sacha;

namespace {

/// One honest protocol transcript: every command's response, captured by
/// driving the prover directly (no channel), with the prover half's
/// config→readback boundary rule (the register churn) applied.
struct Transcript {
  std::vector<std::optional<core::Response>> responses;
  std::size_t readback_bytes = 0;
};

Transcript capture_transcript(const attacks::AttackEnv& env) {
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  const core::SessionOptions& options = env.session_options;
  core::ProverSession prover_half(prover, nullptr, options.seed,
                                  options.register_flip_probability);
  verifier.begin();

  Transcript t;
  const std::size_t n = verifier.command_count();
  t.responses.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const core::Command command = verifier.command(i);
    prover_half.note_command(command.type);
    t.responses[i] = prover.handle(command).response;
    if (t.responses[i].has_value() &&
        t.responses[i]->type == core::ResponseType::kFrameData) {
      t.readback_bytes += t.responses[i]->frame_words.size() * 4;
    }
  }
  return t;
}

struct ReplayResult {
  double absorb_seconds = 0;    // begin + on_response for every command
  double verdict_seconds = 0;   // finish()
  double evidence_seconds = 0;  // expected_mac() — H_Vrf for the signed report
  bool attested = false;
  double total() const {
    return absorb_seconds + verdict_seconds + evidence_seconds;
  }
};

/// Replays the transcript into a fresh verifier `reps` times and keeps the
/// best run of each phase: pure verifier-side work (absorb + MAC + masked
/// compare + verdict + signed-report evidence), no prover, no channel.
/// Response payloads are cloned *outside* the timed region — the wire
/// already delivered them once. The evidence phase is expected_mac():
/// run_signed_attestation calls it after finish() to obtain H_Vrf for the
/// signed report.
ReplayResult replay(const attacks::AttackEnv& env, const Transcript& t,
                    int reps) {
  ReplayResult result;
  result.absorb_seconds = result.verdict_seconds = result.evidence_seconds =
      1e100;
  for (int rep = 0; rep < reps; ++rep) {
    core::SachaVerifier verifier = env.make_verifier();
    std::vector<std::optional<core::Response>> batch = t.responses;
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    verifier.begin();  // same seed ⇒ same nonce and schedule as the capture
    for (std::size_t i = 0; i < batch.size(); ++i) {
      (void)verifier.on_response(i, std::move(batch[i]));
    }
    const auto t1 = clock::now();
    const auto verdict = verifier.finish();
    const auto t2 = clock::now();
    const auto h_vrf = verifier.expected_mac();
    const auto t3 = clock::now();
    result.absorb_seconds = std::min(
        result.absorb_seconds, std::chrono::duration<double>(t1 - t0).count());
    result.verdict_seconds = std::min(
        result.verdict_seconds, std::chrono::duration<double>(t2 - t1).count());
    result.evidence_seconds = std::min(
        result.evidence_seconds,
        std::chrono::duration<double>(t3 - t2).count());
    result.attested = verdict.ok() && h_vrf.has_value();
  }
  return result;
}

std::vector<benchutil::BenchRecord> g_records;

void virtex6_replay_headline() {
  benchutil::print_title(
      "Verifier fast path: streaming verify (XC6VLX240T, 28,488 frames)");
  const attacks::AttackEnv env = attacks::AttackEnv::virtex6(2026);
  const Transcript t = capture_transcript(env);
  const double mb = static_cast<double>(t.readback_bytes) / (1024.0 * 1024.0);

  const ReplayResult run = replay(env, t, 5);
  const double stream_mbps = mb / run.total();

  std::printf("replayed transcript: %.1f MiB of readback\n", mb);
  std::printf("verifier-side work per attestation (masked compare + MAC + "
              "H_Vrf evidence for the signed report):\n");
  std::printf("%12s %10s %10s %10s %16s %10s\n", "absorb", "verdict",
              "evidence", "total", "throughput", "verdict");
  std::printf("%10.4f s %8.4f s %8.4f s %8.4f s %10.1f MiB/s %10s\n",
              run.absorb_seconds, run.verdict_seconds, run.evidence_seconds,
              run.total(), stream_mbps, run.attested ? "attested" : "FAILED");

  const auto model =
      bitstream::GoldenModel::shared(env.plan, env.static_spec, env.app_spec);
  std::printf("golden model footprint: %.1f MiB (one copy per device type)\n",
              static_cast<double>(model->footprint_bytes()) /
                  (1024.0 * 1024.0));

  g_records.push_back({"bench_verifier", "streaming_verify_throughput",
                       stream_mbps, "MiB/s"});
  g_records.push_back({"bench_verifier", "streaming_verify_seconds",
                       run.total(), "s"});
  g_records.push_back({"bench_verifier", "golden_model_footprint",
                       static_cast<double>(model->footprint_bytes()), "B"});
}

/// Fleet-size sweep: golden-model memory, shared (interned) vs what
/// per-member copies would cost.
void fleet_memory_sweep() {
  benchutil::print_title("Fleet memory: shared golden model");
  std::printf("%8s %10s %18s %20s\n", "devices", "models",
              "shared model mem", "unshared would be");
  for (const std::size_t n : {1u, 4u, 16u, 32u}) {
    std::deque<attacks::AttackEnv> envs;
    std::deque<core::SachaVerifier> verifiers;
    std::deque<core::SachaProver> provers;
    std::vector<core::SwarmMember> members;
    for (std::size_t i = 0; i < n; ++i) {
      envs.push_back(attacks::AttackEnv::small(4200 + i));
      verifiers.push_back(envs.back().make_verifier());
      provers.push_back(envs.back().make_prover());
    }
    for (std::size_t i = 0; i < n; ++i) {
      members.push_back(core::SwarmMember{"node-" + std::to_string(i),
                                          &verifiers[i], &provers[i], {}});
    }
    const core::SwarmReport report = core::attest_swarm(members);
    std::printf("%8zu %10zu %16zu B %18zu B%s\n", n,
                report.distinct_golden_models, report.golden_model_bytes,
                report.unshared_golden_model_bytes,
                report.all_attested() ? "" : "  [FAILURES]");
    if (n == 16) {
      g_records.push_back({"bench_verifier", "fleet16_distinct_models",
                           static_cast<double>(report.distinct_golden_models),
                           "models"});
      g_records.push_back({"bench_verifier", "fleet16_shared_model_bytes",
                           static_cast<double>(report.golden_model_bytes),
                           "B"});
      g_records.push_back({"bench_verifier", "fleet16_unshared_model_bytes",
                           static_cast<double>(
                               report.unshared_golden_model_bytes),
                           "B"});
    }
  }
  std::printf("=> golden-model memory is per device type, not per member.\n");
}

/// Heterogeneous fleet: two device types (distinct application designs) in
/// one multiplexed sweep. Members of a type intern one golden model, so
/// model memory scales with the number of types, not the fleet size.
void hetero_fleet_sweep() {
  benchutil::print_title(
      "Heterogeneous fleet: mixed device types under the multiplexed engine");
  const bitstream::DesignSpec apps[2] = {
      bitstream::DesignSpec{"intended-app-v1", 1},
      bitstream::DesignSpec{"sensor-app-v2", 7}};
  std::printf("%8s %8s %10s %18s %20s %10s\n", "devices", "types", "models",
              "shared model mem", "unshared would be", "attested");
  for (const std::size_t n : {2u, 8u, 16u, 32u}) {
    std::deque<attacks::AttackEnv> envs;
    std::deque<core::SachaVerifier> verifiers;
    std::deque<core::SachaProver> provers;
    std::vector<core::SwarmMember> members;
    for (std::size_t i = 0; i < n; ++i) {
      envs.push_back(attacks::AttackEnv::small(5200 + i));
      envs.back().app_spec = apps[i % 2];
      verifiers.push_back(envs.back().make_verifier());
      provers.push_back(envs.back().make_prover());
    }
    for (std::size_t i = 0; i < n; ++i) {
      members.push_back(core::SwarmMember{"node-" + std::to_string(i),
                                          &verifiers[i], &provers[i], {}});
    }
    core::SwarmOptions options;
    options.schedule = core::SwarmSchedule::kMultiplexed;
    options.engine.pool_size = 4;
    const core::SwarmReport report = core::attest_swarm(members, options);
    std::printf("%8zu %8zu %10zu %16zu B %18zu B %7zu/%zu%s\n", n,
                std::min<std::size_t>(n, 2), report.distinct_golden_models,
                report.golden_model_bytes, report.unshared_golden_model_bytes,
                report.attested, n,
                report.all_attested() ? "" : "  [FAILURES]");
    if (n == 16) {
      g_records.push_back({"bench_verifier", "hetero16_distinct_models",
                           static_cast<double>(report.distinct_golden_models),
                           "models"});
      g_records.push_back({"bench_verifier", "hetero16_shared_model_bytes",
                           static_cast<double>(report.golden_model_bytes),
                           "B"});
      g_records.push_back({"bench_verifier", "hetero16_unshared_model_bytes",
                           static_cast<double>(
                               report.unshared_golden_model_bytes),
                           "B"});
      g_records.push_back({"bench_verifier", "hetero16_attested",
                           static_cast<double>(report.attested), "sessions"});
    }
  }
  std::printf("=> model memory scales with device types (2 here), not fleet "
              "size, and the engine multiplexes both types in one pool.\n");
}

/// google-benchmark micro: verifier-side replay at test-device scale (16
/// frames), for the perf trajectory.
void BM_VerifierReplay(benchmark::State& state) {
  const attacks::AttackEnv env = attacks::AttackEnv::small(11);
  const Transcript t = capture_transcript(env);
  std::size_t bytes = 0;
  for (auto _ : state) {
    core::SachaVerifier verifier = env.make_verifier();
    verifier.begin();
    for (std::size_t i = 0; i < t.responses.size(); ++i) {
      std::optional<core::Response> response = t.responses[i];
      (void)verifier.on_response(i, std::move(response));
    }
    benchmark::DoNotOptimize(verifier.finish().ok());
    bytes += t.readback_bytes;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_VerifierReplay)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // The CI telemetry gate runs this bench twice — SACHA_OBS unset and
  // SACHA_OBS=1 — and compares streaming_verify_throughput between the two
  // BENCH_verifier.json files; record which mode produced this one.
  std::printf("telemetry: %s\n", obs::enabled() ? "enabled" : "disabled");
  g_records.push_back({"bench_verifier", "telemetry_enabled",
                       obs::enabled() ? 1.0 : 0.0, "bool"});
  virtex6_replay_headline();
  fleet_memory_sweep();
  hetero_fleet_sweep();
  benchutil::write_bench_json("BENCH_verifier.json", g_records);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
