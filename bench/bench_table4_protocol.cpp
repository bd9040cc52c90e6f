// E3 — Table 4: total timing of the SACHa protocol.
//
// Runs the full-scale protocol twice: over the ideal channel (reproducing
// the paper's *theoretical* 1.443 s) and over the calibrated lab channel
// (reproducing the *measured* 28.5 s, which the paper attributes to
// per-command network latency). Prints the counts-times-durations rows of
// Table 4 and the two headline totals. Then times one session's register
// churn, the serial loop against the path sessions take (eight AVX2 lanes
// where the CPU has them), and exits 1 unless both flip the same bits and
// leave the Rng in the same state.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.hpp"
#include "common/bernoulli_bits.hpp"

using namespace sacha;

namespace {

struct PaperRow {
  const char* key;
  std::uint64_t paper_count;
  const char* paper_total;  // as printed in the paper
};

const PaperRow kPaper[] = {
    {core::actions::kA1, 26'400, "0.234 s"},
    {core::actions::kA2, 26'400, "0.050 s"},
    {core::actions::kA3, 28'488, "0.388 s"},
    {core::actions::kA4, 28'488, "0.685 s"},
    {core::actions::kA5, 1, "0.120 us"},
    {core::actions::kA6, 28'488, "3.646 ms"},
    {core::actions::kA7, 1, "0.136 us"},
    {core::actions::kA8, 28'488, "0.083 s"},
    {core::actions::kA9, 1, "0.344 us"},
    {core::actions::kA10, 1, "0.464 us"},
};

/// Register churn over the XC6VLX240T's register positions at p = 0.25:
/// medians of 20 passes through the serial loop and through the sessions'
/// path. Returns whether both left the same words and the same Rng.
bool churn_row(std::vector<benchutil::BenchRecord>& records) {
  using clock = std::chrono::steady_clock;
  const std::uint32_t n = bitstream::RegisterPositions::shared(
                              fabric::DeviceModel::xc6vlx240t())
                              ->total();
  const BernoulliBits draws(n);
  std::vector<std::uint64_t> serial((n + 63) / 64, 0);
  std::vector<std::uint64_t> session = serial;
  Rng serial_rng(2019);
  Rng session_rng(2019);
  std::vector<double> serial_ms;
  std::vector<double> session_ms;
  for (int pass = 0; pass < 20; ++pass) {
    auto t0 = clock::now();
    draws.xor_serial(serial_rng, 0.25, serial);
    serial_ms.push_back(
        std::chrono::duration<double, std::milli>(clock::now() - t0).count());
    t0 = clock::now();
    draws.xor_into(session_rng, 0.25, session);
    session_ms.push_back(
        std::chrono::duration<double, std::milli>(clock::now() - t0).count());
  }
  const bool identical = serial == session && serial_rng == session_rng;
  const double serial_median = benchutil::nearest_rank_median(serial_ms);
  const double session_median = benchutil::nearest_rank_median(session_ms);
  std::printf("\nRegister churn, %u XC6VLX240T positions at p = 0.25 "
              "(median of 20 passes):\n  serial %.2f ms, %s %.2f ms; %s\n",
              n, serial_median,
              BernoulliBits::lanes_supported() ? "AVX2 lanes" : "serial (no AVX2)",
              session_median,
              identical ? "bit-identical" : "MISMATCH — lanes broken");
  records.push_back({"bench_table4_protocol", "register_churn_serial_ms",
                     serial_median, "ms"});
  records.push_back(
      {"bench_table4_protocol", "register_churn_ms", session_median, "ms"});
  records.push_back({"bench_table4_protocol", "register_churn_bit_identical",
                     identical ? 1.0 : 0.0, "bool"});
  return identical;
}

/// Returns whether the register churn gate held.
bool print_table4() {
  const auto wall0 = std::chrono::steady_clock::now();
  const auto ideal = benchutil::run_virtex6_session(net::ChannelParams::ideal());
  const double ideal_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  const auto lab = benchutil::run_virtex6_session(net::ChannelParams::lab());

  benchutil::print_title("Table 4: total timing of the SACHa protocol");
  std::printf("(full XC6VLX240T sessions; ideal verdict: %s, lab verdict: %s)\n\n",
              ideal.verdict.ok() ? "attested" : "FAILED",
              lab.verdict.ok() ? "attested" : "FAILED");
  std::printf("%-36s %9s %9s %14s %12s\n", "Action", "count", "paper",
              "model total", "paper total");
  for (const PaperRow& row : kPaper) {
    const double total_s = sim::to_seconds(ideal.ledger.total(row.key));
    std::printf("%-36s %9llu %9llu %13.6fs %12s\n", row.key,
                static_cast<unsigned long long>(ideal.ledger.count(row.key)),
                static_cast<unsigned long long>(row.paper_count),
                total_s, row.paper_total);
  }
  std::printf("\n%-44s %10.3f s   (paper: 1.443 s)\n",
              "Theoretical duration (sum of A1-A10):",
              sim::to_seconds(ideal.theoretical_time));
  std::printf("%-44s %10.3f s   (paper: 28.5 s)\n",
              "Measured duration (lab channel):",
              sim::to_seconds(lab.total_time));
  std::printf("%-44s %10.3f s\n",
              "  of which per-command network latency:",
              sim::to_seconds(lab.ledger.total(core::actions::kNetLatency)));
  std::printf("\nJTAG reference from the paper: a direct full configuration\n"
              "takes ~28 s, i.e. the attested remote update costs about the\n"
              "same as a bench cable in the authors' lab.\n");

  // §5.2.2 refresh sessions: nonce-only reconfiguration, full readback.
  attacks::AttackEnv env = attacks::AttackEnv::virtex6(2019);
  auto verifier = env.make_verifier();
  auto prover = env.make_prover();
  env.session_options.channel = net::ChannelParams::lab();
  const auto full = core::run_attestation(verifier, prover, env.session_options);
  verifier.set_refresh_only(true);
  const auto refresh = core::run_attestation(verifier, prover, env.session_options);
  std::printf("\nNonce-refresh session (Section 5.2.2): %s\n",
              refresh.verdict.ok() ? "attested" : "FAILED");
  std::printf("  full session    : %8.3f s lab, %6.1f MB shipped\n",
              sim::to_seconds(full.total_time),
              static_cast<double>(full.bytes_to_prover) / 1e6);
  std::printf("  refresh session : %8.3f s lab, %6.1f MB shipped  (%.1fx faster)\n",
              sim::to_seconds(refresh.total_time),
              static_cast<double>(refresh.bytes_to_prover) / 1e6,
              static_cast<double>(full.total_time) /
                  static_cast<double>(refresh.total_time));

  // Perf-trajectory record: simulated reproduction numbers plus the host
  // wall-clock of a full-scale session (the number the crypto fast path and
  // the ICAP readback-reserve fix move).
  std::vector<benchutil::BenchRecord> records = {
      {"bench_table4_protocol", "theoretical_duration",
       sim::to_seconds(ideal.theoretical_time), "s", true},
      {"bench_table4_protocol", "lab_duration", sim::to_seconds(lab.total_time),
       "s", true},
      {"bench_table4_protocol", "full_session_host_wallclock", ideal_wall_s,
       "s"},
      {"bench_table4_protocol", "full_session_mac_bytes",
       static_cast<double>(fabric::kVirtex6TotalFrames) * 324, "bytes"},
  };
  const bool churn_identical = churn_row(records);
  benchutil::write_bench_json("BENCH_protocol.json", records);
  return churn_identical;
}

void BM_FullSessionSmallDevice(benchmark::State& state) {
  for (auto _ : state) {
    attacks::AttackEnv env = attacks::AttackEnv::small();
    core::SachaVerifier verifier = env.make_verifier();
    core::SachaProver prover = env.make_prover();
    const auto report = core::run_attestation(verifier, prover);
    benchmark::DoNotOptimize(report.verdict.ok());
  }
}
BENCHMARK(BM_FullSessionSmallDevice)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool churn_identical = print_table4();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!churn_identical) {
    std::fprintf(stderr, "bench_table4_protocol: register churn gate failed\n");
    return 1;
  }
  return 0;
}
