// E2 — Table 3: timing of the low-level protocol actions A1-A10.
//
// Runs one full attestation at proof-of-concept scale over the ideal
// channel and reports the per-action average durations from the session
// ledger, next to the paper's measured values. A2/A4-A7 are derived from
// the ICAP and MAC cycle models; A1/A3/A8 from the wire model with the
// PoC's packet sizes; A9/A10 are min-size Ethernet frames in our model
// (the paper's sub-minimum values were measured at a different layer —
// both actions run once per session, so Table 4 is unaffected).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "bitstream/bitgen.hpp"
#include "config/icap.hpp"

using namespace sacha;

namespace {

struct PaperRow {
  const char* key;
  double paper_ns;
};

const PaperRow kPaper[] = {
    {core::actions::kA1, 8'856},  {core::actions::kA2, 1'834},
    {core::actions::kA3, 13'616}, {core::actions::kA4, 24'044},
    {core::actions::kA5, 120},    {core::actions::kA6, 128},
    {core::actions::kA7, 136},    {core::actions::kA8, 2'928},
    {core::actions::kA9, 344},    {core::actions::kA10, 472},
};

void print_table3() {
  const core::AttestationReport report = benchutil::run_virtex6_session();
  benchutil::print_title(
      "Table 3: timing of the low-level steps in the SACHa protocol");
  std::printf("(one full XC6VLX240T session, ideal channel; verdict: %s)\n\n",
              report.verdict.ok() ? "attested" : report.verdict.detail.c_str());
  std::printf("%-36s %12s %12s %9s\n", "Action", "model (ns)", "paper (ns)",
              "dev (%)");
  for (const PaperRow& row : kPaper) {
    const double modeled = static_cast<double>(report.ledger.average(row.key));
    std::printf("%-36s %12s %12s %+8.2f\n", row.key,
                benchutil::group_digits(static_cast<std::uint64_t>(modeled)).c_str(),
                benchutil::group_digits(static_cast<std::uint64_t>(row.paper_ns)).c_str(),
                benchutil::deviation_pct(modeled, row.paper_ns));
  }
  std::printf("\nA9/A10 deviate because our wire model enforces the Ethernet\n"
              "minimum frame (84 B => 672 ns); both run once per session.\n");
}

// Micro-benchmarks of the device-side actions the table models.

void BM_IcapConfigOneFrame(benchmark::State& state) {
  const auto device = fabric::DeviceModel::xc6vlx240t();
  const bitstream::BitGen gen(device);
  config::ConfigMemory memory(device);
  config::Icap icap(memory, config::device_idcode(device));
  const bitstream::Frame frame(device.geometry().words_per_frame(), 0x5a5a5a5a);
  const auto stream =
      gen.assemble_single_frame(frame.words(), 100,
                                config::device_idcode(device));
  for (auto _ : state) {
    benchmark::DoNotOptimize(icap.execute(stream).ok());
  }
}
BENCHMARK(BM_IcapConfigOneFrame);

void BM_IcapReadbackOneFrame(benchmark::State& state) {
  const auto device = fabric::DeviceModel::xc6vlx240t();
  config::ConfigMemory memory(device);
  config::Icap icap(memory, config::device_idcode(device));
  bitstream::PacketWriter w;
  w.sync();
  w.cmd(bitstream::CmdOp::kRcfg);
  w.write_far(device.geometry().address_of(100));
  w.read_request(device.geometry().words_per_frame());
  w.cmd(bitstream::CmdOp::kDesync);
  for (auto _ : state) {
    // Reset FAR each round by re-running the same stream (FAR write included).
    benchmark::DoNotOptimize(icap.execute(w.words()).ok());
  }
}
BENCHMARK(BM_IcapReadbackOneFrame);

void BM_ProverHandleConfigCommand(benchmark::State& state) {
  attacks::AttackEnv env = attacks::AttackEnv::virtex6();
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  verifier.begin();
  const Bytes packet = verifier.command(0).encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(prover.handle_packet(packet).icap_time);
  }
}
BENCHMARK(BM_ProverHandleConfigCommand);

}  // namespace

int main(int argc, char** argv) {
  print_table3();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
