// E13 (extension) — swarm attestation scaling.
//
// Fleet-size sweep under the three schedules' makespan models at
// lab-network latency, plus isolation of a compromised minority. Shows the
// §4.2 motivation quantitatively: per-device SACHa composes linearly in
// total work, and parallel scheduling keeps the makespan flat.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <deque>
#include <thread>

#include "../tests/swarm_oracle.hpp"
#include "bench_util.hpp"
#include "core/swarm.hpp"

using namespace sacha;

namespace {

struct Fleet {
  explicit Fleet(std::size_t n, std::uint64_t base_seed = 900) {
    for (std::size_t i = 0; i < n; ++i) {
      envs.push_back(attacks::AttackEnv::small(base_seed + i));
      verifiers.push_back(envs.back().make_verifier());
      provers.push_back(envs.back().make_prover());
    }
    for (std::size_t i = 0; i < n; ++i) {
      members.push_back(core::SwarmMember{"node-" + std::to_string(i),
                                          &verifiers[i], &provers[i], {}});
    }
  }
  std::deque<attacks::AttackEnv> envs;
  std::deque<core::SachaVerifier> verifiers;
  std::deque<core::SachaProver> provers;
  std::vector<core::SwarmMember> members;
};

void print_sweep() {
  benchutil::print_title("Swarm attestation: fleet-size sweep (lab channel)");
  core::SessionOptions options;
  options.channel = net::ChannelParams::lab();
  core::SwarmOptions mux_options;
  mux_options.session = options;
  mux_options.schedule = core::SwarmSchedule::kMultiplexed;
  mux_options.engine.pool_size = 4;
  mux_options.retry_budget = 0;
  std::printf("%8s %16s %16s %15s %10s %14s %8s\n", "devices",
              "serial makespan", "parallel makespan", "mux makespan (4)",
              "overlap", "total work", "models");
  for (std::size_t n : {1u, 2u, 4u, 8u, 16u, 32u}) {
    Fleet serial_fleet(n);
    const auto serial =
        core::attest_swarm(serial_fleet.members, core::SwarmSchedule::kSerial,
                           options);
    Fleet parallel_fleet(n);
    const auto parallel = core::attest_swarm(
        parallel_fleet.members, core::SwarmSchedule::kParallel, options);
    Fleet mux_fleet(n);
    const auto mux = core::attest_swarm(mux_fleet.members, mux_options);
    std::printf("%8zu %14.3f s %14.3f s %13.3f s %9.2fx %12.3f s %8zu%s\n", n,
                sim::to_seconds(serial.makespan),
                sim::to_seconds(parallel.makespan),
                sim::to_seconds(mux.engine.makespan),
                mux.engine.overlap_efficiency,
                sim::to_seconds(serial.total_work),
                serial.distinct_golden_models,
                serial.all_attested() && parallel.all_attested() &&
                        mux.all_attested()
                    ? ""
                    : "  [FAILURES]");
  }
  std::printf("=> one golden model regardless of fleet size; the multiplexed "
              "engine packs N sessions\n   onto 4 verify lanes and overlaps "
              "channel latency with verify compute.\n");

  // Compromised-minority isolation.
  Fleet fleet(8);
  for (std::size_t i : {2u, 5u}) {
    fleet.members[i].hooks.after_config = [](core::SachaProver& p) {
      bitstream::Frame f = p.memory().config_frame(7);
      f.flip_bit(3);
      p.memory().write_frame(7, f);
    };
  }
  const auto report = core::attest_swarm(fleet.members);
  std::printf("\ncompromised-minority run (8 devices, 2 tampered): "
              "%zu attested, failed:",
              report.attested);
  for (const auto& id : report.failed_ids()) std::printf(" %s", id.c_str());
  std::printf("\n=> compromise is isolated per device; the aggregate never "
              "masks it.\n");
}

/// CI gate: at N=64 / pool=4 under lab latency every schedule must
/// (a) produce member reports bit-identical to a plain run_attestation
/// loop (tests/swarm_oracle.hpp), and the multiplexed engine must (b) model
/// a makespan at least 2x shorter than the thread-per-member baseline
/// packed onto the same 4 lanes. A breach fails the bench binary (non-zero
/// exit), which fails CI.
bool multiplexed_gate(std::vector<benchutil::BenchRecord>& records) {
  constexpr std::size_t kFleet = 64;
  constexpr std::size_t kPool = 4;
  core::SwarmOptions options;
  options.session.channel = net::ChannelParams::lab();
  options.engine.pool_size = kPool;
  options.retry_budget = 0;

  Fleet oracle_fleet(kFleet);
  const auto expected =
      oracle::run_attestation_loop(oracle_fleet.members, options);
  bool identical = true;
  core::SwarmReport mux;
  for (const auto schedule :
       {core::SwarmSchedule::kSerial, core::SwarmSchedule::kParallel,
        core::SwarmSchedule::kMultiplexed}) {
    options.schedule = schedule;
    Fleet fleet(kFleet);
    const auto report = core::attest_swarm(fleet.members, options);
    for (const std::string& diff :
         oracle::report_differences(report, expected)) {
      std::printf("[gate] schedule %d diverges from the run_attestation "
                  "loop: %s\n", static_cast<int>(schedule), diff.c_str());
      identical = false;
    }
    if (schedule == core::SwarmSchedule::kMultiplexed) mux = report;
  }
  const double speedup =
      mux.engine.makespan > 0
          ? static_cast<double>(mux.engine.thread_per_member_makespan) /
                static_cast<double>(mux.engine.makespan)
          : 0.0;
  const bool fast_enough = speedup >= 2.0;
  std::printf("\n[gate] 64-member multiplexed fleet on %zu verify lanes: "
              "makespan %.3f s vs thread-per-member %.3f s (%.2fx), "
              "overlap %.2fx, reports %s\n",
              kPool, sim::to_seconds(mux.engine.makespan),
              sim::to_seconds(mux.engine.thread_per_member_makespan), speedup,
              mux.engine.overlap_efficiency,
              identical ? "bit-identical" : "DIVERGED");
  if (!fast_enough) {
    std::printf("[gate] FAIL: expected >= 2x makespan reduction\n");
  }
  records.push_back({"bench_swarm", "mux_makespan_64",
                     sim::to_seconds(mux.engine.makespan), "s", true});
  records.push_back({"bench_swarm", "mux_thread_per_member_makespan_64",
                     sim::to_seconds(mux.engine.thread_per_member_makespan),
                     "s", true});
  records.push_back({"bench_swarm", "mux_speedup_64", speedup, "x", true});
  records.push_back({"bench_swarm", "mux_overlap_efficiency_64",
                     mux.engine.overlap_efficiency, "x", true});
  records.push_back({"bench_swarm", "mux_pool_size",
                     static_cast<double>(mux.engine.pool_size), "threads"});
  records.push_back({"bench_swarm", "mux_bit_identical_64",
                     identical ? 1.0 : 0.0, "bool"});
  return identical && fast_enough;
}

/// Host wall-clock of a 16-member fleet inline (kSerial) and on the
/// engine's worker pool (kParallel). Emits BENCH_swarm.json, with the
/// gate's records appended.
void wallclock_sweep_and_emit(std::vector<benchutil::BenchRecord> records) {
  using clock = std::chrono::steady_clock;
  constexpr std::size_t kFleetSize = 16;

  Fleet serial_fleet(kFleetSize);
  const auto t0 = clock::now();
  const auto serial = core::attest_swarm(serial_fleet.members,
                                         core::SwarmSchedule::kSerial);
  const double serial_s = std::chrono::duration<double>(clock::now() - t0).count();

  Fleet parallel_fleet(kFleetSize);
  const auto t1 = clock::now();
  const auto parallel = core::attest_swarm(parallel_fleet.members,
                                           core::SwarmSchedule::kParallel);
  const double parallel_s =
      std::chrono::duration<double>(clock::now() - t1).count();

  const double speedup = parallel_s > 0 ? serial_s / parallel_s : 0.0;
  std::printf("\n16-member fleet host wall-clock: serial %.3f s, parallel "
              "%.3f s (%.2fx, %u hardware threads)\n",
              serial_s, parallel_s, speedup,
              std::thread::hardware_concurrency());

  // Transport health under loss: an 8-member fleet on a 10%-loss reliable
  // channel, supervised. The report's loss/retransmission/backoff totals
  // land in the JSON so the lossy trajectory is diffable across PRs.
  Fleet lossy_fleet(8);
  core::SwarmOptions lossy;
  lossy.session.channel = net::ChannelParams::lab();
  lossy.session.channel.loss_probability = 0.10;
  lossy.session.reliable = true;
  const auto lossy_report = core::attest_swarm(lossy_fleet.members, lossy);
  std::printf("lossy fleet (8 @ 10%% loss, reliable): %zu attested, %zu "
              "healed, %llu lost, %llu retransmitted, %.3f s backoff\n",
              lossy_report.attested, lossy_report.healed,
              static_cast<unsigned long long>(lossy_report.messages_lost),
              static_cast<unsigned long long>(lossy_report.retransmissions),
              sim::to_seconds(lossy_report.backoff_wait));

  const std::vector<benchutil::BenchRecord> wallclock_records = {
          {"bench_swarm", "serial_wallclock_16", serial_s, "s"},
          {"bench_swarm", "parallel_wallclock_16", parallel_s, "s"},
          {"bench_swarm", "parallel_speedup_16", speedup, "x"},
          {"bench_swarm", "hardware_threads",
           static_cast<double>(std::thread::hardware_concurrency()), "threads"},
          {"bench_swarm", "attested_16",
           static_cast<double>(serial.attested + parallel.attested), "sessions"},
          {"bench_swarm", "distinct_golden_models_16",
           static_cast<double>(serial.distinct_golden_models), "models"},
          {"bench_swarm", "golden_model_bytes_16",
           static_cast<double>(serial.golden_model_bytes), "B"},
          {"bench_swarm", "unshared_golden_model_bytes_16",
           static_cast<double>(serial.unshared_golden_model_bytes), "B"},
          {"bench_swarm", "lossy_attested_8",
           static_cast<double>(lossy_report.attested), "sessions"},
          {"bench_swarm", "lossy_healed_8",
           static_cast<double>(lossy_report.healed), "sessions"},
          {"bench_swarm", "lossy_quarantined_8",
           static_cast<double>(lossy_report.quarantined), "sessions"},
          {"bench_swarm", "lossy_messages_lost_8",
           static_cast<double>(lossy_report.messages_lost), "messages"},
          {"bench_swarm", "lossy_retransmissions_8",
           static_cast<double>(lossy_report.retransmissions), "messages"},
          {"bench_swarm", "lossy_backoff_wait_8",
           sim::to_seconds(lossy_report.backoff_wait), "s", true},
      };
  records.insert(records.end(), wallclock_records.begin(),
                 wallclock_records.end());
  benchutil::write_bench_json("BENCH_swarm.json", records);
}

void BM_SwarmParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Fleet fleet(n);
    benchmark::DoNotOptimize(
        core::attest_swarm(fleet.members, core::SwarmSchedule::kParallel)
            .attested);
  }
}
BENCHMARK(BM_SwarmParallel)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_sweep();
  std::vector<benchutil::BenchRecord> records;
  const bool gate_ok = multiplexed_gate(records);
  wallclock_sweep_and_emit(std::move(records));
  // With telemetry on (SACHA_OBS=1), export the merged fleet timeline of
  // everything above — per-member session spans on their worker-thread
  // lanes — as a Chrome trace_event file (chrome://tracing / Perfetto).
  if (obs::enabled()) {
    const char* out = std::getenv("SACHA_TRACE_OUT");
    const std::string path = out != nullptr ? out : "TRACE_swarm.json";
    if (obs::write_chrome_trace(path)) {
      std::printf("[trace] wrote %s\n", path.c_str());
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return gate_ok ? 0 : 1;
}
