// Shared helpers for the experiment benches: a one-call full-scale
// Virtex-6 session runner and small formatting utilities. Every bench
// prints its paper table(s) first (the reproduction artifact) and then
// hands over to google-benchmark for the micro-timings.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "attacks/env.hpp"
#include "core/session.hpp"
#include "crypto/aes.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

// Set per bench target by bench/CMakeLists.txt at configure time.
#ifndef SACHA_BENCH_COMMIT
#define SACHA_BENCH_COMMIT "unknown"
#endif
#ifndef SACHA_BENCH_BUILD_TYPE
#define SACHA_BENCH_BUILD_TYPE "unknown"
#endif

namespace sacha::benchutil {

// ---- Benchmark-regression emission --------------------------------------
//
// Benches append BenchRecords and write them as BENCH_<name>.json next to
// the working directory. The file is one JSON object:
//   {"provenance": {...}, "records": [{bench, metric, value, unit}, ...],
//    "metrics": {...}}
// `provenance` names what produced the numbers, with the fields perfbench
// prints: commit (at configure time), CPU model, resolved AES tier, usable
// cores, build type, telemetry state and trace sampling rate. `records` is
// the schema future PRs diff to track the perf trajectory; a record computed
// by the simulator's timing model rather than measured on the host carries
// "modelled": true. `metrics` embeds the telemetry registry snapshot at
// write time (all zeros when SACHA_OBS is off), so every BENCH_*.json also
// records the counter/histogram trajectory of the run that produced it.

struct BenchRecord {
  std::string bench;
  std::string metric;
  double value = 0.0;
  std::string unit;
  bool modelled = false;  // simulated time (or a ratio of it), not host time
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// CPU brand string from CPUID ("unknown" off x86).
inline std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();
    const auto first = brand.find_first_not_of(' ');
    if (first != std::string::npos) return brand.substr(first);
  }
#endif
  return "unknown";
}

/// Cores this process may run on.
inline long usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// The `provenance` object of a BENCH_*.json.
inline std::string provenance_json() {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"commit\": \"%s\", \"cpu\": \"%s\", \"aes_tier\": \"%s\", "
      "\"nproc\": %ld, \"build_type\": \"%s\", \"telemetry\": %s, "
      "\"trace_sample\": %.6g}",
      json_escape(SACHA_BENCH_COMMIT).c_str(), json_escape(cpu_model()).c_str(),
      crypto::to_string(crypto::Aes128::resolve(crypto::AesImpl::kAuto)),
      usable_cpus(), json_escape(SACHA_BENCH_BUILD_TYPE).c_str(),
      obs::enabled() ? "true" : "false", obs::Sampler::global().rate());
  return buf;
}

/// Writes `records` (plus provenance and the current telemetry snapshot)
/// to `path`; returns false on I/O error.
inline bool write_bench_json(const std::string& path,
                             const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n\"provenance\": %s,\n\"records\": [\n",
               provenance_json().c_str());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "  {\"bench\": \"%s\", \"metric\": \"%s\", \"value\": %.6g, "
                 "\"unit\": \"%s\"%s}%s\n",
                 json_escape(r.bench).c_str(), json_escape(r.metric).c_str(),
                 r.value, json_escape(r.unit).c_str(),
                 r.modelled ? ", \"modelled\": true" : "",
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"metrics\": ");
  const std::string metrics =
      obs::metrics_json(obs::MetricsRegistry::global().snapshot());
  std::fwrite(metrics.data(), 1, metrics.size(), f);
  std::fprintf(f, "}\n");
  const bool ok = std::fclose(f) == 0;
  if (ok) std::printf("\n[bench-json] wrote %s (%zu records)\n", path.c_str(),
                      records.size());
  return ok;
}

// ---- Wall-clock gates ----------------------------------------------------
//
// A throughput gate compares medians, not single windows: each side runs
// kGateTrials trials of at least kMinTrialSeconds of measured load, and
// the gate reads the nearest-rank median of the trials' rates.

inline constexpr int kGateTrials = 5;
inline constexpr double kMinTrialSeconds = 2.0;

/// Median by the nearest-rank definition perfbench's stats use: the
/// ceil(n/2)-th smallest value (0 for an empty set).
inline double nearest_rank_median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t rank = (values.size() + 1) / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

struct Trial {
  double rate = 0.0;  // completed sessions per second of measured load
  bool all_completed = true;
  std::vector<double> latencies_ms;  // every completed session
};

/// Calls `run_once` (returning a net::LoadResult) back to back until the
/// loads' summed wall time reaches `min_seconds`; only run_once is timed.
template <typename RunOnce>
Trial timed_trial(RunOnce run_once, double min_seconds = kMinTrialSeconds) {
  Trial trial;
  std::size_t completed = 0;
  std::uint64_t wall_ns = 0;
  do {
    const auto result = run_once();
    completed += result.completed;
    wall_ns += result.wall_ns;
    trial.all_completed = trial.all_completed && result.all_completed();
    for (const auto& member : result.members) {
      if (member.completed) {
        trial.latencies_ms.push_back(static_cast<double>(member.latency_ns) /
                                     1e6);
      }
    }
  } while (static_cast<double>(wall_ns) < min_seconds * 1e9);
  trial.rate = static_cast<double>(completed) /
               (static_cast<double>(wall_ns) / 1e9);
  return trial;
}

struct V6Run {
  core::AttestationReport report;
  std::size_t commands = 0;
};

/// Runs one full attestation at proof-of-concept scale (XC6VLX240T,
/// 28,488 frames) and returns the report.
inline core::AttestationReport run_virtex6_session(
    const net::ChannelParams& channel = net::ChannelParams::ideal(),
    const core::VerifierOptions& verifier_options = {},
    std::uint64_t seed = 2019,
    const core::ProverOptions& prover_options = {}) {
  attacks::AttackEnv env = attacks::AttackEnv::virtex6(seed);
  env.verifier_options = verifier_options;
  env.session_options.channel = channel;
  env.prover_options = prover_options;
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  return core::run_attestation(verifier, prover, env.session_options);
}

inline void print_title(const char* title) {
  std::printf("\n%s\n", title);
  for (const char* p = title; *p; ++p) std::putchar('=');
  std::printf("\n");
}

/// "1 834 ns"-style thousands separator, matching the paper's tables.
inline std::string group_digits(std::uint64_t v) {
  std::string s = std::to_string(v);
  for (int i = static_cast<int>(s.size()) - 3; i > 0; i -= 3) {
    s.insert(static_cast<std::size_t>(i), " ");
  }
  return s;
}

inline double deviation_pct(double modeled, double paper) {
  if (paper == 0) return 0.0;
  return (modeled - paper) / paper * 100.0;
}

}  // namespace sacha::benchutil
