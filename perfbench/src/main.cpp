// perfbench: one run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s>
//             [--commit <id>] [--spans-out <file>] [--print-digest]
//
// perfbench_traced takes the same arguments. Prints a provenance line, then
// as its last line one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (perfbench) or the per-layer metrics
// (perfbench_traced). Exits 0 only when every correctness gate
// passed; 1 when a gate failed (the JSON says correct=false and stderr
// names the gates); 2 on a usage error, without a result.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include <sched.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "alloc_counter.hpp"
#include "crypto/aes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunResult;

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

/// CPU brand string from CPUID (no file reads).
std::string cpu_model() {
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
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

long online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

void print_provenance(const RunOptions& o, const std::string& commit) {
  using sacha::crypto::Aes128;
  using sacha::crypto::AesImpl;
  std::printf(
      "{\"provenance\": {\"commit\": %s, \"cpu\": %s, \"aes_tier\": %s, "
      "\"nproc\": %ld, \"build_type\": %s, \"telemetry\": %s, "
      "\"trace_sample\": %s, \"alloc_counter\": %s, \"workload\": %s, "
      "\"seed\": %llu, \"seconds\": %s}}\n",
      json_str(commit).c_str(), json_str(cpu_model()).c_str(),
      json_str(sacha::crypto::to_string(Aes128::resolve(AesImpl::kAuto))).c_str(),
      online_cpus(), json_str(PERFBENCH_BUILD_TYPE).c_str(),
      sacha::obs::enabled() ? "true" : "false",
      number(sacha::obs::Sampler::global().rate()).c_str(),
      perfbench::counts_allocations() ? "true" : "false",
      json_str(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      number(o.seconds).c_str());
}

void print_result(RunResult& r) {
  std::string metrics;
  for (const Metric& m : r.metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      r.gates.check(false, m.name + " is not a finite number");
      value = -1.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += json_str(m.name) + ": {\"value\": " + number(value) +
               ", \"unit\": " + json_str(m.unit) + "}";
  }
  for (const std::string& failure : r.gates.failures()) {
    std::fprintf(stderr, "perfbench: gate failed: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.gates.ok() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.attempted - r.as_expected),
              metrics.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> [--commit <id>] "
               "[--spans-out <file>] [--print-digest]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  std::string commit = "unknown";
  bool print_digest = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--print-digest") {
      print_digest = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      o.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--commit") {
      commit = argv[++i];
    } else if (arg == "--spans-out") {
      o.spans_out = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known = known || name == o.workload;
  }
  if (!have_workload || !known) return usage("unknown or missing --workload");
  if (!(o.seconds > 0.0) || o.seconds > 600.0) return usage("--seconds out of range");
  o.trace = perfbench::counts_allocations();

  print_provenance(o, commit);
  std::fflush(stdout);
  RunResult r;
  try {
    r = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  if (print_digest) std::printf("digest %s %s\n", o.workload.c_str(), r.digest.c_str());
  print_result(r);
  return r.gates.ok() ? 0 : 1;
}
