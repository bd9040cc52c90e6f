// bench_net — wallclock fleet benchmark over real loopback sockets.
//
// Four gates, all enforced by exit code so CI fails loudly:
//   1. Bit-identity: a 16-member mixed fleet attested over TCP must match
//      the in-process SwarmSchedule::kMultiplexed oracle verdict-for-
//      verdict and MAC-for-MAC — with telemetry off AND with telemetry on
//      at full sampling (trace fields must never perturb the MAC path).
//   2. Merged timeline: a sampled session must yield one cross-process
//      timeline — prover-side and verifier-side phase spans under one
//      TraceId — exported to TRACE_net.json (chrome://tracing).
//   3. Scale: the sweep must sustain >= 500 concurrent prover connections
//      on loopback with every session completing.
//   4. Overhead: 1% head sampling with counters on must keep 512-conn
//      throughput within 2% of the telemetry-off baseline. Each side is
//      the nearest-rank median of 5 trials of at least 2 s of 512-conn
//      load, the two sides' trials interleaved.
//
// The sweep opens {64, 256, 512} connections at once against one attestd
// and records attestations/sec plus p50/p99/p999 session latency into
// BENCH_net.json (bench_util schema, diffable across PRs).
#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "bench_util.hpp"
#include "core/swarm.hpp"
#include "net/attest_client.hpp"
#include "net/attest_server.hpp"
#include "net/tcp.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace sacha;

namespace {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t at = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[at];
}

/// Gate 1: loopback verdicts and MACs bit-identical to the multiplexed
/// in-process engine on a 16-member mixed fleet with two tampered members.
/// Run twice — telemetry off and telemetry on at full sampling — so a
/// divergence introduced by the trace plumbing trips the same oracle.
bool run_identity_gate(net::AttestServer& server, const char* label,
                       double trace_sample) {
  net::FleetSpec spec;
  spec.mixed = true;
  constexpr std::size_t kMembers = 16;
  const std::set<std::size_t> tampered = {1, 3};

  std::deque<attacks::AttackEnv> envs;
  std::deque<core::SachaVerifier> verifiers;
  std::deque<core::SachaProver> provers;
  std::vector<core::SwarmMember> swarm;
  for (std::size_t i = 0; i < kMembers; ++i) {
    envs.push_back(
        net::member_env(net::member_scale(spec, i), spec.base_seed + i));
    verifiers.push_back(envs.back().make_verifier());
    provers.push_back(envs.back().make_prover());
  }
  for (std::size_t i = 0; i < kMembers; ++i) {
    core::SwarmMember member{net::member_id(i), &verifiers[i], &provers[i],
                             {}};
    if (tampered.count(i) > 0) {
      member.hooks.after_config = [](core::SachaProver& p) {
        bitstream::Frame f = p.memory().config_frame(5);
        f.flip_bit(7);
        p.memory().write_frame(5, f);
      };
    }
    swarm.push_back(std::move(member));
  }
  core::SwarmOptions options;
  options.session = envs.front().session_options;
  options.session.seed = spec.session_seed;
  options.schedule = core::SwarmSchedule::kMultiplexed;
  options.retry_budget = 0;
  const core::SwarmReport oracle = core::attest_swarm(swarm, options);

  net::LoadOptions load;
  load.host = "127.0.0.1";
  load.port = server.port();
  load.fleet = spec;
  load.members = kMembers;
  load.tampered = tampered;
  load.timeout_ms = 60000;
  load.trace_sample = trace_sample;
  const net::LoadResult result = net::run_load(load);

  if (!result.all_completed()) {
    std::fprintf(stderr, "identity gate (%s): only %zu/%zu completed\n",
                 label, result.completed, result.members.size());
    return false;
  }
  for (std::size_t i = 0; i < kMembers; ++i) {
    const core::SwarmMemberResult& want = oracle.members[i];
    const net::MemberOutcome& got = result.members[i];
    const bool verdict_match =
        got.report.protocol_ok == want.verdict.protocol_ok &&
        got.report.mac_ok == want.verdict.mac_ok &&
        got.report.config_ok == want.verdict.config_ok &&
        got.report.failure == want.failure;
    const bool mac_match = got.client_mac.has_value() &&
                           want.mac.has_value() &&
                           *got.client_mac == *want.mac;
    if (!verdict_match || !mac_match) {
      std::fprintf(stderr,
                   "identity gate (%s): member %zu diverged "
                   "(verdict %s, mac %s)\n",
                   label, i, verdict_match ? "ok" : "MISMATCH",
                   mac_match ? "ok" : "MISMATCH");
      return false;
    }
  }
  std::printf("identity gate      : 16-member mixed fleet bit-identical to "
              "kMultiplexed (%zu attested, 2 tampered caught, %s)\n",
              result.attested, label);
  return true;
}

/// Gate 2: the spans drained after the full-sampling identity run must
/// contain at least one trace id carrying phase spans from BOTH sides of
/// the wire — the prover-side client and the verifier-side service — i.e.
/// one merged cross-process timeline per attestation. Also writes the
/// drained spans to TRACE_net.json for chrome://tracing.
bool run_trace_merge_gate() {
  const std::vector<obs::SpanRecord> records = obs::Tracer::global().drain();
  struct Sides {
    bool prover_phase = false;
    bool verifier_phase = false;
    bool prover_session = false;
    bool verifier_session = false;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, Sides> by_trace;
  for (const obs::SpanRecord& r : records) {
    if (!r.trace.valid()) continue;
    Sides& s = by_trace[{r.trace.hi, r.trace.lo}];
    for (const auto& [key, value] : r.args) {
      if (key != "side") continue;
      const bool phase = r.category == "phase";
      if (value == "prover") {
        (phase ? s.prover_phase : s.prover_session) = true;
      } else if (value == "verifier") {
        (phase ? s.verifier_phase : s.verifier_session) = true;
      }
    }
  }
  std::size_t merged = 0;
  for (const auto& [trace, sides] : by_trace) {
    if (sides.prover_phase && sides.verifier_phase && sides.prover_session &&
        sides.verifier_session) {
      ++merged;
    }
  }
  if (!obs::write_text_file("TRACE_net.json",
                            obs::chrome_trace_json(records))) {
    std::fprintf(stderr, "trace gate: failed to write TRACE_net.json\n");
    return false;
  }
  if (merged == 0) {
    std::fprintf(stderr,
                 "trace gate: no merged timeline (%zu spans, %zu trace ids, "
                 "none with phase spans from both sides)\n",
                 records.size(), by_trace.size());
    return false;
  }
  std::printf("trace gate         : %zu merged cross-process timelines "
              "(%zu spans) -> TRACE_net.json\n",
              merged, records.size());
  return true;
}

struct SweepPoint {
  std::size_t conns = 0;
  std::size_t completed = 0;
  bool all_completed = false;
  double rate = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  std::size_t peak = 0;
};

SweepPoint run_sweep_point(net::AttestServer& server, std::size_t conns,
                           double trace_sample) {
  net::LoadOptions load;
  load.host = "127.0.0.1";
  load.port = server.port();
  load.members = conns;
  load.concurrency = 0;  // all at once: the concurrent-connection sweep
  load.timeout_ms = 120000;
  load.trace_sample = trace_sample;
  const net::LoadResult result = net::run_load(load);

  SweepPoint point;
  point.conns = conns;
  point.completed = result.completed;
  point.all_completed = result.all_completed();
  std::vector<double> latencies_ms;
  for (const net::MemberOutcome& m : result.members) {
    if (m.completed) {
      latencies_ms.push_back(static_cast<double>(m.latency_ns) / 1e6);
    }
  }
  const double seconds = static_cast<double>(result.wall_ns) / 1e9;
  point.rate =
      seconds > 0 ? static_cast<double>(result.completed) / seconds : 0;
  point.p50_ms = percentile(latencies_ms, 0.50);
  point.p99_ms = percentile(latencies_ms, 0.99);
  point.p999_ms = percentile(latencies_ms, 0.999);
  point.peak = result.peak_concurrent;
  return point;
}

}  // namespace

int main() {
  net::AttestServerOptions server_options;
  server_options.session_timeout_ms = 120000;
  net::AttestServer server(server_options);
  Status started = server.start();
  if (!started.ok()) {
    std::fprintf(stderr, "bench_net: %s\n", started.message().c_str());
    return 1;
  }
  std::printf("bench_net: attestd on 127.0.0.1:%u\n", server.port());

  bool gates_ok = run_identity_gate(server, "obs off", -1.0);

  // Same fleet with telemetry on at full sampling: the verdicts and MACs
  // must hit the same oracle, and the drained spans must merge into
  // cross-process timelines.
  obs::set_enabled(true);
  obs::Tracer::global().clear();
  gates_ok = run_identity_gate(server, "obs on, sample 1.0", 1.0) && gates_ok;
  gates_ok = run_trace_merge_gate() && gates_ok;
  obs::set_enabled(false);

  std::vector<benchutil::BenchRecord> records;
  std::size_t peak_seen = 0;
  bool all_completed = true;
  std::printf("\n%8s %12s %14s %12s %12s %12s\n", "conns", "completed",
              "attest/s", "p50 ms", "p99 ms", "p999 ms");
  const auto report_point = [&](const SweepPoint& point) {
    peak_seen = std::max(peak_seen, point.peak);
    all_completed = all_completed && point.all_completed;
    std::printf("%8zu %12zu %14.1f %12.3f %12.3f %12.3f\n", point.conns,
                point.completed, point.rate, point.p50_ms, point.p99_ms,
                point.p999_ms);
    if (!point.all_completed) {
      std::fprintf(stderr, "scale gate: %zu/%zu completed at %zu conns\n",
                   point.completed, point.conns, point.conns);
      gates_ok = false;
    }
    const std::string tag = "net/" + std::to_string(point.conns) + "conns";
    records.push_back({tag, "attestations_per_s", point.rate, "1/s"});
    records.push_back({tag, "session_p50", point.p50_ms, "ms"});
    records.push_back({tag, "session_p99", point.p99_ms, "ms"});
    records.push_back({tag, "session_p999", point.p999_ms, "ms"});
    records.push_back({tag, "peak_concurrent",
                       static_cast<double>(point.peak), "conns"});
  };
  for (const std::size_t conns :
       {std::size_t{64}, std::size_t{256}, std::size_t{512}}) {
    report_point(run_sweep_point(server, conns, -1.0));
  }

  // The overhead gate: 512-conn trials with telemetry off and with
  // counters + 1% head sampling on, interleaved so host drift lands on
  // both sides alike. Each side is the median of its trials.
  const auto load_512 = [&server](double trace_sample) {
    return [&server, trace_sample] {
      net::LoadOptions load;
      load.host = "127.0.0.1";
      load.port = server.port();
      load.members = 512;
      load.timeout_ms = 120000;
      load.trace_sample = trace_sample;
      return net::run_load(load);
    };
  };
  std::vector<double> rates_off;
  std::vector<double> rates_on;
  bool trials_completed = true;
  for (int trial = 0; trial < benchutil::kGateTrials; ++trial) {
    const benchutil::Trial off = benchutil::timed_trial(load_512(-1.0));
    obs::set_enabled(true);
    const benchutil::Trial on = benchutil::timed_trial(load_512(0.01));
    obs::set_enabled(false);
    rates_off.push_back(off.rate);
    rates_on.push_back(on.rate);
    trials_completed =
        trials_completed && off.all_completed && on.all_completed;
  }
  const double rate_off = benchutil::nearest_rank_median(rates_off);
  const double rate_on = benchutil::nearest_rank_median(rates_on);
  all_completed = all_completed && trials_completed;

  const double overhead_pct =
      rate_off > 0 ? (rate_off - rate_on) / rate_off * 100.0 : 0.0;
  records.push_back({"net/obs", "rate_obs_off", rate_off, "1/s"});
  records.push_back({"net/obs", "rate_obs_on_1pct", rate_on, "1/s"});
  records.push_back({"net/obs", "overhead_pct", overhead_pct, "%"});
  if (!trials_completed || overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "overhead gate: 512 conns at 1%% sampling ran %.2f%% slower "
                 "than obs-off (medians of %d trials: %.1f vs %.1f "
                 "attest/s, budget 2%%)\n",
                 overhead_pct, benchutil::kGateTrials, rate_on, rate_off);
    gates_ok = false;
  } else {
    std::printf("overhead gate      : 1%% sampling costs %.2f%% at 512 conns "
                "(medians of %d trials: %.1f vs %.1f attest/s, budget 2%%)\n",
                overhead_pct, benchutil::kGateTrials, rate_on, rate_off);
  }

  const net::AttestServerStats stats = server.stats();
  records.push_back({"net/server", "peak_connections",
                     static_cast<double>(stats.peak_connections), "conns"});
  server.stop();

  if (peak_seen < 500) {
    std::fprintf(stderr,
                 "scale gate: peak concurrent connections %zu < 500\n",
                 peak_seen);
    gates_ok = false;
  } else {
    std::printf("\nscale gate         : sustained %zu concurrent prover "
                "connections\n",
                peak_seen);
  }

  if (!benchutil::write_bench_json("BENCH_net.json", records)) {
    std::fprintf(stderr, "bench_net: failed to write BENCH_net.json\n");
    return 1;
  }
  std::printf("wrote BENCH_net.json (%zu records)\n", records.size());
  return gates_ok ? 0 : 1;
}
