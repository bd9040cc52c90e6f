#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "attacks/env.hpp"
#include "common/rng.hpp"
#include "core/swarm.hpp"
#include "net/attest_client.hpp"
#include "net/attest_server.hpp"
#include "replica.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

namespace attacks = sacha::attacks;
namespace core = sacha::core;
namespace crypto = sacha::crypto;
namespace net = sacha::net;
using sacha::derive_seed;
using Tamper = std::function<void(core::SachaProver&)>;

// Load shape. Busy threads never exceed kPool (the host's 4 cores): 4
// clients, a 4-worker engine pool, or server loop + 2 verify workers +
// the load generator's event loop.
constexpr std::size_t kClients = 4;
constexpr std::size_t kPool = 4;
constexpr std::size_t kBatchWidth = 4;
constexpr std::size_t kFleetMembers = 8;
constexpr std::size_t kServiceRound = 512;
constexpr std::size_t kServiceConnections = 4;
constexpr std::size_t kServiceWorkers = 2;
constexpr std::size_t kTamperEvery = 64;
// Sessions per v6_full client that the MAC digest covers; every run
// completes at least these, however short.
constexpr std::size_t kPrefixSessions = 2;
// Timings of a workload's set-up per run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 3;
// Sessions a run completes at least, past its deadline if need be: one
// measurement window.
constexpr std::size_t kMinSessions = kWindowSessions;
// service_mixed set-up serves this many warm-up sessions.
constexpr std::size_t kWarmupSessions = kTamperEvery;
// In-process re-runs of service_mixed members (untraced runs); traced
// runs re-run kTracedSlots through every replica.
constexpr std::size_t kRerunSlots = 8;
constexpr std::size_t kTracedSlots = 64;
// Device of the lab-channel reproduction (the repo's Table 4 reference).
constexpr std::uint64_t kLabSeed = 2019;

struct Device {
  explicit Device(const attacks::AttackEnv& e)
      : env(e),
        verifier(e.make_verifier()),
        prover(e.make_prover()),
        tamper(pinned_tamper(verifier)) {}

  attacks::AttackEnv env;
  core::SachaVerifier verifier;
  core::SachaProver prover;
  Tamper tamper;  // this device's idempotent tamper, armed where tampered
};
using Devices = std::vector<std::unique_ptr<Device>>;

/// Runs fn(0..n-1) on up to `threads` threads; rethrows the first failure
/// after every thread has joined.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  const auto work = [&] {
    try {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
      next = n;
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::min(n, threads); ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

Devices provision(const std::vector<attacks::AttackEnv>& envs) {
  Devices out(envs.size());
  parallel_for(envs.size(), kPool,
               [&](std::size_t i) { out[i] = std::make_unique<Device>(envs[i]); });
  return out;
}

std::vector<attacks::AttackEnv> v6_envs(std::uint64_t seed, const char* label,
                                        std::size_t count) {
  std::vector<attacks::AttackEnv> envs;
  for (std::size_t i = 0; i < count; ++i) {
    envs.push_back(attacks::AttackEnv::virtex6(derive_seed(seed, label, i)));
  }
  return envs;
}

Outcome outcome_of(const core::AttestationReport& report,
                   const core::SachaVerifier& verifier) {
  return {report.verdict.ok(), report.failure, verifier.expected_mac()};
}

void add(std::vector<Metric>& m, const std::string& name, double value,
         const std::string& unit) {
  m.push_back(Metric{name, value, unit});
}

/// The paper's lab-channel figure, reproduced once per run after the
/// measured loop.
void lab_gate(RunResult& r) {
  attacks::AttackEnv env = attacks::AttackEnv::virtex6(kLabSeed);
  env.session_options.channel = net::ChannelParams::lab();
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  const core::AttestationReport report =
      core::run_attestation(verifier, prover, env.session_options);
  r.gates.check(report.verdict.ok(), "lab-channel session did not attest");
  check_lab_total(r.gates, report.total_time);
}

/// Counts one session against success_rate.
void count(RunResult& r, const std::string& who, bool tampered,
           const Outcome& outcome) {
  ++r.attempted;
  r.as_expected += expect_verdict(r.gates, who, tampered, outcome);
}

// ---- End-to-end figures ---------------------------------------------------

struct Measured {
  /// The measured loop's sessions, and where its clocks started.
  std::vector<Completion> done;
  double start_s = 0.0;
  double start_cpu_s = 0.0;
  std::vector<double> setup_s;
  double rss_peak_mb = 0.0;
};

/// Times the workload's set-up: once by the caller before the measured
/// loop (`first_s`), then kSetupRepeats - 1 more times here, after the loop
/// and after rss_peak_mb is read, each from scratch (`setup` builds and
/// drops the workload's state). The repeats exist only for the median.
void repeat_setup(Measured& m, double first_s, const std::function<void()>& setup) {
  m.rss_peak_mb = peak_rss_mb();
  m.setup_s.push_back(first_s);
  while (m.setup_s.size() < kSetupRepeats) {
    const double t0 = now_s();
    setup();
    m.setup_s.push_back(now_s() - t0);
  }
}

/// The four timing figures are taken per measurement window (stats.hpp)
/// and reported as their median over the run's windows, so that a stretch
/// of host interference shorter than half the run does not set them.
void end_to_end(RunResult& r, const Measured& m) {
  const std::vector<Window> windows = cut_windows(m.done, m.start_s, m.start_cpu_s);
  r.gates.check(!windows.empty(),
                "only " + std::to_string(m.done.size()) + " sessions: a window needs " +
                    std::to_string(kWindowSessions) + " (run longer)");
  std::vector<double> rate, p50s, p90s, cpu_ms;
  for (const Window& w : windows) {
    const double n = static_cast<double>(w.latency_ms.size());
    rate.push_back(n / w.wall_s);
    p50s.push_back(median(w.latency_ms).value_or(0.0));
    p90s.push_back(p90(w.latency_ms).value_or(0.0));
    cpu_ms.push_back(w.cpu_s * 1e3 / n);
  }
  add(r.metrics, "attest_per_s", median(rate).value_or(0.0), "1/s");
  add(r.metrics, "latency_p50_ms", median(p50s).value_or(0.0), "ms");
  add(r.metrics, "latency_p90_ms", median(p90s).value_or(0.0), "ms");
  add(r.metrics, "cpu_ms_per_attest", median(cpu_ms).value_or(0.0), "ms");
  add(r.metrics, "rss_peak_mb", m.rss_peak_mb, "MiB");
  add(r.metrics, "setup_s", median(m.setup_s).value_or(0.0), "s");
  add(r.metrics, "success_rate",
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.as_expected) /
                             static_cast<double>(r.attempted),
      "ratio");
}

// ---- Per-layer figures ----------------------------------------------------

/// Session-layer figures of the traced replica, accumulated over sessions.
/// `.ms` metrics average every traced session; `.allocs` and the encoded
/// byte count average the fixed prefix, so they repeat exactly per seed.
struct LayerStats {
  std::array<std::vector<double>, kLayerCount> self_ms;
  std::array<std::uint64_t, kLayerCount> prefix_allocs{};
  std::uint64_t prefix_sessions = 0;
  std::uint64_t prefix_encoded_bytes = 0;
  std::vector<double> cmac_ms, compare_ms, traced_ms, untraced_ms;
  double named_ns = 0.0;
  double wall_ns = 0.0;

  void add_session(const TracedSession& s, double untraced_wall_ms, bool prefix) {
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      self_ms[l].push_back(s.self_ns[l] * 1e-6);
      if (l != static_cast<std::size_t>(Layer::kSession)) named_ns += s.self_ns[l];
      if (prefix) prefix_allocs[l] += s.allocs[l];
    }
    if (prefix) {
      ++prefix_sessions;
      prefix_encoded_bytes += s.encoded_bytes;
    }
    wall_ns += s.wall_ns;
    cmac_ms.push_back(s.cmac_ns * 1e-6);
    compare_ms.push_back(s.masked_compare_ns * 1e-6);
    traced_ms.push_back(s.wall_ns * 1e-6);
    untraced_ms.push_back(untraced_wall_ms);
  }

  void emit(std::vector<Metric>& m) const {
    const double n = static_cast<double>(std::max<std::uint64_t>(prefix_sessions, 1));
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      const std::string name = layer_name(static_cast<Layer>(l));
      add(m, name + ".ms", mean(self_ms[l]), "ms");
      add(m, name + ".allocs", static_cast<double>(prefix_allocs[l]) / n, "count");
    }
    add(m, "core.protocol.encode.bytes", static_cast<double>(prefix_encoded_bytes) / n, "B");
    add(m, "crypto.cmac.prover.ms", mean(cmac_ms), "ms");
    add(m, "bitstream.masked_compare.ms", mean(compare_ms), "ms");
    add(m, "trace.coverage", wall_ns > 0 ? named_ns / wall_ns : 0.0, "ratio");
    const double untraced = median(untraced_ms).value_or(0.0);
    add(m, "trace.overhead",
        untraced > 0 ? median(traced_ms).value_or(0.0) / untraced - 1.0 : 0.0,
        "ratio");
  }
};

/// One session run twice: untraced through core::run_attestation on `a`,
/// traced through the replica on `b` (a twin provisioned from the same
/// seeds). Checks that both agree on MAC, verdict and ledger, and counts
/// the traced session against success_rate.
Outcome run_pair(RunResult& r, LayerStats& stats, SpanRecorder& rec,
                 std::vector<Span>* first_spans, Device& a, Device& b,
                 const core::SessionOptions& options, const Tamper& tamper,
                 bool prefix, bool full_v6, const std::string& who) {
  core::SessionHooks hooks;
  hooks.after_config = tamper;
  core::AttestationReport want;
  double untraced_ms = 0.0;
  const auto untraced = [&] {
    const double t0 = now_s();
    want = core::run_attestation(a.verifier, a.prover, options, hooks);
    untraced_ms = (now_s() - t0) * 1e3;
  };
  // Alternate which twin runs first, so that neither run of the pair
  // always finds the caches the other one warmed.
  const bool untraced_first = stats.traced_ms.size() % 2 == 0;
  if (untraced_first) untraced();
  const TracedSession got =
      run_traced_session(b.verifier, b.prover, b.env.key, options, tamper, rec);
  if (!untraced_first) untraced();
  if (first_spans != nullptr && first_spans->empty()) *first_spans = rec.spans();

  check_same_outcome(r.gates, who + " (traced vs untraced)",
                     outcome_of(want, a.verifier), got.outcome);
  check_same_ledger(r.gates, who, want, got.ledger, got.theoretical_ns,
                    got.total_ns);
  r.gates.check(got.shadow_mac_matches,
                who + ": shadow CMAC over the readback differs from the MAC");
  r.gates.check((got.shadow_frames_matched == got.shadow_frames_compared) ==
                    got.outcome.attested,
                who + ": shadow masked compare disagrees with the verdict");
  if (full_v6) check_theoretical(r.gates, who, got.theoretical_ns);
  count(r, who, static_cast<bool>(tamper), got.outcome);
  stats.add_session(got, untraced_ms, prefix);
  return got.outcome;
}

/// Fleet-engine figures from one attest_swarm(kMultiplexed) round.
void emit_engine(std::vector<Metric>& m, const core::SwarmReport& report,
                 double cpu_s, double wall_s, double serial_ms) {
  const double n = static_cast<double>(std::max<std::size_t>(report.members.size(), 1));
  const core::FleetEngineStats& e = report.engine;
  add(m, "core.fleet_engine.overhead_ms", cpu_s * 1e3 / n - serial_ms, "ms");
  add(m, "core.fleet_engine.drive_slices", static_cast<double>(e.drive_slices) / n,
      "count/session");
  add(m, "core.fleet_engine.verify_batches",
      static_cast<double>(e.verify_batches) / n, "count/session");
  add(m, "core.fleet_engine.verify_steals",
      static_cast<double>(e.verify_steals) / n, "count/session");
  add(m, "core.fleet_engine.peak_inbox_rounds",
      static_cast<double>(e.peak_inbox_rounds), "count");
  add(m, "core.fleet_engine.worker_busy",
      cpu_s / (wall_s * static_cast<double>(std::max<std::size_t>(e.pool_size, 1))),
      "ratio");
  add(m, "crypto.cmac_batch.occupancy",
      e.multi_absorb_calls == 0 ? 0.0
                                : static_cast<double>(e.multi_absorb_streams) /
                                      static_cast<double>(e.multi_absorb_calls),
      "streams/call");
}

core::SwarmOptions engine_options(const core::SessionOptions& session,
                                  std::uint64_t round_seed) {
  core::SwarmOptions so;
  so.session = session;
  so.session.seed = round_seed;
  so.schedule = core::SwarmSchedule::kMultiplexed;
  so.retry_budget = 0;
  so.engine.pool_size = kPool;
  so.engine.verify_batch_width = kBatchWidth;
  return so;
}

struct EngineRound {
  core::SwarmReport report;
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

EngineRound run_engine(std::vector<core::SwarmMember>& members,
                       const core::SwarmOptions& so) {
  EngineRound out;
  const double c0 = process_cpu_s();
  const double t0 = now_s();
  out.report = core::attest_swarm(members, so);
  out.wall_s = now_s() - t0;
  out.cpu_s = process_cpu_s() - c0;
  return out;
}

// ---- Socket service ---------------------------------------------------------

struct LiveFigures {
  /// Completed sessions on the clocks of the timed run_load calls alone:
  /// each round's sessions end together, at the round's end.
  std::vector<Completion> done;
  std::vector<double> server_ms;
  std::vector<double> outside_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t verify_batches = 0;
  std::uint64_t verify_steals = 0;
  /// Round-0 outcomes by registry slot (the fixed prefix).
  std::map<std::size_t, Outcome> prefix;
};

/// Rounds of `round_members` sessions, each against a fresh AttestServer
/// so that its in-memory audit log holds one round's entries whatever the
/// throughput; only the run_load calls are timed. At least one round.
LiveFigures run_live(RunResult& r, const net::FleetSpec& spec,
                     std::size_t round_members, std::size_t connections,
                     const std::function<bool(std::size_t)>& tampered,
                     double deadline, const std::string& label) {
  LiveFigures live;
  net::AttestServerOptions server_options;
  server_options.pool_size = kServiceWorkers;
  server_options.verify_batch_width = kBatchWidth;
  server_options.trace_sample = 0.0;
  for (std::size_t round = 0; round == 0 || now_s() < deadline; ++round) {
    net::AttestServer server(server_options);
    const sacha::Status started = server.start();
    r.gates.check(started.ok(), label + ": server start failed: " + started.message());
    if (!started.ok()) break;
    net::LoadOptions load;
    load.port = server.port();
    load.fleet = spec;
    load.members = round_members;
    load.member_offset = round * round_members;
    load.concurrency = connections;
    load.trace_sample = 0.0;
    for (std::size_t i = 0; i < round_members; ++i) {
      if (tampered(load.member_offset + i)) load.tampered.insert(i);
    }
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    const net::LoadResult result = net::run_load(load);
    live.wall_s += now_s() - t0;
    live.cpu_s += process_cpu_s() - c0;
    const net::AttestServerStats stats = server.stats();
    live.verify_batches += stats.verify_batches;
    live.verify_steals += stats.verify_steals;
    r.gates.check(server.audit_verify(), label + ": audit chain does not verify");
    server.stop();

    for (const net::MemberOutcome& m : result.members) {
      const std::size_t slot = load.member_offset + m.index;
      const std::string who = label + " slot " + std::to_string(slot);
      Outcome outcome{m.report.attested(), m.report.failure, std::nullopt};
      if (m.report.mac_present) outcome.mac = m.report.mac;
      if (!m.completed) outcome.failure = core::FailureKind::kPeerDisconnect;
      count(r, who, tampered(slot), outcome);
      r.gates.check(m.completed, who + ": no REPORT (" + m.error + ")");
      if (!m.completed) continue;
      ++live.completed;
      const double latency = static_cast<double>(m.latency_ns) * 1e-6;
      const double server_ms = static_cast<double>(m.report.wall_ns) * 1e-6;
      live.done.push_back(Completion{live.wall_s, live.cpu_s, latency});
      live.server_ms.push_back(server_ms);
      live.outside_ms.push_back(latency - server_ms);
      if (round == 0) live.prefix[slot] = outcome;
    }
  }
  return live;
}

/// In-memory replicas of the socket sessions of `slots`; each must
/// reproduce the live REPORT for its slot.
std::vector<ServiceSession> run_service_replicas(
    RunResult& r, const net::FleetSpec& spec, const std::vector<std::size_t>& slots,
    const std::function<bool(std::size_t)>& tampered, const LiveFigures& live,
    const std::string& label) {
  std::vector<ServiceSession> sessions;
  core::AuditLog audit;
  for (const std::size_t slot : slots) {
    const std::string who = label + " in-memory slot " + std::to_string(slot);
    sessions.push_back(run_service_session(
        net::member_hello(spec, slot),
        tampered(slot) ? net::standard_tamper() : Tamper(), audit));
    count(r, who, tampered(slot), sessions.back().outcome);
    const auto it = live.prefix.find(slot);
    r.gates.check(it != live.prefix.end(), who + ": no live REPORT to compare");
    if (it != live.prefix.end()) {
      check_same_outcome(r.gates, who + " (in-memory vs live)", it->second,
                         sessions.back().outcome);
    }
  }
  r.gates.check(audit.verify_chain(), label + ": replica audit chain does not verify");
  return sessions;
}

void emit_service(std::vector<Metric>& m, const std::vector<ServiceSession>& s,
                  const LiveFigures& live) {
  const auto per_session_us = [&s](double ServiceSession::*field) {
    double sum = 0.0;
    for (const ServiceSession& x : s) sum += x.*field;
    return s.empty() ? 0.0 : sum / static_cast<double>(s.size()) * 1e-3;
  };
  const double provision_v = per_session_us(&ServiceSession::verifier_for_ns);
  const double provision_p = per_session_us(&ServiceSession::prover_for_ns);
  const double wire_enc = per_session_us(&ServiceSession::wire_encode_ns);
  const double wire_dec = per_session_us(&ServiceSession::wire_decode_ns);
  const double agent = per_session_us(&ServiceSession::agent_ns);
  const double vsession = per_session_us(&ServiceSession::verifier_session_ns);
  const double audit = per_session_us(&ServiceSession::audit_ns);
  add(m, "net.provision.verifier_for.us", provision_v, "us");
  add(m, "net.provision.prover_for.us", provision_p, "us");
  add(m, "net.wire.encode.us", wire_enc, "us");
  add(m, "net.wire.decode.us", wire_dec, "us");
  add(m, "net.attest_client.agent.us", agent, "us");
  add(m, "core.verifier_session.us", vsession, "us");
  add(m, "core.audit.append.us", audit, "us");
  const double n = static_cast<double>(std::max<std::uint64_t>(live.completed, 1));
  add(m, "net.attest_server.session_ms_p50", median(live.server_ms).value_or(0.0), "ms");
  add(m, "net.outside_ms_p50", median(live.outside_ms).value_or(0.0), "ms");
  add(m, "net.attest_server.verify_batches",
      static_cast<double>(live.verify_batches) / n, "count/session");
  add(m, "net.attest_server.verify_steals",
      static_cast<double>(live.verify_steals) / n, "count/session");
  const double in_memory =
      provision_v + provision_p + wire_enc + wire_dec + agent + vsession + audit;
  add(m, "net.io.us", live.cpu_s * 1e6 / n - in_memory, "us");
}

/// Service figures at Virtex-6 scale, for the traced v6 workloads: two
/// sessions over loopback and one in memory.
void v6_service_phase(RunResult& r, std::uint64_t seed, const std::string& label) {
  net::FleetSpec spec;
  spec.base_seed = derive_seed(seed, label + "/service");
  spec.session_seed = derive_seed(seed, label + "/service-session");
  spec.scale = net::DeviceScale::kVirtex6;
  const auto none = [](std::size_t) { return false; };
  const LiveFigures live = run_live(r, spec, 2, 2, none, 0.0, label + " live");
  const std::vector<ServiceSession> sessions =
      run_service_replicas(r, spec, {0}, none, live, label);
  emit_service(r.metrics, sessions, live);
}

void finish_digest(RunResult& r, const std::string& workload,
                   std::uint64_t seed, const MacDigest& digest) {
  r.digest = digest.hex();
  check_digest(r.gates, workload, seed, r.digest);
}

void write_first_spans(RunResult& r, const RunOptions& o, std::uint64_t id,
                       const std::vector<Span>& spans) {
  if (o.spans_out.empty()) return;
  r.gates.check(write_spans(o.spans_out, id, spans),
                "could not write spans to " + o.spans_out);
}

// ---- v6_full ----------------------------------------------------------------

std::uint64_t client_seed(std::uint64_t seed, std::size_t client, std::size_t j) {
  return derive_seed(seed, "v6_full/session", client * 1'000'000 + j);
}

struct ClientRecord {
  GateLog gates;
  std::vector<Completion> done;
  std::uint64_t attempted = 0;
  std::uint64_t as_expected = 0;
  std::vector<std::pair<std::uint64_t, std::optional<crypto::Mac>>> prefix;
};

RunResult run_v6_full(const RunOptions& o) {
  RunResult r;
  Measured m;
  const auto envs = v6_envs(o.seed, "v6_full/device", kClients);
  const double setup_t0 = now_s();
  Devices devices = provision(envs);
  const double setup_s = now_s() - setup_t0;
  const std::size_t tampered = o.seed % kClients;

  std::vector<ClientRecord> records(kClients);
  std::atomic<std::size_t> started{0};
  m.start_cpu_s = process_cpu_s();
  m.start_s = now_s();
  const double deadline = m.start_s + o.seconds;
  parallel_for(kClients, kClients, [&](std::size_t c) {
    Device& d = *devices[c];
    ClientRecord& rec = records[c];
    core::SessionHooks hooks;
    if (c == tampered) hooks.after_config = d.tamper;
    for (std::size_t j = 0; j < kPrefixSessions || now_s() < deadline ||
                            started.load() < kMinSessions;
         ++j) {
      started.fetch_add(1);
      core::SessionOptions options = d.env.session_options;
      options.seed = client_seed(o.seed, c, j);
      const double s0 = now_s();
      const core::AttestationReport report =
          core::run_attestation(d.verifier, d.prover, options, hooks);
      const double end = now_s();
      rec.done.push_back(Completion{end, process_cpu_s(), (end - s0) * 1e3});
      const Outcome outcome = outcome_of(report, d.verifier);
      const std::string who =
          "v6_full client " + std::to_string(c) + " session " + std::to_string(j);
      ++rec.attempted;
      rec.as_expected += expect_verdict(rec.gates, who, c == tampered, outcome);
      check_theoretical(rec.gates, who, report.theoretical_time);
      if (j < kPrefixSessions) rec.prefix.emplace_back(c * 1000 + j, outcome.mac);
    }
  });
  devices.clear();
  repeat_setup(m, setup_s, [&] { provision(envs); });
  lab_gate(r);

  MacDigest digest;
  for (const ClientRecord& rec : records) {
    r.gates.merge(rec.gates);
    r.attempted += rec.attempted;
    r.as_expected += rec.as_expected;
    m.done.insert(m.done.end(), rec.done.begin(), rec.done.end());
    for (const auto& [key, mac] : rec.prefix) digest.add(key, mac);
  }
  finish_digest(r, "v6_full", o.seed, digest);
  end_to_end(r, m);
  return r;
}

RunResult trace_v6_full(const RunOptions& o) {
  RunResult r;
  const double t_start = now_s();
  const auto envs = v6_envs(o.seed, "v6_full/device", kClients);
  Devices a = provision(envs);
  Devices b = provision(envs);
  const std::size_t tampered = o.seed % kClients;

  LayerStats stats;
  SpanRecorder rec;
  std::vector<Span> first_spans;
  MacDigest digest;
  const double replica_deadline = t_start + 0.6 * o.seconds;
  for (std::size_t j = 0; j < kPrefixSessions || now_s() < replica_deadline; ++j) {
    for (std::size_t c = 0; c < kClients; ++c) {
      core::SessionOptions options = a[c]->env.session_options;
      options.seed = client_seed(o.seed, c, j);
      const Tamper tamper = c == tampered ? a[c]->tamper : Tamper();
      const Outcome outcome = run_pair(
          r, stats, rec, &first_spans, *a[c], *b[c], options, tamper,
          j < kPrefixSessions, /*full_v6=*/true,
          "v6_full client " + std::to_string(c) + " session " + std::to_string(j));
      if (j < kPrefixSessions) digest.add(c * 1000 + j, outcome.mac);
    }
  }
  finish_digest(r, "v6_full", o.seed, digest);
  stats.emit(r.metrics);

  // The engine over the same four devices' next full sessions.
  std::vector<core::SwarmMember> members;
  for (std::size_t c = 0; c < kClients; ++c) {
    core::SwarmMember member{"client-" + std::to_string(c), &a[c]->verifier,
                             &a[c]->prover, {}};
    if (c == tampered) member.hooks.after_config = a[c]->tamper;
    members.push_back(std::move(member));
  }
  const EngineRound engine = run_engine(
      members, engine_options(a[0]->env.session_options,
                              derive_seed(o.seed, "v6_full/engine")));
  for (std::size_t c = 0; c < kClients; ++c) {
    const core::SwarmMemberResult& m = engine.report.members[c];
    count(r, "v6_full engine client " + std::to_string(c), c == tampered,
          Outcome{m.verdict.ok(), m.failure, a[c]->verifier.expected_mac()});
  }
  emit_engine(r.metrics, engine.report, engine.cpu_s, engine.wall_s,
              median(stats.untraced_ms).value_or(0.0));

  a.clear();
  b.clear();
  v6_service_phase(r, o.seed, "v6_full");
  write_first_spans(r, o, client_seed(o.seed, 0, 0), first_spans);
  return r;
}

// ---- v6_refresh_fleet -------------------------------------------------------

std::string fleet_member_id(std::size_t i) { return "member-" + std::to_string(i); }

std::uint64_t round_seed(std::uint64_t seed, std::size_t round) {
  return derive_seed(seed, "v6_refresh_fleet/round", round);
}

/// 8 provisioned devices, each installed by one full session, switched to
/// refresh-only, with the tamper armed on one member.
struct Fleet {
  Devices devices;
  std::vector<core::SwarmMember> members;
};

Fleet make_fleet(RunResult& r, std::uint64_t seed) {
  Fleet fleet;
  fleet.devices = provision(v6_envs(seed, "v6_refresh_fleet/device", kFleetMembers));
  for (std::size_t i = 0; i < kFleetMembers; ++i) {
    fleet.members.push_back(core::SwarmMember{
        fleet_member_id(i), &fleet.devices[i]->verifier, &fleet.devices[i]->prover, {}});
  }
  const core::SwarmReport install = core::attest_swarm(
      fleet.members,
      engine_options(fleet.devices[0]->env.session_options,
                     derive_seed(seed, "v6_refresh_fleet/install")));
  r.gates.check(install.all_attested(), "v6_refresh_fleet: install sessions did not attest");
  // Installs are full sessions on the ideal channel, which adds no latency:
  // each one's duration is Table 4's theoretical time.
  for (std::size_t i = 0; i < kFleetMembers; ++i) {
    check_theoretical(r.gates, "v6_refresh_fleet install " + std::to_string(i),
                      install.members[i].duration);
  }
  const std::size_t tampered = seed % kFleetMembers;
  for (std::size_t i = 0; i < kFleetMembers; ++i) {
    fleet.devices[i]->verifier.set_refresh_only(true);
  }
  fleet.members[tampered].hooks.after_config =
      fleet.devices[tampered]->tamper;
  return fleet;
}

RunResult run_v6_refresh_fleet(const RunOptions& o) {
  RunResult r;
  Measured m;
  const double setup_t0 = now_s();
  Fleet fleet = make_fleet(r, o.seed);
  const double setup_s = now_s() - setup_t0;
  const std::size_t tampered = o.seed % kFleetMembers;
  const core::SessionOptions session = fleet.devices[0]->env.session_options;

  MacDigest digest;
  m.start_cpu_s = process_cpu_s();
  m.start_s = now_s();
  const double deadline = m.start_s + o.seconds;
  for (std::size_t round = 0;
       round == 0 || now_s() < deadline || r.attempted < kMinSessions; ++round) {
    const core::SwarmReport report = core::attest_swarm(
        fleet.members, engine_options(session, round_seed(o.seed, round)));
    const double end = now_s();
    const double cpu = process_cpu_s();
    for (std::size_t i = 0; i < kFleetMembers; ++i) {
      const core::SwarmMemberResult& member = report.members[i];
      const Outcome outcome{member.verdict.ok(), member.failure,
                            fleet.devices[i]->verifier.expected_mac()};
      count(r,
            "v6_refresh_fleet round " + std::to_string(round) + " member " +
                std::to_string(i),
            i == tampered, outcome);
      m.done.push_back(
          Completion{end, cpu, static_cast<double>(member.host_ns) * 1e-6});
      if (round == 0) digest.add(i, outcome.mac);
    }
  }
  fleet = Fleet();
  repeat_setup(m, setup_s, [&] { make_fleet(r, o.seed); });
  lab_gate(r);
  finish_digest(r, "v6_refresh_fleet", o.seed, digest);
  end_to_end(r, m);
  return r;
}

RunResult trace_v6_refresh_fleet(const RunOptions& o) {
  RunResult r;
  const double t_start = now_s();
  Fleet a = make_fleet(r, o.seed);
  Fleet b = make_fleet(r, o.seed);
  const std::size_t tampered = o.seed % kFleetMembers;
  const core::SessionOptions session = a.devices[0]->env.session_options;

  LayerStats stats;
  SpanRecorder rec;
  std::vector<Span> first_spans;
  MacDigest digest;
  const double replica_deadline = t_start + 0.6 * o.seconds;
  std::size_t round = 0;
  for (; round == 0 || now_s() < replica_deadline; ++round) {
    for (std::size_t i = 0; i < kFleetMembers; ++i) {
      // attest_swarm's per-member seed for attempt 0.
      core::SessionOptions options = session;
      options.seed = derive_seed(round_seed(o.seed, round), fleet_member_id(i), 0);
      const Tamper tamper =
          i == tampered ? a.devices[i]->tamper : Tamper();
      const Outcome outcome = run_pair(
          r, stats, rec, &first_spans, *a.devices[i], *b.devices[i], options, tamper,
          round == 0, /*full_v6=*/false,
          "v6_refresh_fleet round " + std::to_string(round) + " member " +
              std::to_string(i));
      if (round == 0) digest.add(i, outcome.mac);
    }
  }
  finish_digest(r, "v6_refresh_fleet", o.seed, digest);
  stats.emit(r.metrics);

  // The workload's own engine round, next in the same device sequence.
  b = Fleet();
  const EngineRound engine =
      run_engine(a.members, engine_options(session, round_seed(o.seed, round)));
  for (std::size_t i = 0; i < kFleetMembers; ++i) {
    const core::SwarmMemberResult& m = engine.report.members[i];
    count(r, "v6_refresh_fleet engine member " + std::to_string(i), i == tampered,
          Outcome{m.verdict.ok(), m.failure, a.devices[i]->verifier.expected_mac()});
  }
  emit_engine(r.metrics, engine.report, engine.cpu_s, engine.wall_s,
              median(stats.untraced_ms).value_or(0.0));

  a = Fleet();
  v6_service_phase(r, o.seed, "v6_refresh_fleet");
  write_first_spans(r, o, derive_seed(round_seed(o.seed, 0), fleet_member_id(0), 0),
                    first_spans);
  return r;
}

// ---- service_mixed ----------------------------------------------------------

net::FleetSpec service_spec(std::uint64_t seed) {
  net::FleetSpec spec;
  spec.base_seed = derive_seed(seed, "service_mixed/base");
  spec.session_seed = derive_seed(seed, "service_mixed/session");
  spec.mixed = true;
  return spec;
}

std::function<bool(std::size_t)> service_tampered(std::uint64_t seed) {
  const std::size_t residue = seed % kTamperEvery;
  return [residue](std::size_t slot) { return slot % kTamperEvery == residue; };
}

/// Round-0 slots re-run in process: the first `count` slots, with the
/// first tampered one swapped in for the last.
std::vector<std::size_t> rerun_slots(std::uint64_t seed, std::size_t count) {
  std::vector<std::size_t> slots;
  for (std::size_t s = 0; s < count; ++s) slots.push_back(s);
  const std::size_t tampered = seed % kTamperEvery;
  if (tampered >= count) slots.back() = tampered;
  return slots;
}

/// Re-runs `slots` in process through attest_swarm(kMultiplexed) on fresh
/// devices; every verdict and MAC must equal the live REPORT.
EngineRound rerun_in_process(RunResult& r, const net::FleetSpec& spec,
                             const std::vector<std::size_t>& slots,
                             const std::function<bool(std::size_t)>& tampered,
                             const LiveFigures& live) {
  std::vector<attacks::AttackEnv> envs;
  for (const std::size_t slot : slots) {
    envs.push_back(net::member_env(net::member_scale(spec, slot), spec.base_seed + slot));
  }
  Devices devices = provision(envs);
  std::vector<core::SwarmMember> members;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    core::SwarmMember member{net::member_id(slots[k]), &devices[k]->verifier,
                             &devices[k]->prover, {}};
    if (tampered(slots[k])) member.hooks.after_config = net::standard_tamper();
    members.push_back(std::move(member));
  }
  core::SessionOptions session = envs.front().session_options;
  session.register_flip_probability = spec.flip_probability;
  EngineRound engine = run_engine(members, engine_options(session, spec.session_seed));
  for (std::size_t k = 0; k < slots.size(); ++k) {
    const core::SwarmMemberResult& m = engine.report.members[k];
    const std::string who = "service_mixed in-process slot " + std::to_string(slots[k]);
    const Outcome outcome{m.verdict.ok(), m.failure, devices[k]->verifier.expected_mac()};
    count(r, who, tampered(slots[k]), outcome);
    const auto it = live.prefix.find(slots[k]);
    r.gates.check(it != live.prefix.end(), who + ": no live REPORT to compare");
    if (it != live.prefix.end()) {
      check_same_outcome(r.gates, who + " (in-process vs live)", it->second, outcome);
    }
  }
  return engine;
}

MacDigest live_digest(const LiveFigures& live) {
  MacDigest digest;
  for (const auto& [slot, outcome] : live.prefix) digest.add(slot, outcome.mac);
  return digest;
}

RunResult run_service_mixed(const RunOptions& o) {
  RunResult r;
  const net::FleetSpec spec = service_spec(o.seed);
  const auto tampered = service_tampered(o.seed);
  Measured m;
  // Set-up: provision one verifier per device scale, which interns the two
  // golden models the server then shares, and serve the warm-up sessions.
  // The pins live for the whole measured loop.
  const auto setup = [&] {
    std::vector<core::SachaVerifier> pins;
    pins.push_back(net::verifier_for(net::member_hello(spec, 0)));
    pins.push_back(net::verifier_for(net::member_hello(spec, 1)));
    RunResult warmup;
    run_live(warmup, spec, kWarmupSessions, kServiceConnections, tampered, 0.0,
             "warm-up");
    r.gates.merge(warmup.gates);
    return pins;
  };
  const double setup_t0 = now_s();
  std::vector<core::SachaVerifier> pins = setup();
  const double setup_s = now_s() - setup_t0;

  const LiveFigures live = run_live(r, spec, kServiceRound, kServiceConnections,
                                    tampered, now_s() + o.seconds, "service_mixed");
  m.done = live.done;
  finish_digest(r, "service_mixed", o.seed, live_digest(live));
  rerun_in_process(r, spec, rerun_slots(o.seed, kRerunSlots), tampered, live);
  pins.clear();
  repeat_setup(m, setup_s, [&] { setup(); });
  end_to_end(r, m);
  return r;
}

RunResult trace_service_mixed(const RunOptions& o) {
  RunResult r;
  const net::FleetSpec spec = service_spec(o.seed);
  const auto tampered = service_tampered(o.seed);
  std::vector<core::SachaVerifier> pins;
  pins.push_back(net::verifier_for(net::member_hello(spec, 0)));
  pins.push_back(net::verifier_for(net::member_hello(spec, 1)));

  const LiveFigures live =
      run_live(r, spec, kServiceRound, kServiceConnections, tampered,
               now_s() + 0.6 * o.seconds, "service_mixed");
  finish_digest(r, "service_mixed", o.seed, live_digest(live));
  const std::vector<std::size_t> slots = rerun_slots(o.seed, kTracedSlots);

  // Session layers: each slot's session twice, on fresh twin devices.
  LayerStats stats;
  SpanRecorder rec;
  std::vector<Span> first_spans;
  for (const std::size_t slot : slots) {
    const attacks::AttackEnv env =
        net::member_env(net::member_scale(spec, slot), spec.base_seed + slot);
    Device a(env);
    Device b(env);
    core::SessionOptions options = env.session_options;
    options.seed = net::member_session_seed(spec, slot);
    options.register_flip_probability = spec.flip_probability;
    const std::string who = "service_mixed replica slot " + std::to_string(slot);
    const Outcome outcome =
        run_pair(r, stats, rec, &first_spans, a, b, options,
                 tampered(slot) ? net::standard_tamper() : Tamper(), true,
                 /*full_v6=*/false, who);
    const auto it = live.prefix.find(slot);
    r.gates.check(it != live.prefix.end(), who + ": no live REPORT to compare");
    if (it != live.prefix.end()) {
      check_same_outcome(r.gates, who + " (replica vs live)", it->second, outcome);
    }
  }
  stats.emit(r.metrics);

  const EngineRound engine = rerun_in_process(r, spec, slots, tampered, live);
  emit_engine(r.metrics, engine.report, engine.cpu_s, engine.wall_s,
              median(stats.untraced_ms).value_or(0.0));

  const std::vector<ServiceSession> sessions =
      run_service_replicas(r, spec, slots, tampered, live, "service_mixed");
  emit_service(r.metrics, sessions, live);
  write_first_spans(r, o, net::member_session_seed(spec, slots[0]), first_spans);
  return r;
}

}  // namespace

Tamper pinned_tamper(const core::SachaVerifier& verifier) {
  const bool golden = verifier.golden_frame(kTamperFrame).get_bit(kTamperBit);
  return [golden](core::SachaProver& p) {
    sacha::bitstream::Frame frame = p.memory().config_frame(kTamperFrame);
    frame.set_bit(kTamperBit, !golden);
    p.memory().write_frame(kTamperFrame, frame);
  };
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"v6_full", "v6_refresh_fleet",
                                                  "service_mixed"};
  return kNames;
}

RunResult run_workload(const RunOptions& o) {
  if (o.workload == "v6_full") return o.trace ? trace_v6_full(o) : run_v6_full(o);
  if (o.workload == "v6_refresh_fleet") {
    return o.trace ? trace_v6_refresh_fleet(o) : run_v6_refresh_fleet(o);
  }
  if (o.workload == "service_mixed") {
    return o.trace ? trace_service_mixed(o) : run_service_mixed(o);
  }
  RunResult r;
  r.gates.check(false, "unknown workload " + o.workload);
  return r;
}

}  // namespace perfbench
