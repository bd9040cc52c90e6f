// sacha_cli — interactive driver for the whole library.
//
// Run attestation sessions against any modelled device, under any channel
// condition, with any adversary from the library, in MAC or signature
// mode, and get the per-action timing breakdown — all from the command
// line. `sacha_cli --help` lists everything.
#include <cstdio>
#include <cstring>
#include <string>

#include <deque>

#include <csignal>

#include <poll.h>
#include <unistd.h>

#include "attacks/library.hpp"
#include "bitstream/golden_model.hpp"
#include "core/signed_attest.hpp"
#include "core/swarm.hpp"
#include "fault/injector.hpp"
#include "net/attest_client.hpp"
#include "net/attest_server.hpp"
#include "net/tcp.hpp"
#include "obs/export.hpp"
#include "update/pipeline.hpp"

using namespace sacha;

namespace {

struct CliOptions {
  std::string device = "virtex6";  // small | softcore | virtex6
  std::string order = "offset";    // seq | offset | perm
  std::string attack;              // empty = honest run
  std::uint64_t latency_us = 0;
  std::uint64_t jitter_us = 0;
  double loss = 0.0;
  std::string fault_plan;          // fault::FaultPlan textual form
  std::string update_manifest;     // OTA: "version=<v>;app=<name>:<seed>"
  std::uint64_t deadline_ms = 0;   // session deadline (0 = unbounded)
  bool reliable = false;
  bool signed_mode = false;
  std::uint32_t frames_per_config = 1;
  std::uint32_t frames_per_readback = 1;
  std::string model_cache;        // GoldenModel on-disk cache directory
  std::uint64_t fleet = 0;        // members in a fleet run (0 = one session)
  std::string schedule = "mux";   // serial | parallel | mux
  std::uint64_t pool = 0;         // mux worker-pool size (0 = auto)
  std::uint64_t seed = 1;
  std::string listen_spec;   // serve attestations on HOST:PORT
  std::string connect_spec;  // attest against a remote attestd
  bool list_attacks = false;
  bool help = false;
  bool metrics = false;       // print the telemetry snapshot after the run
  std::string trace_out;      // write the session Chrome trace here
  double trace_sample = -1.0; // wire-session head-sampling override
};

void print_help() {
  std::printf(
      "usage: sacha_cli [options]\n"
      "  --device small|softcore|virtex6   device model (default virtex6)\n"
      "  --order seq|offset|perm           readback order (default offset)\n"
      "  --attack NAME                     run an adversary (see --list-attacks)\n"
      "  --list-attacks                    print the adversary library\n"
      "  --latency-us N                    per-message channel latency\n"
      "  --jitter-us N                     uniform extra latency [0, N]\n"
      "  --loss P                          packet loss probability\n"
      "  --fault-plan SPEC                 inject faults (plain/signed runs);\n"
      "                                    SPEC is ';'-separated clauses:\n"
      "                                    burst=enter:exit:loss corrupt=p\n"
      "                                    crash=at[:reboot] stall=at:len\n"
      "                                    spike=p:max_us seu=flips\n"
      "  --update-manifest SPEC            run the attestation-gated OTA\n"
      "                                    pipeline: stage, sign, pre-attest,\n"
      "                                    activate, post-attest, commit (or\n"
      "                                    roll back); SPEC is\n"
      "                                    \"version=<v>;app=<name>:<seed>\"\n"
      "                                    (faults from --fault-plan arm in\n"
      "                                    every phase session)\n"
      "  --deadline-ms N                   abort the session after N simulated ms\n"
      "  --reliable                        ack + retransmit on loss\n"
      "  --frames-per-config N             frames per ICAP_config command\n"
      "  --frames-per-readback N           frames per ICAP_readback command\n"
      "                                    (N > 1 forces sequential order)\n"
      "  --model-cache DIR                 warm-start the golden model from\n"
      "                                    DIR (built + persisted on miss)\n"
      "  --fleet N                         attest a fleet of N devices\n"
      "  --schedule serial|parallel|mux    fleet schedule (default mux)\n"
      "  --pool K                          mux worker-pool size (0 = auto)\n"
      "  --listen HOST:PORT                run as an attestation service\n"
      "                                    (real sockets, one loop thread)\n"
      "  --connect HOST:PORT               attest this device (or --fleet N\n"
      "                                    members) against a remote attestd;\n"
      "                                    --loss drops responses, --latency-us\n"
      "                                    delays them\n"
      "  --signed                          hash-based signature mode\n"
      "  --seed N                          session/provisioning seed\n"
      "  --metrics                         print telemetry counters/histograms (JSON)\n"
      "  --trace-out FILE                  write the session timeline as a\n"
      "                                    Chrome trace_event JSON (chrome://tracing)\n"
      "  --trace-sample R                  head-sampling rate 0..1 for wire\n"
      "                                    sessions (default: SACHA_OBS_SAMPLE)\n"
      "  --help                            this text\n");
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help") {
      options.help = true;
    } else if (arg == "--list-attacks") {
      options.list_attacks = true;
    } else if (arg == "--reliable") {
      options.reliable = true;
    } else if (arg == "--signed") {
      options.signed_mode = true;
    } else if (arg == "--metrics") {
      options.metrics = true;
    } else if (arg == "--trace-out") {
      const char* v = next("--trace-out");
      if (!v) return false;
      options.trace_out = v;
    } else if (arg == "--trace-sample") {
      const char* v = next("--trace-sample");
      if (!v) return false;
      options.trace_sample = std::strtod(v, nullptr);
    } else if (arg == "--device") {
      const char* v = next("--device");
      if (!v) return false;
      options.device = v;
    } else if (arg == "--order") {
      const char* v = next("--order");
      if (!v) return false;
      options.order = v;
    } else if (arg == "--attack") {
      const char* v = next("--attack");
      if (!v) return false;
      options.attack = v;
    } else if (arg == "--latency-us") {
      const char* v = next("--latency-us");
      if (!v) return false;
      options.latency_us = std::strtoull(v, nullptr, 10);
    } else if (arg == "--jitter-us") {
      const char* v = next("--jitter-us");
      if (!v) return false;
      options.jitter_us = std::strtoull(v, nullptr, 10);
    } else if (arg == "--loss") {
      const char* v = next("--loss");
      if (!v) return false;
      options.loss = std::strtod(v, nullptr);
    } else if (arg == "--fault-plan") {
      const char* v = next("--fault-plan");
      if (!v) return false;
      options.fault_plan = v;
    } else if (arg == "--update-manifest") {
      const char* v = next("--update-manifest");
      if (!v) return false;
      options.update_manifest = v;
    } else if (arg == "--deadline-ms") {
      const char* v = next("--deadline-ms");
      if (!v) return false;
      options.deadline_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--frames-per-config") {
      const char* v = next("--frames-per-config");
      if (!v) return false;
      options.frames_per_config =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--frames-per-readback") {
      const char* v = next("--frames-per-readback");
      if (!v) return false;
      options.frames_per_readback =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--model-cache") {
      const char* v = next("--model-cache");
      if (!v) return false;
      options.model_cache = v;
    } else if (arg == "--fleet") {
      const char* v = next("--fleet");
      if (!v) return false;
      options.fleet = std::strtoull(v, nullptr, 10);
    } else if (arg == "--schedule") {
      const char* v = next("--schedule");
      if (!v) return false;
      options.schedule = v;
    } else if (arg == "--pool") {
      const char* v = next("--pool");
      if (!v) return false;
      options.pool = std::strtoull(v, nullptr, 10);
    } else if (arg == "--listen") {
      const char* v = next("--listen");
      if (!v) return false;
      options.listen_spec = v;
    } else if (arg == "--connect") {
      const char* v = next("--connect");
      if (!v) return false;
      options.connect_spec = v;
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      if (!v) return false;
      options.seed = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown option '%s' (try --help)\n", arg.c_str());
      return false;
    }
  }
  return true;
}

attacks::AttackEnv build_env(const CliOptions& options) {
  attacks::AttackEnv env = options.device == "virtex6"
                               ? attacks::AttackEnv::virtex6(options.seed)
                               : attacks::AttackEnv::small(options.seed);
  if (options.device == "softcore") {
    // Softcore device with a matching 2-partition floorplan.
    const auto device = fabric::DeviceModel::softcore_test_device();
    fabric::Floorplan plan(device);
    plan.add_partition({"StatPart",
                        fabric::PartitionKind::kStatic,
                        fabric::FrameRange{0, 6},
                        {.clb = 60, .bram18 = 4, .iob = 8, .dcm = 1, .icap = 1}});
    plan.add_partition({"DynPart",
                        fabric::PartitionKind::kDynamic,
                        fabric::FrameRange{6, 30},
                        {.clb = 340, .bram18 = 12, .iob = 24, .dcm = 1}});
    env.plan = std::move(plan);
  }
  if (options.order == "seq") {
    env.verifier_options.order = core::ReadbackOrder::kSequentialFromZero;
  } else if (options.order == "perm") {
    env.verifier_options.order = core::ReadbackOrder::kRandomPermutation;
  } else {
    env.verifier_options.order = core::ReadbackOrder::kSequentialFromOffset;
  }
  env.verifier_options.frames_per_config = options.frames_per_config;
  env.verifier_options.frames_per_readback = options.frames_per_readback;
  env.session_options.channel.per_command_latency =
      options.latency_us * sim::kMicrosecond;
  env.session_options.channel.jitter_max = options.jitter_us * sim::kMicrosecond;
  env.session_options.channel.loss_probability = options.loss;
  env.session_options.reliable = options.reliable;
  env.session_options.deadline = options.deadline_ms * sim::kMillisecond;
  env.session_options.seed = options.seed;
  return env;
}

void print_report(const core::AttestationReport& report) {
  std::printf("\n%-38s %10s %14s\n", "action", "count", "total");
  for (const std::string& action : report.ledger.actions()) {
    std::printf("%-38s %10llu %12.6f s\n", action.c_str(),
                static_cast<unsigned long long>(report.ledger.count(action)),
                sim::to_seconds(report.ledger.total(action)));
  }
  std::printf("\ncommands sent      : %llu (%llu retransmissions)\n",
              static_cast<unsigned long long>(report.commands_sent),
              static_cast<unsigned long long>(report.retransmissions));
  std::printf("theoretical time   : %.6f s\n",
              sim::to_seconds(report.theoretical_time));
  std::printf("total time         : %.6f s\n", sim::to_seconds(report.total_time));
  std::printf("verdict            : %s (%s)\n",
              report.verdict.ok() ? "ATTESTED" : "FAILED",
              report.verdict.detail.c_str());
  if (report.failure != core::FailureKind::kNone) {
    std::printf("failure            : %s%s\n", core::to_string(report.failure),
                report.deadline_hit ? " (deadline hit)" : "");
  }
  if (report.messages_lost > 0 || report.retransmissions > 0) {
    std::printf("transport          : %llu lost, %llu retransmitted, "
                "%.6f s in backoff\n",
                static_cast<unsigned long long>(report.messages_lost),
                static_cast<unsigned long long>(report.retransmissions),
                sim::to_seconds(report.backoff_wait));
  }
}

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

/// --listen: serve attestations over real sockets until SIGINT/SIGTERM or
/// stdin EOF.
int run_listen_mode(const CliOptions& options) {
  auto hostport = net::parse_host_port(options.listen_spec);
  if (!hostport.ok()) {
    std::fprintf(stderr, "--listen: %s\n", hostport.message().c_str());
    return 2;
  }
  obs::set_enabled(true);  // the /metrics endpoint needs the registry live
  net::AttestServerOptions server_options;
  server_options.host = hostport.value().host;
  server_options.port = hostport.value().port;
  server_options.trace_sample = options.trace_sample;
  net::AttestServer server(server_options);
  Status started = server.start();
  if (!started.ok()) {
    std::fprintf(stderr, "--listen: %s\n", started.message().c_str());
    return 1;
  }
  std::printf("listening on %s:%u; GET /metrics served; "
              "ctrl-c or stdin EOF to stop\n",
              server_options.host.c_str(), server.port());
  std::fflush(stdout);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  struct pollfd stdin_poll = {STDIN_FILENO, POLLIN, 0};
  while (g_stop == 0) {
    const int n = ::poll(&stdin_poll, 1, 500);
    if (n < 0 && errno != EINTR) break;
    if (n > 0 && (stdin_poll.revents & (POLLIN | POLLHUP)) != 0) {
      char buf[256];
      if (::read(STDIN_FILENO, buf, sizeof(buf)) <= 0) break;
    }
  }
  const net::AttestServerStats stats = server.stats();
  server.stop();
  std::printf("served             : %llu sessions (%llu attested, "
              "%llu quarantined)\n",
              static_cast<unsigned long long>(stats.sessions_completed),
              static_cast<unsigned long long>(stats.sessions_attested),
              static_cast<unsigned long long>(stats.quarantined));
  return 0;
}

/// --connect: run this device (or --fleet N members) as remote provers.
/// --loss becomes the response-drop shim, --latency-us the delay shim.
int run_connect_mode(const CliOptions& options) {
  auto hostport = net::parse_host_port(options.connect_spec);
  if (!hostport.ok()) {
    std::fprintf(stderr, "--connect: %s\n", hostport.message().c_str());
    return 2;
  }
  net::LoadOptions load;
  load.host = hostport.value().host;
  load.port = hostport.value().port;
  load.members = options.fleet > 0 ? options.fleet : 1;
  load.trace_sample = options.trace_sample;
  load.fleet.base_seed = options.seed;
  load.fleet.session_seed = options.seed;
  if (options.device == "softcore") {
    load.fleet.scale = net::DeviceScale::kSoftcore;
  } else if (options.device == "virtex6") {
    load.fleet.scale = net::DeviceScale::kVirtex6;
  } else {
    load.fleet.scale = net::DeviceScale::kSmall;
  }
  load.drop_probability = options.loss;
  load.delay_us = options.latency_us;
  const net::LoadResult result = net::run_load(load);
  for (const net::MemberOutcome& m : result.members) {
    if (!m.completed) {
      std::printf("  member %zu INCOMPLETE: %s\n", m.index, m.error.c_str());
      continue;
    }
    std::printf("  member %zu %s (%s, %.3f ms)\n", m.index,
                m.report.attested() ? "ATTESTED" : "FAILED",
                core::to_string(m.report.failure),
                static_cast<double>(m.latency_ns) / 1e6);
  }
  std::printf("remote attestation : %zu/%zu completed, %zu attested, "
              "%.3f s wall\n",
              result.completed, result.members.size(), result.attested,
              static_cast<double>(result.wall_ns) / 1e9);
  return result.all_completed() && result.attested == result.completed ? 0 : 1;
}

/// Telemetry emission for every path that ran a session.
void emit_telemetry(const CliOptions& options) {
  if (!options.trace_out.empty()) {
    if (obs::write_chrome_trace(options.trace_out)) {
      std::printf("trace              : wrote %s (open in chrome://tracing)\n",
                  options.trace_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write trace to '%s'\n",
                   options.trace_out.c_str());
    }
  }
  if (options.metrics) {
    std::printf("\n%s",
                obs::metrics_json(obs::MetricsRegistry::global().snapshot())
                    .c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_args(argc, argv, options)) return 2;
  if (options.help) {
    print_help();
    return 0;
  }
  if (options.list_attacks) {
    std::printf("available adversaries:\n");
    for (const auto& attack : attacks::standard_suite()) {
      std::printf("  %-18s %s\n", attack->name().c_str(),
                  attack->description().c_str());
    }
    return 0;
  }

  // Either telemetry flag turns the runtime toggle on for this process.
  if (options.metrics || !options.trace_out.empty()) obs::set_enabled(true);

  if (!options.listen_spec.empty()) return run_listen_mode(options);
  if (!options.connect_spec.empty()) return run_connect_mode(options);

  fault::FaultPlan fault_plan;
  if (!options.fault_plan.empty()) {
    auto parsed = fault::FaultPlan::parse(options.fault_plan);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.message().c_str());
      return 2;
    }
    fault_plan = std::move(parsed).take();
  }

  attacks::AttackEnv env = build_env(options);

  // Warm-start the golden model from the on-disk cache. shared_cached()
  // populates the process intern cache, so every verifier built below
  // (single session or fleet) picks this instance up instead of rebuilding.
  std::shared_ptr<const bitstream::GoldenModel> warm_model;
  if (!options.model_cache.empty()) {
    auto source = bitstream::GoldenModel::CacheSource::kBuilt;
    warm_model = bitstream::GoldenModel::shared_cached(
        env.plan, env.static_spec, env.app_spec, options.model_cache, &source);
    std::printf("model cache        : %s (%s)\n", options.model_cache.c_str(),
                source == bitstream::GoldenModel::CacheSource::kInterned
                    ? "interned hit"
                : source == bitstream::GoldenModel::CacheSource::kLoaded
                    ? "loaded from disk"
                    : "built + persisted");
  }

  // A schedule whose messages the wire cannot frame would fail every
  // session the same way: refuse it before running any. (Kept alive, this
  // verifier also keeps the interned golden model for the ones below.)
  core::SachaVerifier schedule_check = env.make_verifier();
  schedule_check.begin();
  if (const auto& rejected = schedule_check.schedule_error()) {
    std::fprintf(stderr,
                 "error: --frames-per-config %u / --frames-per-readback %u "
                 "cannot run: %s\n",
                 options.frames_per_config, options.frames_per_readback,
                 rejected->c_str());
    return 2;
  }

  std::printf("device=%s frames=%u order=%s latency=%lluus loss=%.3f%s%s\n",
              env.plan.device().name().c_str(), env.plan.device().total_frames(),
              options.order.c_str(),
              static_cast<unsigned long long>(options.latency_us), options.loss,
              options.reliable ? " reliable" : "",
              options.signed_mode ? " signed" : "");

  if (!options.update_manifest.empty()) {
    auto parsed = update::UpdateManifest::parse(options.update_manifest);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--update-manifest: %s\n",
                   parsed.message().c_str());
      return 2;
    }
    update::UpdateManifest manifest = std::move(parsed).take();
    // The stager's half: device type and payload digest come from a golden
    // model of the staged design on this device (what an OTA pipeline
    // computes before signing the artifact).
    attacks::AttackEnv staged = env;
    staged.app_spec = manifest.app;
    const core::SachaVerifier stager = staged.make_verifier();
    if (manifest.device_type.empty()) {
      manifest.device_type = stager.floorplan().device().name();
    }
    manifest.payload = update::payload_digest(*stager.golden_model());
    manifest.payload_bytes =
        update::payload_frame_bytes(*stager.golden_model());

    crypto::HashSigner signer(options.seed ^ 0x5157, 4);
    auto signed_manifest = update::sign_manifest(manifest, signer);
    if (!signed_manifest.ok()) {
      std::fprintf(stderr, "signing manifest: %s\n",
                   signed_manifest.message().c_str());
      return 2;
    }
    std::printf("manifest           : %s\n", manifest.describe().c_str());

    auto verifier = env.make_verifier();
    auto prover = env.make_prover();
    core::LeafPolicy policy;
    update::UpdateRunOptions run;
    run.session = env.session_options;
    run.session.seed = options.seed;
    std::deque<fault::FaultInjector> injectors;
    if (!fault_plan.empty()) {
      std::printf("fault plan         : %s\n", fault_plan.describe().c_str());
      run.configure = [&](core::SessionOptions& session,
                          core::SessionHooks& hooks, std::string_view phase,
                          std::uint32_t attempt) {
        injectors.emplace_back(fault_plan,
                               session.seed ^ (phase.size() + attempt));
        injectors.back().arm(session, hooks);
      };
    }
    const update::UpdateReport report = update::run_update(
        verifier, prover, signed_manifest.value(), signer.root(), policy,
        run);
    std::string trail;
    for (const auto& transition : report.trail) {
      if (trail.empty()) trail = update::to_string(transition.from);
      trail += std::string(" -> ") + update::to_string(transition.to);
    }
    std::printf("gate trail         : %s\n", trail.c_str());
    for (const auto& phase : report.phases) {
      std::printf("  %-16s %s (%u attempt%s)\n", phase.phase.c_str(),
                  phase.report.verdict.ok() ? "attested" : "FAILED",
                  phase.attempts, phase.attempts == 1 ? "" : "s");
    }
    std::printf("update             : %s v%llu%s\n",
                update::to_string(report.final_state),
                static_cast<unsigned long long>(report.version),
                report.final_state == update::UpdateState::kRolledBack
                    ? (report.old_image_attested
                           ? " (old image re-attested)"
                           : " (old image NOT attested)")
                    : "");
    emit_telemetry(options);
    return report.committed() ? 0 : 1;
  }

  if (!options.attack.empty()) {
    for (const auto& attack : attacks::standard_suite()) {
      if (attack->name() == options.attack) {
        const attacks::AttackOutcome outcome = attack->run(env);
        std::printf("\nattack '%s': %s\n  %s\n", outcome.name.c_str(),
                    attacks::to_string(outcome.result), outcome.evidence.c_str());
        emit_telemetry(options);
        return outcome.result == attacks::AttackResult::kUndetected ? 1 : 0;
      }
    }
    std::fprintf(stderr, "unknown attack '%s' (see --list-attacks)\n",
                 options.attack.c_str());
    return 2;
  }

  if (options.fleet > 0) {
    // Fleet mode: N independently provisioned devices attested under the
    // chosen schedule. The supervisor derives per-member session seeds
    // itself; the fault plan (if any) arms per member with its own stream.
    std::deque<attacks::AttackEnv> envs;
    std::deque<core::SachaVerifier> verifiers;
    std::deque<core::SachaProver> provers;
    std::deque<fault::FaultInjector> injectors;
    std::vector<core::SwarmMember> members;
    for (std::uint64_t i = 0; i < options.fleet; ++i) {
      CliOptions member_cli = options;
      member_cli.seed = options.seed + i;
      envs.push_back(build_env(member_cli));
      verifiers.push_back(envs.back().make_verifier());
      provers.push_back(envs.back().make_prover());
    }
    for (std::uint64_t i = 0; i < options.fleet; ++i) {
      core::SwarmMember member{"node-" + std::to_string(i), &verifiers[i],
                               &provers[i], {}};
      if (!fault_plan.empty()) {
        injectors.emplace_back(fault_plan, options.seed + i);
        fault::FaultInjector& injector = injectors.back();
        member.configure = [&injector](core::SessionOptions& session,
                                       core::SessionHooks& member_hooks,
                                       std::uint32_t) {
          injector.arm(session, member_hooks);
        };
      }
      members.push_back(std::move(member));
    }
    core::SwarmOptions swarm;
    swarm.session = env.session_options;
    swarm.schedule = options.schedule == "serial"
                         ? core::SwarmSchedule::kSerial
                     : options.schedule == "parallel"
                         ? core::SwarmSchedule::kParallel
                         : core::SwarmSchedule::kMultiplexed;
    swarm.engine.pool_size = static_cast<std::size_t>(options.pool);
    if (!fault_plan.empty()) {
      std::printf("fault plan         : %s\n", fault_plan.describe().c_str());
    }
    const core::SwarmReport report = core::attest_swarm(members, swarm);
    std::printf("\nfleet              : %llu members, schedule=%s\n",
                static_cast<unsigned long long>(options.fleet),
                options.schedule.c_str());
    std::printf("attested           : %zu/%zu (%zu healed, %zu quarantined)\n",
                report.attested, members.size(), report.healed,
                report.quarantined);
    std::printf("makespan           : %.6f s (total work %.6f s)\n",
                sim::to_seconds(report.makespan),
                sim::to_seconds(report.total_work));
    if (swarm.schedule == core::SwarmSchedule::kMultiplexed) {
      std::printf("engine             : pool=%zu, thread-per-member would be "
                  "%.6f s (overlap %.2fx)\n",
                  report.engine.pool_size,
                  sim::to_seconds(report.engine.thread_per_member_makespan),
                  report.engine.overlap_efficiency);
    }
    std::printf("golden models      : %zu distinct, %zu B shared\n",
                report.distinct_golden_models, report.golden_model_bytes);
    if (report.messages_lost > 0 || report.retransmissions > 0) {
      std::printf("transport          : %llu lost, %llu retransmitted, "
                  "%.6f s in backoff\n",
                  static_cast<unsigned long long>(report.messages_lost),
                  static_cast<unsigned long long>(report.retransmissions),
                  sim::to_seconds(report.backoff_wait));
    }
    for (const auto& member : report.members) {
      if (!member.verdict.ok()) {
        std::printf("  %-10s FAILED: %s\n", member.id.c_str(),
                    member.verdict.detail.c_str());
      }
    }
    emit_telemetry(options);
    return report.all_attested() ? 0 : 1;
  }

  auto verifier = env.make_verifier();
  auto prover = env.make_prover();
  // Arm the fault plan on the honest session (attacks bring their own
  // hooks; the plan composes with them only through build_env's channel).
  fault::FaultInjector injector(fault_plan, options.seed);
  core::SessionHooks hooks;
  injector.arm(env.session_options, hooks);
  if (!fault_plan.empty()) {
    std::printf("fault plan         : %s\n", fault_plan.describe().c_str());
  }
  if (options.signed_mode) {
    crypto::HashSigner signer(options.seed ^ 0x5160, 4);
    core::LeafPolicy policy;
    const auto report = core::run_signed_attestation(
        verifier, prover, signer, signer.root(), 4, policy,
        env.session_options, hooks);
    print_report(report.base);
    std::printf("signature          : %s (leaf %u)\n",
                report.signature_ok && report.leaf_fresh ? "VALID" : "INVALID",
                report.leaf_index);
    emit_telemetry(options);
    return report.ok() ? 0 : 1;
  }
  const auto report =
      core::run_attestation(verifier, prover, env.session_options, hooks);
  print_report(report);
  std::printf("trace id           : %s\n",
              obs::to_string(report.trace_id).c_str());
  emit_telemetry(options);
  return report.verdict.ok() ? 0 : 1;
}
