// attest_load — fleet load generator for a running attestd.
//
// Replays an N-member provisioned fleet against the service from a single
// event-loop process: every member is a real TCP connection running the
// full wire protocol, with optional socket-level fault shims (drop or
// delay responses, abrupt disconnects). Exits nonzero when any member
// fails to complete, so it doubles as the loopback smoke check in CI.
//
//   ./attest_load --connect 127.0.0.1:7460 --members 64 --tamper 1,3
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "crypto/merkle.hpp"
#include "core/signed_attest.hpp"
#include "net/attest_client.hpp"
#include "net/tcp.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "update/manifest.hpp"

using namespace sacha;

namespace {

void print_help() {
  std::printf(
      "usage: attest_load --connect HOST:PORT [options]\n"
      "  --members N        fleet size (default 16)\n"
      "  --concurrency N    connections in flight at once (default 0 = all)\n"
      "  --device small|softcore|virtex6|mixed\n"
      "                     member device scale (default small; mixed =\n"
      "                     alternate small/softcore by parity)\n"
      "  --seed N           provisioning base seed (default 42)\n"
      "  --session-seed N   fleet session seed (default 1)\n"
      "  --tamper LIST      comma-separated member indexes tampered\n"
      "                     post-configuration\n"
      "  --drop P           drop each response with probability P\n"
      "  --delay-us N       hold each response N microseconds\n"
      "  --disconnect I:K   member I closes abruptly after K responses\n"
      "                     (repeatable)\n"
      "  --timeout-ms N     per-member watchdog (default 30000)\n"
      "  --trace-sample R   head-sampling rate 0..1 (enables telemetry;\n"
      "                     default: keep SACHA_OBS / SACHA_OBS_SAMPLE)\n"
      "  --trace-out PATH   write the client-side spans as a Chrome trace\n"
      "                     (chrome://tracing / Perfetto)\n"
      "  --update-signer-seed N\n"
      "                     trust OTA offers signed by this operator\n"
      "                     identity (attestd's --update-signer-seed);\n"
      "                     offers are refused without it\n"
      "  --help             this text\n");
}

bool parse_scale(const std::string& v, net::FleetSpec& fleet) {
  if (v == "small") {
    fleet.scale = net::DeviceScale::kSmall;
  } else if (v == "softcore") {
    fleet.scale = net::DeviceScale::kSoftcore;
  } else if (v == "virtex6") {
    fleet.scale = net::DeviceScale::kVirtex6;
  } else if (v == "mixed") {
    fleet.mixed = true;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  net::LoadOptions options;
  std::string connect_spec;
  std::string trace_out;
  std::uint64_t update_signer_seed = 0;
  bool trust_updates = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help") {
      print_help();
      return 0;
    } else if (arg == "--connect") {
      connect_spec = next("--connect");
    } else if (arg == "--members") {
      options.members = std::strtoull(next("--members"), nullptr, 10);
    } else if (arg == "--concurrency") {
      options.concurrency = std::strtoull(next("--concurrency"), nullptr, 10);
    } else if (arg == "--device") {
      if (!parse_scale(next("--device"), options.fleet)) {
        std::fprintf(stderr, "bad --device (try --help)\n");
        return 2;
      }
    } else if (arg == "--seed") {
      options.fleet.base_seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (arg == "--session-seed") {
      options.fleet.session_seed =
          std::strtoull(next("--session-seed"), nullptr, 10);
    } else if (arg == "--tamper") {
      std::string list = next("--tamper");
      for (char* tok = std::strtok(list.data(), ","); tok != nullptr;
           tok = std::strtok(nullptr, ",")) {
        options.tampered.insert(std::strtoull(tok, nullptr, 10));
      }
    } else if (arg == "--drop") {
      options.drop_probability = std::strtod(next("--drop"), nullptr);
    } else if (arg == "--delay-us") {
      options.delay_us = std::strtoull(next("--delay-us"), nullptr, 10);
    } else if (arg == "--disconnect") {
      const std::string spec = next("--disconnect");
      const auto colon = spec.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--disconnect wants I:K\n");
        return 2;
      }
      options.disconnect_after[std::strtoull(spec.c_str(), nullptr, 10)] =
          std::strtoull(spec.c_str() + colon + 1, nullptr, 10);
    } else if (arg == "--timeout-ms") {
      options.timeout_ms = std::strtoull(next("--timeout-ms"), nullptr, 10);
    } else if (arg == "--trace-sample") {
      options.trace_sample = std::strtod(next("--trace-sample"), nullptr);
      obs::set_enabled(true);  // sampling a disabled tracer keeps nothing
    } else if (arg == "--trace-out") {
      trace_out = next("--trace-out");
      obs::set_enabled(true);
    } else if (arg == "--update-signer-seed") {
      update_signer_seed =
          std::strtoull(next("--update-signer-seed"), nullptr, 10);
      trust_updates = true;
    } else {
      std::fprintf(stderr, "unknown option '%s' (try --help)\n", arg.c_str());
      return 2;
    }
  }
  if (connect_spec.empty()) {
    std::fprintf(stderr, "attest_load: --connect HOST:PORT is required\n");
    return 2;
  }
  auto hostport = net::parse_host_port(connect_spec);
  if (!hostport.ok()) {
    std::fprintf(stderr, "attest_load: %s\n", hostport.message().c_str());
    return 2;
  }
  options.host = hostport.value().host;
  options.port = hostport.value().port;

  if (trust_updates) {
    // Each member plays an independent device trusting the same operator
    // root, so the one-time-leaf policy is fresh per offer: every device
    // verifying the same signed artifact sees its leaf for the first time.
    crypto::HashSigner trust(update_signer_seed, /*height=*/4);
    const crypto::Sha256Digest root = trust.root();
    options.on_update_offer =
        [root](const net::UpdateOfferMsg& offer) -> net::UpdateStatusMsg {
      net::UpdateStatusMsg status;
      status.version = offer.version;
      auto signed_manifest = update::SignedManifest::decode(offer.manifest);
      if (!signed_manifest.ok()) {
        status.state = "Idle";
        status.detail = "manifest decode: " + signed_manifest.message();
        return status;
      }
      core::LeafPolicy device_policy;
      const update::ManifestCheck check = update::verify_manifest(
          signed_manifest.value(), root, device_policy, /*device_type=*/"");
      status.accepted = check.ok();
      status.state = check.ok() ? "Staged" : "Idle";
      status.detail = check.ok() ? "manifest verified" : check.detail;
      return status;
    };
  }

  const net::LoadResult result = net::run_load(options);

  std::size_t tampered_caught = 0;
  for (const net::MemberOutcome& m : result.members) {
    const bool expected_fail = options.tampered.count(m.index) > 0 ||
                               options.disconnect_after.count(m.index) > 0;
    if (m.completed && !m.report.attested() &&
        options.tampered.count(m.index) > 0) {
      ++tampered_caught;
    }
    if (!m.completed && !expected_fail) {
      std::fprintf(stderr, "  member %zu incomplete: %s\n", m.index,
                   m.error.c_str());
    }
  }
  const double seconds = static_cast<double>(result.wall_ns) / 1e9;
  std::printf(
      "attest_load: %zu members, %zu completed, %zu attested "
      "(%zu/%zu tampered caught), peak %zu concurrent, %.3f s "
      "(%.1f attestations/s)\n",
      result.members.size(), result.completed, result.attested,
      tampered_caught, options.tampered.size(), result.peak_concurrent,
      seconds, seconds > 0 ? static_cast<double>(result.completed) / seconds
                           : 0.0);
  if (result.updates_offered > 0) {
    std::printf("attest_load: %zu update offers, %zu accepted\n",
                result.updates_offered, result.updates_accepted);
  }

  if (!trace_out.empty()) {
    std::size_t sampled = 0;
    for (const net::MemberOutcome& m : result.members) {
      if (m.sampled) ++sampled;
    }
    if (obs::write_chrome_trace(trace_out)) {
      std::printf("attest_load: %zu sampled timelines -> %s\n", sampled,
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "attest_load: failed to write %s\n",
                   trace_out.c_str());
    }
  }

  // Members we deliberately cut off never complete; everyone else must.
  const std::size_t expected_completed =
      result.members.size() -
      [&] {
        std::size_t cut = 0;
        for (const auto& [index, after] : options.disconnect_after) {
          if (index < result.members.size()) ++cut;
        }
        return cut;
      }();
  return result.completed >= expected_completed ? 0 : 1;
}
