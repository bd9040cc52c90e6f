// attestd — the standalone attestation service.
//
// Binds a real TCP port, multiplexes every prover connection on one epoll
// loop, and verifies sessions on a fleet-engine-style worker pool. Serves
// Prometheus metrics on the same port ("GET /metrics").
//
// Shutdown is graceful: the first SIGINT / SIGTERM (or stdin EOF) begins a
// drain — new HELLOs are refused with a typed ERROR, /healthz reports
// "draining", and in-flight sessions run to completion, bounded by
// --drain-ms — then the process exits 0 with the service counters. A
// second signal skips the drain and stops immediately.
//
// With --update-manifest the daemon stages a signed OTA offer: the spec is
// parsed, signed with the operator identity derived from
// --update-signer-seed, and offered (UPDATE_OFFER) after every passing
// session.
//
//   ./attestd --port 7460 --update-manifest "version=2;app=app-v2:7" &
//   ./attest_load --connect 127.0.0.1:7460 --members 64
//   curl http://127.0.0.1:7460/metrics
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "crypto/merkle.hpp"
#include "net/attest_server.hpp"
#include "obs/export.hpp"
#include "update/manifest.hpp"

using namespace sacha;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = g_stop + 1; }

void print_help() {
  std::printf(
      "usage: attestd [options]\n"
      "  --host ADDR        bind address (default 127.0.0.1)\n"
      "  --port N           listen port (default 0 = ephemeral; printed)\n"
      "  --pool K           verify workers (default 0 = auto)\n"
      "  --batch-width N    members per CMAC batch drain, 1-8 (default 4)\n"
      "  --window N         pipelined commands per session (default 32)\n"
      "  --timeout-ms N     idle session cut-off (default 30000, 0 = never)\n"
      "  --reuseport        bind with SO_REUSEPORT (several attestd\n"
      "                     processes can accept on one port)\n"
      "  --model-cache DIR  golden-model .sgm disk cache directory\n"
      "  --model-map        mmap cached models (share page cache across\n"
      "                     colocated shard processes)\n"
      "  --no-metrics       disable the HTTP endpoints\n"
      "  --trace-sample R   head-sampling rate 0..1 (default: keep the\n"
      "                     process rate from SACHA_OBS_SAMPLE)\n"
      "  --slo-latency-ms N SLO latency objective (default 250, 0 = off)\n"
      "  --slo-target P     SLO good-fraction target (default 0.999)\n"
      "  --tracez N         sampled timelines kept for /tracez (default 32)\n"
      "  --drain-ms N       graceful-shutdown bound: in-flight sessions get\n"
      "                     this long after SIGTERM (default 5000, 0 = wait\n"
      "                     forever)\n"
      "  --update-manifest S stage a signed OTA offer; S is\n"
      "                     \"version=<v>;app=<name>:<seed>[;device=<type>]\"\n"
      "  --update-signer-seed N  operator signing identity seed (default 31)\n"
      "  --help             this text\n"
      "HTTP (same port): /metrics /healthz /statusz /tracez\n");
}

}  // namespace

int main(int argc, char** argv) {
  net::AttestServerOptions options;
  std::uint64_t drain_ms = 5000;
  std::string update_spec;
  std::uint64_t update_signer_seed = 31;
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
    } else if (arg == "--host") {
      options.host = next("--host");
    } else if (arg == "--port") {
      options.port =
          static_cast<std::uint16_t>(std::strtoul(next("--port"), nullptr, 10));
    } else if (arg == "--pool") {
      options.pool_size = std::strtoull(next("--pool"), nullptr, 10);
    } else if (arg == "--batch-width") {
      options.verify_batch_width =
          std::strtoull(next("--batch-width"), nullptr, 10);
    } else if (arg == "--window") {
      options.command_window = std::strtoull(next("--window"), nullptr, 10);
    } else if (arg == "--timeout-ms") {
      options.session_timeout_ms =
          std::strtoull(next("--timeout-ms"), nullptr, 10);
    } else if (arg == "--reuseport") {
      options.reuseport = true;
    } else if (arg == "--model-cache") {
      options.model_cache_dir = next("--model-cache");
    } else if (arg == "--model-map") {
      options.model_map = true;
    } else if (arg == "--no-metrics") {
      options.metrics_endpoint = false;
    } else if (arg == "--trace-sample") {
      options.trace_sample = std::strtod(next("--trace-sample"), nullptr);
    } else if (arg == "--slo-latency-ms") {
      options.slo_latency_ms =
          std::strtoull(next("--slo-latency-ms"), nullptr, 10);
    } else if (arg == "--slo-target") {
      options.slo_target = std::strtod(next("--slo-target"), nullptr);
    } else if (arg == "--tracez") {
      options.tracez_capacity = std::strtoull(next("--tracez"), nullptr, 10);
    } else if (arg == "--drain-ms") {
      drain_ms = std::strtoull(next("--drain-ms"), nullptr, 10);
    } else if (arg == "--update-manifest") {
      update_spec = next("--update-manifest");
    } else if (arg == "--update-signer-seed") {
      update_signer_seed =
          std::strtoull(next("--update-signer-seed"), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown option '%s' (try --help)\n", arg.c_str());
      return 2;
    }
  }

  // The /metrics endpoint is only useful with the registry recording.
  obs::set_enabled(true);

  if (!update_spec.empty()) {
    auto manifest = update::UpdateManifest::parse(update_spec);
    if (!manifest.ok()) {
      std::fprintf(stderr, "attestd: --update-manifest: %s\n",
                   manifest.message().c_str());
      return 2;
    }
    crypto::HashSigner signer(update_signer_seed, /*height=*/4);
    auto signed_manifest = update::sign_manifest(manifest.value(), signer);
    if (!signed_manifest.ok()) {
      std::fprintf(stderr, "attestd: signing manifest: %s\n",
                   signed_manifest.message().c_str());
      return 2;
    }
    options.update_offer = signed_manifest.value().encode();
    options.update_version = manifest.value().version;
    std::printf("attestd staged update: %s\n",
                manifest.value().describe().c_str());
  }

  net::AttestServer server(options);
  Status started = server.start();
  if (!started.ok()) {
    std::fprintf(stderr, "attestd: %s\n", started.message().c_str());
    return 1;
  }
  std::printf("attestd listening on %s:%u\n", options.host.c_str(),
              server.port());
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // Park until a signal arrives or stdin closes (the smoke test's shutdown
  // handle: it pipes into attestd and closes the write end).
  struct pollfd stdin_poll = {STDIN_FILENO, POLLIN, 0};
  while (g_stop == 0) {
    const int n = ::poll(&stdin_poll, 1, 500);
    if (n < 0 && errno != EINTR) break;
    if (n > 0 && (stdin_poll.revents & (POLLIN | POLLHUP)) != 0) {
      char buf[256];
      const ssize_t got = ::read(STDIN_FILENO, buf, sizeof(buf));
      if (got <= 0) break;  // EOF: shut down
    }
  }

  // Graceful drain: refuse new HELLOs, let in-flight sessions finish
  // (bounded by --drain-ms; the server quarantines stragglers past the
  // deadline). A second signal skips straight to stop().
  server.begin_drain(drain_ms);
  std::printf("attestd draining (%llu ms bound)...\n",
              static_cast<unsigned long long>(drain_ms));
  std::fflush(stdout);
  while (!server.drained() && g_stop < 2) {
    struct timespec nap = {0, 50 * 1000 * 1000};
    ::nanosleep(&nap, nullptr);
  }

  const net::AttestServerStats stats = server.stats();
  server.stop();
  std::printf(
      "attestd: %llu accepted, %llu completed (%llu attested, %llu failed), "
      "%llu quarantined, %llu http, peak %llu connections, "
      "%llu batches (%llu steals), %llu offers (%llu accepted), "
      "%llu drain refusals\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.sessions_completed),
      static_cast<unsigned long long>(stats.sessions_attested),
      static_cast<unsigned long long>(stats.sessions_failed),
      static_cast<unsigned long long>(stats.quarantined),
      static_cast<unsigned long long>(stats.http_requests),
      static_cast<unsigned long long>(stats.peak_connections),
      static_cast<unsigned long long>(stats.verify_batches),
      static_cast<unsigned long long>(stats.verify_steals),
      static_cast<unsigned long long>(stats.updates_offered),
      static_cast<unsigned long long>(stats.updates_accepted),
      static_cast<unsigned long long>(stats.drain_refusals));
  return 0;
}
