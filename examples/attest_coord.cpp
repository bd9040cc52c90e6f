// attest_coord — sharded attestation front door.
//
// Forks N attestd shard processes, consistent-hashes device ids onto them,
// and serves one well-known endpoint: every HELLO gets a redirect
// HELLO_ACK naming the owning shard, and the prover reconnects there.
// /statusz shows the shard table and the fleet Merkle root (every shard's
// hash-chained audit head folded into one digest); /metrics re-exports the
// union of every shard's scrape plus the routing counters.
//
//   ./attest_coord --port 7460 --shards 4 --model-cache /tmp/sgm &
//   ./attest_load --connect 127.0.0.1:7460 --members 256
//   curl http://127.0.0.1:7460/statusz
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "shard/coordinator.hpp"

using namespace sacha;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = g_stop + 1; }

void print_help() {
  std::printf(
      "usage: attest_coord [options]\n"
      "  --host ADDR        bind address (default 127.0.0.1)\n"
      "  --port N           front-door port (default 0 = ephemeral)\n"
      "  --shards N         shard processes to fork (default 2)\n"
      "  --vnodes N         virtual nodes per shard on the ring (default 64)\n"
      "  --timeout-ms N     idle session cut-off inside shards\n"
      "  --model-cache DIR  shared golden-model .sgm cache directory\n"
      "  --no-model-map     heap-load cached models instead of mmap\n"
      "  --health-ms N      control-thread cadence (default 200)\n"
      "  --help             this text\n"
      "HTTP (front door): /metrics /healthz /statusz\n");
}

}  // namespace

int main(int argc, char** argv) {
  shard::CoordinatorOptions options;
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
    } else if (arg == "--shards") {
      options.shards = std::strtoull(next("--shards"), nullptr, 10);
    } else if (arg == "--vnodes") {
      options.vnodes = std::strtoull(next("--vnodes"), nullptr, 10);
    } else if (arg == "--timeout-ms") {
      options.session_timeout_ms =
          std::strtoull(next("--timeout-ms"), nullptr, 10);
    } else if (arg == "--model-cache") {
      options.model_cache_dir = next("--model-cache");
    } else if (arg == "--no-model-map") {
      options.model_map = false;
    } else if (arg == "--health-ms") {
      options.health_interval_ms =
          std::strtoull(next("--health-ms"), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown option '%s' (try --help)\n", arg.c_str());
      return 2;
    }
  }

  // A coordinator exists to be scraped: turn telemetry on before forking
  // shards so the children inherit the flag (same stance as attestd).
  obs::set_enabled(true);

  shard::ShardCoordinator coordinator(options);
  Status started = coordinator.start();
  if (!started.ok()) {
    std::fprintf(stderr, "attest_coord: %s\n", started.message().c_str());
    return 1;
  }
  std::printf("attest_coord listening on %s:%u (%zu shards:",
              options.host.c_str(), coordinator.port(),
              coordinator.shard_count());
  for (std::size_t i = 0; i < coordinator.shard_count(); ++i) {
    std::printf(" %u", coordinator.shard(i).port);
  }
  std::printf(")\n");
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // Park until a signal arrives or stdin closes (same shutdown handle as
  // attestd: the smoke test pipes into the process and closes the end).
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

  const shard::FleetRollup rollup = coordinator.rollup();
  const shard::CoordinatorStats stats = coordinator.stats();
  coordinator.stop();
  std::string root_hex = to_hex(
      ByteSpan(rollup.root.data(), rollup.root.size()));
  std::printf(
      "attest_coord: %llu accepted (%llu redirected), "
      "%llu http, %llu shards lost; fleet root %s over %zu shards "
      "(%llu audit entries)\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.redirects),
      static_cast<unsigned long long>(stats.http_requests),
      static_cast<unsigned long long>(stats.shards_lost), root_hex.c_str(),
      rollup.shards_covered,
      static_cast<unsigned long long>(rollup.audit_entries));
  return 0;
}
