// attestd: the attestation service core.
//
// One event-loop thread owns every socket and runs every session to
// completion: it accepts provers off the listener (epoll), assembles wire
// frames from nonblocking reads, issues each session's pipelined command
// window, absorbs each RESPONSE into the session's VerifierSession as it
// arrives (streaming CMAC fold + masked compare), and, once the last one
// is in, finishes the session, appends the audit entry and writes the
// REPORT. A session's verify is serial (the MAC folds frames in the
// verifier's order), so a second thread would only add hand-offs; the loop
// shares its one thread among many sessions, as the client loop does.
// Hosts that need more cores run several attestd processes on one port
// (`reuseport`) or behind the shard coordinator.
//
// A connection whose first byte opens an HTTP request line (net/http.hpp)
// is served on the loop thread and closed: /metrics (Prometheus text),
// /healthz (event-loop liveness, sessions in flight), /statusz
// (per-connection state table, recent quarantines, uptime and tier info
// as JSON), /tracez (ring of the most recent sampled cross-process
// timelines). A prover that vanishes mid-session is quarantined — counted,
// logged, its slot reclaimed — never a crash or a leaked session; one whose
// evidence is complete always gets its verdict, even if it closes without
// reading the REPORT. Every finished session writes one structured
// access-log line and feeds the SLO tracker (latency objective +
// error-budget gauges).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/result.hpp"
#include "crypto/sha256.hpp"
#include "net/provision.hpp"

namespace sacha::net {

struct AttestServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Ignored: every session runs on the loop thread. pool_size and
  /// verify_batch_width are kept only because the benchmark's workloads
  /// assign them; they go with the next benchmark revision.
  std::size_t pool_size = 0;
  std::size_t verify_batch_width = 4;
  /// Commands in flight per session before waiting for responses. The
  /// schedule is frozen at HELLO, so pipelining is free; the window bounds
  /// per-connection kernel buffer occupancy at fleet scale.
  std::size_t command_window = 32;
  /// Idle cut-off per connection: no bytes in either direction for this
  /// long and the session is quarantined as kTimeoutExhausted (0 = never).
  std::uint64_t session_timeout_ms = 30000;
  int listen_backlog = 1024;
  /// Bind with SO_REUSEPORT so several attestd processes can accept on one
  /// port (kernel-level connection spreading; the shard layer's fallback
  /// when no coordinator fronts the fleet). Hard error where unsupported.
  bool reuseport = false;
  /// Golden-model disk cache (`.sgm` files). Empty = every verifier builds
  /// or interns its model in-process; set = provisioning goes through
  /// GoldenModel::shared_cached (intern -> disk -> build+save).
  std::string model_cache_dir;
  /// With model_cache_dir: map cached models MAP_SHARED instead of heap-
  /// loading them, so colocated shard processes share one page-cache copy
  /// of the flat tables. No-op off Linux / under SACHA_PORTABLE.
  bool model_map = false;
  /// Serve HTTP (GET/HEAD /metrics /healthz /statusz /tracez) on the same
  /// port.
  bool metrics_endpoint = true;
  /// Head-sampling rate override: >= 0 sets obs::Sampler::global() at
  /// start() (0 = trace nothing, 1 = everything); negative leaves the
  /// process-wide rate (SACHA_OBS_SAMPLE) untouched. The client's HELLO
  /// decision still wins per session; this knob covers server-initiated
  /// tooling and keeps the two processes' flags settable from one place.
  double trace_sample = -1.0;
  /// SLO: sessions slower than this (or failed) burn error budget.
  std::uint64_t slo_latency_ms = 250;
  /// SLO: target good fraction (error budget = 1 - target).
  double slo_target = 0.999;
  /// Sampled cross-process timelines retained for /tracez.
  std::size_t tracez_capacity = 32;
  /// Staged OTA offer: an update::SignedManifest::encode() blob, offered
  /// (UPDATE_OFFER) after every PASSING session. Empty = no update
  /// staged. Opaque here: sacha_net sits below
  /// sacha_update, so the server ships bytes and counts answers; the
  /// receiving client verifies the signature against its own trusted root.
  Bytes update_offer{};
  /// Manifest version advertised with the offer (for logs and refusals).
  std::uint64_t update_version = 0;
};

struct AttestServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_attested = 0;
  std::uint64_t sessions_failed = 0;
  /// Sessions quarantined because the peer vanished or the stream broke
  /// (disconnect, poisoned framing, idle timeout).
  std::uint64_t quarantined = 0;
  std::uint64_t http_requests = 0;
  /// Connections open right now.
  std::uint64_t active_connections = 0;
  /// Sessions whose HELLO was accepted and whose verdict has not been sent
  /// yet: what a drain lets finish.
  std::uint64_t sessions_active = 0;
  /// Largest concurrent-connection count observed.
  std::uint64_t peak_connections = 0;
  /// Always 0: there are no verify lanes. Kept only because the
  /// benchmark's workloads read them; they go with the next benchmark
  /// revision.
  std::uint64_t verify_steals = 0;
  std::uint64_t verify_batches = 0;
  /// OTA offer accounting (update_offer staged in the options).
  std::uint64_t updates_offered = 0;
  std::uint64_t updates_accepted = 0;
  std::uint64_t updates_rejected = 0;
  /// HELLOs refused because the server was draining.
  std::uint64_t drain_refusals = 0;
  /// Golden-model provisioning by cache tier (ModelCacheConfig path):
  /// process intern hit / disk load (heap) / disk load (mmap) / fresh build.
  std::uint64_t models_interned = 0;
  std::uint64_t models_loaded = 0;
  std::uint64_t models_mapped = 0;
  std::uint64_t models_built = 0;
  /// Hash-chained audit entries recorded (== completed sessions).
  std::uint64_t audit_entries = 0;
  bool draining = false;
};

class AttestServer {
 public:
  explicit AttestServer(const AttestServerOptions& options = {});
  ~AttestServer();
  AttestServer(const AttestServer&) = delete;
  AttestServer& operator=(const AttestServer&) = delete;

  /// Binds, listens, and starts the loop thread.
  Status start();
  /// Stops the loop thread, closes every connection and releases the
  /// golden models the server provisioned. Idempotent.
  void stop();

  /// Graceful shutdown, phase one: refuse new HELLOs (typed ERROR,
  /// kDeviceError "draining"), keep serving HTTP (healthz reports
  /// "draining"), and let in-flight sessions run to completion — bounded
  /// by `drain_ms` (0 = unbounded), after which stragglers are closed and
  /// quarantined. Non-blocking; poll drained() then call stop().
  void begin_drain(std::uint64_t drain_ms);
  bool draining() const;
  /// True once draining and no session connections remain.
  bool drained() const;

  /// Bound port (valid after start(); the ephemeral-port answer).
  std::uint16_t port() const { return port_; }
  AttestServerStats stats() const;

  /// Head digest of the server's hash-chained audit log (all-zero before
  /// any session completed). The shard coordinator folds every shard's
  /// head into the fleet Merkle root; exposed in /statusz as hex too.
  crypto::Sha256Digest audit_head() const;
  /// Recomputes the audit chain; false if history was tampered with.
  bool audit_verify() const;

 private:
  struct Impl;
  Impl* impl_ = nullptr;
  AttestServerOptions options_;
  std::uint16_t port_ = 0;
};

}  // namespace sacha::net
