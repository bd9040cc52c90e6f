// Sharded verifier coordinator: one front door, N attestd shard processes.
//
// A single attestd scales to one process's cores; a fleet of a million
// devices wants several verifier processes on the host without giving up
// the single well-known endpoint or the single trust summary. The
// coordinator provides both:
//
//  - Routing. Device ids are consistent-hashed (HashRing, virtual nodes)
//    onto N forked shard processes, each a full AttestServer on its own
//    ephemeral port. Every HELLO is answered with a redirect HELLO_ACK
//    naming the owning shard; the prover reconnects there (one extra
//    round-trip at session start, then zero coordinator involvement). A
//    front-door connection gets exactly one reply — that redirect, a typed
//    ERROR, or an HTTP response — and closes, so the coordinator never
//    carries session traffic.
//  - Repair. A control thread reaps dead shard children (waitpid) and
//    probes /statusz liveness; a shard that dies or stops answering is
//    removed from the ring — consistent hashing moves only its ~1/N of
//    the device space to the survivors — and accounted in shards_lost,
//    quarantine-style (recorded, logged, never a coordinator crash).
//  - Rollup. Each shard hash-chains its sessions into an audit log; the
//    coordinator folds every shard's chain head into one fleet Merkle
//    root (crypto::merkle_root), so "what did this host attest" is a
//    single digest covering every shard's tamper-evident history. The
//    /metrics endpoint re-exports the union of every shard's scrape
//    (counters summed, histogram buckets merged) plus the coordinator's
//    own routing counters; /statusz shows the shard table, the ring, and
//    the fleet root.
//
// start() forks the shard children BEFORE creating any coordinator thread
// — call it from a single-threaded process (attest_coord's main, a test's
// main thread) like any fork-based supervisor.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "crypto/sha256.hpp"
#include "shard/hash_ring.hpp"

namespace sacha::shard {

struct CoordinatorOptions {
  std::string host = "127.0.0.1";
  /// Coordinator (front-door) port; 0 = ephemeral, read back via port().
  std::uint16_t port = 0;
  /// Shard processes to fork. Each is a full attestd on an ephemeral port.
  std::size_t shards = 2;
  /// Virtual nodes per shard on the hash ring.
  std::size_t vnodes = 64;
  /// Verify workers per shard (0 = auto). On a small host pin this to 1:
  /// the shards are the parallelism.
  std::size_t shard_pool = 1;
  /// Members per CMAC batch drain inside each shard.
  std::size_t verify_batch_width = 4;
  /// Idle session cut-off inside each shard (ms, 0 = never).
  std::uint64_t session_timeout_ms = 30000;
  /// Golden-model `.sgm` cache directory shared by every shard; with
  /// model_map the shards mmap the cached models MAP_SHARED, so the ~MB
  /// flat tables exist once in page cache instead of once per process.
  std::string model_cache_dir;
  bool model_map = true;
  /// Control-thread cadence: child reaping, /statusz health probes,
  /// metric scrapes, fleet-root refresh.
  std::uint64_t health_interval_ms = 200;
  /// Consecutive failed health probes (process still alive) before a shard
  /// is declared wedged, killed, and removed from the ring.
  std::size_t probe_failure_limit = 15;
  int listen_backlog = 1024;
};

/// Snapshot of one shard's state as the coordinator last saw it.
struct ShardInfo {
  std::size_t index = 0;
  pid_t pid = -1;
  std::uint16_t port = 0;
  bool alive = false;
  /// At least one /statusz scrape succeeded (the fields below are real).
  bool scraped = false;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_attested = 0;
  std::uint64_t audit_entries = 0;
  /// Head digest of the shard's hash-chained audit log — the shard's leaf
  /// in the fleet Merkle root. Survives the shard's death (last scrape).
  crypto::Sha256Digest audit_head{};
};

struct CoordinatorStats {
  /// Connections accepted on the front door.
  std::uint64_t accepted = 0;
  /// HELLOs answered with a shard redirect.
  std::uint64_t redirects = 0;
  std::uint64_t http_requests = 0;
  /// Shards removed from the ring (child exit or probe failure).
  std::uint64_t shards_lost = 0;
  /// Front-door connections open right now (not yet answered, or flushing
  /// their one reply).
  std::uint64_t active = 0;
};

/// Host-level attestation summary: the Merkle root over every shard's
/// audit chain head, leaves in shard-index order.
struct FleetRollup {
  crypto::Sha256Digest root{};
  std::vector<crypto::Sha256Digest> leaves;
  /// Shards contributing a leaf (every shard that ever reported a head —
  /// a dead shard's last-known head stays covered).
  std::size_t shards_covered = 0;
  /// Sum of audit entries across the covered shards.
  std::uint64_t audit_entries = 0;
};

class ShardCoordinator {
 public:
  explicit ShardCoordinator(const CoordinatorOptions& options = {});
  ~ShardCoordinator();
  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Forks the shards, builds the ring, binds the front door, starts the
  /// loop + control threads. Fork happens first — call single-threaded.
  Status start();
  /// Stops the threads, closes every connection, shuts the shards down
  /// (life-pipe EOF, SIGKILL fallback) and reaps them. Idempotent.
  void stop();

  std::uint16_t port() const { return port_; }
  std::size_t shard_count() const;
  std::size_t alive_shards() const;
  ShardInfo shard(std::size_t index) const;
  /// Ring owner of a device id; shard_count() when the ring is empty.
  std::size_t owner_index(std::string_view device_id) const;
  CoordinatorStats stats() const;

  /// Fault hook for tests and the bench: SIGKILL shard `index` (the
  /// FaultPlan crash vocabulary applied to a verifier process). The
  /// control thread reaps it and repairs the ring; poll alive_shards().
  Status kill_shard(std::size_t index);

  /// One synchronous control pass (reap + probe + scrape + root refresh)
  /// — what the control thread does every health_interval_ms, callable
  /// from tests to avoid sleeping on its cadence.
  void refresh();

  /// refresh() + the current fleet Merkle root.
  FleetRollup rollup();

 private:
  struct Impl;
  Impl* impl_ = nullptr;
  CoordinatorOptions options_;
  std::uint16_t port_ = 0;
};

}  // namespace sacha::shard
