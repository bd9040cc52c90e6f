// Fleet provisioning registry for the socket transport.
//
// attestd holds no device database: a HELLO frame carries (scale,
// member_index, base_seed) and both sides derive the member's provisioned
// state — floorplan, design specs, device key, verifier seed — from those
// alone, exactly as the in-process test fleets do (AttackEnv::small(seed)
// per member). That is what makes the bit-identity gate meaningful: the
// server's verifier and the oracle's verifier are the *same construction*,
// so a loopback run can be compared MAC-for-MAC against
// SwarmSchedule::kMultiplexed.
//
// This header sits above sacha_core (it builds verifiers and provers), so
// it belongs to the sacha_attestd library, not sacha_net.
#pragma once

#include <cstddef>
#include <string>

#include "attacks/env.hpp"
#include "bitstream/golden_model.hpp"
#include "net/wire.hpp"

namespace sacha::net {

/// Parameters of a provisioned fleet, shared verbatim by the server
/// command line, the load generator, and the in-process oracle.
struct FleetSpec {
  /// Per-member provisioning seed offset: member i uses base_seed + i.
  std::uint64_t base_seed = 42;
  /// Fleet session seed; the per-member churn seed derives from it via
  /// derive_seed(session_seed, member_id(i), attempt) — the same
  /// derivation attest_swarm applies.
  std::uint64_t session_seed = 1;
  double flip_probability = 0.25;
  /// Device scale when `mixed` is false.
  DeviceScale scale = DeviceScale::kSmall;
  /// Alternate small/softcore by member parity (the "mixed-device fleet"
  /// of the smoke test).
  bool mixed = false;
};

/// Fleet member label, also the derive_seed label: "node-<i>".
std::string member_id(std::size_t index);

DeviceScale member_scale(const FleetSpec& spec, std::size_t index);

/// Per-member session seed (attempt 0 of the swarm derivation).
std::uint64_t member_session_seed(const FleetSpec& spec, std::size_t index);

/// The member's provisioned environment: AttackEnv::small / the softcore
/// floorplan / AttackEnv::virtex6, seeded base_seed + index.
attacks::AttackEnv member_env(DeviceScale scale, std::uint64_t env_seed);

/// The HELLO frame the client opens member `index`'s session with.
HelloMsg member_hello(const FleetSpec& spec, std::size_t index);

/// Golden-model cache policy for verifier provisioning.
struct ModelCacheConfig {
  /// Directory of the `.sgm` warm-start cache; empty disables the disk
  /// tier (every model is interned or built in-process).
  std::string cache_dir;
  /// Use GoldenModel::load_mapped for the disk tier so colocated shard
  /// processes share one page-cache copy of the flat tables.
  bool prefer_mapped = false;
};

/// Server side: the verifier a HELLO provisions, identical to
/// member_env(scale, base_seed + index).make_verifier(). Without a cache
/// dir the golden model is interned in process (GoldenModel::shared) and
/// `source` reads kBuilt; with one it comes through
/// GoldenModel::shared_cached (process intern -> disk cache -> build), so
/// the ~MB flat tables come from the shared tiers instead of a
/// per-verifier build — same construction, same bit-identical verdicts.
/// `source` (optional) reports which tier hit.
core::SachaVerifier verifier_for(
    const HelloMsg& hello, const ModelCacheConfig& cache = {},
    bitstream::GoldenModel::CacheSource* source = nullptr);

/// Client side: the booted prover for the same HELLO.
core::SachaProver prover_for(const HelloMsg& hello);

}  // namespace sacha::net
