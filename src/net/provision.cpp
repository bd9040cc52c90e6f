#include "net/provision.hpp"

#include "common/rng.hpp"

namespace sacha::net {

std::string member_id(std::size_t index) {
  return "node-" + std::to_string(index);
}

DeviceScale member_scale(const FleetSpec& spec, std::size_t index) {
  if (!spec.mixed) return spec.scale;
  return index % 2 == 0 ? DeviceScale::kSmall : DeviceScale::kSoftcore;
}

std::uint64_t member_session_seed(const FleetSpec& spec, std::size_t index) {
  return derive_seed(spec.session_seed, member_id(index), /*lane=*/0);
}

attacks::AttackEnv member_env(DeviceScale scale, std::uint64_t env_seed) {
  if (scale == DeviceScale::kVirtex6) {
    return attacks::AttackEnv::virtex6(env_seed);
  }
  attacks::AttackEnv env = attacks::AttackEnv::small(env_seed);
  if (scale == DeviceScale::kSoftcore) {
    // Softcore device with a matching 2-partition floorplan (the same
    // construction sacha_cli --device softcore uses).
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
  return env;
}

HelloMsg member_hello(const FleetSpec& spec, std::size_t index) {
  HelloMsg hello;
  hello.scale = member_scale(spec, index);
  hello.member_index = static_cast<std::uint32_t>(index);
  hello.base_seed = spec.base_seed;
  hello.session_seed = member_session_seed(spec, index);
  hello.flip_probability = spec.flip_probability;
  hello.device_id = member_id(index);
  // Wire sessions key their timeline on (device id, session seed) — the
  // nonce lives server-side and is not known at HELLO time. Minted here so
  // every layer (client spans, server spans, audit entries) agrees on the
  // id; the sampling decision is stamped by the sender.
  hello.trace = obs::make_trace_id(hello.device_id, hello.session_seed);
  return hello;
}

core::SachaVerifier verifier_for(const HelloMsg& hello,
                                 const ModelCacheConfig& cache,
                                 bitstream::GoldenModel::CacheSource* source) {
  const attacks::AttackEnv env =
      member_env(hello.scale, hello.base_seed + hello.member_index);
  if (cache.cache_dir.empty()) {
    // No disk tier: the plain construction, which interns the model through
    // GoldenModel::shared.
    if (source != nullptr) {
      *source = bitstream::GoldenModel::CacheSource::kBuilt;
    }
    return env.make_verifier();
  }
  auto model = bitstream::GoldenModel::shared_cached(
      env.plan, env.static_spec, env.app_spec, cache.cache_dir, source,
      cache.prefer_mapped);
  return core::SachaVerifier(env.plan, std::move(model), env.key, env.seed,
                             env.verifier_options);
}

core::SachaProver prover_for(const HelloMsg& hello) {
  return member_env(hello.scale, hello.base_seed + hello.member_index)
      .make_prover();
}

}  // namespace sacha::net
