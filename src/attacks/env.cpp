#include "attacks/env.hpp"

#include "bitstream/golden_model.hpp"
#include "crypto/prg.hpp"

namespace sacha::attacks {

namespace {

fabric::Floorplan small_plan() {
  fabric::Floorplan plan(fabric::DeviceModel::small_test_device());
  plan.add_partition({"StatPart",
                      fabric::PartitionKind::kStatic,
                      fabric::FrameRange{0, 4},
                      {.clb = 20, .bram18 = 2, .iob = 4, .dcm = 1, .icap = 1}});
  plan.add_partition({"DynPart",
                      fabric::PartitionKind::kDynamic,
                      fabric::FrameRange{4, 12},
                      {.clb = 80, .bram18 = 6, .iob = 12, .dcm = 1, .icap = 0}});
  return plan;
}

crypto::AesKey provisioned_key(std::uint64_t seed) {
  crypto::Prg prg(seed, "attack-env-device-key");
  return prg.key();
}

}  // namespace

core::SachaVerifier AttackEnv::make_verifier() const {
  return core::SachaVerifier(plan, static_spec, app_spec, key, seed,
                             verifier_options);
}

core::SachaProver AttackEnv::make_prover(bool genuine_key) const {
  crypto::AesKey device_key = key;
  if (!genuine_key) {
    crypto::Prg prg(seed, "attacker-guessed-key");
    device_key = prg.key();
  }
  core::SachaProver prover(plan.device(), "dev-under-attack", device_key,
                           prover_options);
  // BootMem provisioning: static image from the same golden model the
  // verifier interns for this design.
  const auto model =
      bitstream::GoldenModel::shared(plan, static_spec, app_spec);
  prover.boot(model->static_words());
  return prover;
}

AttackEnv AttackEnv::small(std::uint64_t seed) {
  AttackEnv env{.plan = small_plan()};
  env.seed = seed;
  env.key = provisioned_key(seed);
  return env;
}

AttackEnv AttackEnv::virtex6(std::uint64_t seed) {
  AttackEnv env{.plan = fabric::sacha_reference_floorplan()};
  env.seed = seed;
  env.key = provisioned_key(seed);
  return env;
}

}  // namespace sacha::attacks
