#include "core/mac_engine.hpp"

#include <cassert>

#include "obs/metrics.hpp"

namespace sacha::core {

namespace {
// Cached instrument handles: update() runs once per readback frame (28k+
// per Virtex-6 session), so the hot path is one enable branch + relaxed add.
obs::Counter& mac_updates() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("sacha.prover.mac_updates");
  return c;
}
obs::Counter& mac_update_bytes() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("sacha.prover.mac_update_bytes");
  return c;
}
}  // namespace

MacEngine::MacEngine(const crypto::AesKey& key, MacTiming timing)
    : cmac_(key), timing_(timing), tx_clock_(sim::tx_domain()) {}

void MacEngine::rekey(const crypto::AesKey& key) {
  assert(!started_);
  cmac_ = crypto::Cmac(key);
}

sim::SimDuration MacEngine::init() {
  static obs::Counter& inits =
      obs::MetricsRegistry::global().counter("sacha.prover.mac_inits");
  inits.add(1);
  cmac_.reset();
  started_ = true;
  return tx_clock_.cycles_to_time(timing_.init_cycles);
}

sim::SimDuration MacEngine::update(std::span<const std::uint32_t> frame_words,
                                   MacFold* slot) {
  assert(started_);
  mac_updates().add(1);
  mac_update_bytes().add(frame_words.size() * 4);
  if (slot != nullptr) {
    assert(!slot->full());
    *slot = {&cmac_, frame_words};
  } else {
    cmac_.update(frame_words);
  }
  return tx_clock_.cycles_to_time(timing_.update_cycles);
}

void MacEngine::abort() {
  cmac_.reset();
  started_ = false;
}

crypto::Mac MacEngine::finalize(sim::SimDuration& duration) {
  assert(started_);
  static obs::Counter& finalizes =
      obs::MetricsRegistry::global().counter("sacha.prover.mac_finalizes");
  finalizes.add(1);
  started_ = false;
  duration = tx_clock_.cycles_to_time(timing_.finalize_cycles);
  return cmac_.finalize();
}

}  // namespace sacha::core
