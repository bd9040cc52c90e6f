// Hardware MAC engine model: AES-CMAC with the PoC's incremental timing.
//
// The AEScmac block in the TX clock domain (Fig. 10) is pipelined with the
// readback stream, so the *incremental* cost visible at the protocol level
// is small and constant per step: Table 3 gives 120 ns for MAC-init (A5),
// 128 ns per frame update (A6) and 136 ns for finalize (A7) — 15, 16 and
// 17 cycles of the 125 MHz TX clock. The engine wraps the bit-exact Cmac
// and accounts those cycles.
#pragma once

#include "crypto/cmac.hpp"
#include "sim/clock.hpp"

namespace sacha::core {

struct MacTiming {
  std::uint32_t init_cycles = 15;      // A5: 120 ns @ 125 MHz
  std::uint32_t update_cycles = 16;    // A6: 128 ns
  std::uint32_t finalize_cycles = 17;  // A7: 136 ns
};

/// A readback's MAC fold that the device leaves to its driver: the
/// prover's CMAC and the frame words it absorbs. The driver owns the slot,
/// keeps the words alive, and runs the fold alone or paired with the
/// verifier's of the same step (SachaVerifier::on_response_in_place).
struct MacFold {
  crypto::Cmac* cmac = nullptr;  // null: the slot is empty
  std::span<const std::uint32_t> words;

  bool full() const { return cmac != nullptr; }
  /// Runs the fold on its own and empties the slot.
  void run() {
    cmac->update(words);
    *this = {};
  }
};

class MacEngine {
 public:
  explicit MacEngine(const crypto::AesKey& key, MacTiming timing = {});

  void rekey(const crypto::AesKey& key);

  /// Starts a new MAC computation. Returns the init duration.
  sim::SimDuration init();

  /// Folds one readback frame's words (big-endian on the wire and in the
  /// MAC, as everywhere in SACHa) into the MAC through the word-span CMAC,
  /// or, given an empty `slot`, leaves the fold in it for the driver to
  /// run. Either way the update is counted here; returns its duration.
  sim::SimDuration update(std::span<const std::uint32_t> frame_words,
                          MacFold* slot = nullptr);

  /// Completes the MAC. Returns the finalize duration via `duration`.
  crypto::Mac finalize(sim::SimDuration& duration);

  /// Discards an in-progress computation (a configuration command arriving
  /// mid-readback starts a new session; stale MAC state must not leak in).
  void abort();

  bool busy() const { return started_; }

 private:
  crypto::Cmac cmac_;
  MacTiming timing_;
  sim::ClockDomain tx_clock_;
  bool started_ = false;
};

}  // namespace sacha::core
