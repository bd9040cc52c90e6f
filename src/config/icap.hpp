// Internal Configuration Access Port model.
//
// The ICAP is a 32-bit port into the configuration memory, driven at
// 100 MHz in the paper's proof of concept. It consumes the same packet
// language as the external configuration interface; our model executes a
// parsed command stream against a ConfigMemory and accounts cycles with a
// cost model calibrated to Table 3:
//   - every stream word except a NOOP occupies the port for one cycle
//     (NOOP padding is stripped by the RX FSM in front of the port; the
//     model parses NOOPs in place and charges them nothing),
//   - frame-data words cost one extra write-pipeline cycle,
//   - committing a written frame costs kFrameCommit cycles,
//   - each readback request pays a pipeline-flush + pad-frame penalty.
// With the defaults, configuring one 81-word frame costs 183 cycles
// (1.83 us, paper: 1.834 us) and reading one back costs 2,404 cycles
// (24.04 us, paper: 24.044 us).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitstream/packet.hpp"
#include "common/result.hpp"
#include "config/config_memory.hpp"

namespace sacha::config {

struct IcapTiming {
  std::uint32_t port_cycles_per_word = 1;   // any stream/output word
  std::uint32_t write_extra_per_word = 1;   // additional cost of FDRI data
  std::uint32_t frame_commit_cycles = 11;   // per frame written
  std::uint32_t readback_flush_cycles = 2'232;  // per read request (incl. pad)
};

struct IcapStats {
  std::uint64_t frames_written = 0;
  std::uint64_t frames_read = 0;
  std::uint64_t cycles = 0;
  std::uint64_t command_streams = 0;

  bool operator==(const IcapStats&) const = default;
};

class Icap {
 public:
  Icap(ConfigMemory& memory, std::uint32_t idcode, IcapTiming timing = {});

  /// Executes one raw command stream (sync ... desync). The whole stream is
  /// parsed and validated before any op runs. `out` is cleared, then
  /// receives the words produced by read requests, in its own storage (a
  /// caller that hands back the same buffer reads back without
  /// allocating). Partial effects before an error are kept, as in
  /// hardware.
  Status execute(std::span<const std::uint32_t> words,
                 std::vector<std::uint32_t>& out);
  /// The same, returning the read words in a fresh vector (empty, and
  /// unallocated, for pure configuration streams).
  Result<std::vector<std::uint32_t>> execute(
      std::span<const std::uint32_t> words);

  const IcapStats& stats() const { return stats_; }
  void reset_stats() { stats_ = IcapStats{}; }

  const IcapTiming& timing() const { return timing_; }
  ConfigMemory& memory() { return *memory_; }

  /// Re-points the port at a relocated configuration memory. Owners with
  /// move semantics (SachaProver) call this after moving the memory.
  void rebind(ConfigMemory& memory) { memory_ = &memory; }

 private:
  ConfigMemory* memory_;
  std::uint32_t idcode_;
  IcapTiming timing_;
  IcapStats stats_;
  /// Parsed op list, reused across streams so a command costs no
  /// allocation once the list has grown to the longest stream seen.
  std::vector<bitstream::ConfigOp> ops_;

  // Configuration-logic state, persistent across streams like the silicon.
  std::uint32_t far_index_ = 0;
  bool wcfg_ = false;
  bool rcfg_ = false;
};

/// IDCODE for a modelled device (the real value for the XC6VLX240T, a
/// name-hash for synthetic test devices).
std::uint32_t device_idcode(const fabric::DeviceModel& device);

}  // namespace sacha::config
