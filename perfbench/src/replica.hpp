// Traced replicas of one attestation session, built only from public calls.
//
// run_traced_session repeats SessionMachine's loop for the configuration
// the workloads use (ideal channel, unreliable mode, no deadline, an
// optional tamper hook) and wraps every call into a layer in a span. The
// spans live in memory while the session runs; a layer's self time is its
// span minus what its child spans cover, and the root span's self time is
// the replica loop's own residual (core.session). The result must equal
// core::run_attestation on the same inputs: same MAC, verdict and ledger.
//
// run_service_session does the same for the socket path without sockets:
// HELLO provisioning on both sides, wire framing, the prover agent,
// VerifierSession and the audit chain, timed call by call.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "alloc_counter.hpp"
#include "core/audit.hpp"
#include "core/session.hpp"
#include "gates.hpp"
#include "net/provision.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kSession,          // core.session: the replica loop's residual
  kVerifierBegin,    // core.verifier.begin
  kVerifierCommand,  // core.verifier.command
  kEncode,           // core.protocol.encode
  kDecode,           // core.protocol.decode
  kChannel,          // net.channel
  kChurn,            // config.churn
  kProverConfig,     // core.prover.config
  kProverReadback,   // core.prover.readback (and the MAC checksum)
  kAbsorb,           // core.verifier.absorb
  kVerifierFinish,   // core.verifier.finish
  kLedger,           // sim.ledger: TimeLedger::add, one call per booked row
  kCount,
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

const char* layer_name(Layer layer);

/// One recorded call. Times are nanoseconds from the session's start.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = kNoParent;  // index into the session's spans
  Layer layer = Layer::kSession;
};

/// Spans of one session, kept in memory until the caller is done with them.
class SpanRecorder {
 public:
  /// Capacity for `spans` calls and `words` captured readback words, so
  /// that growing the buffers never lands inside a session.
  void reserve(std::size_t spans, std::size_t words);
  void begin_session();
  void end_session();

  /// Runs `f` as one span of `layer` under the session span, counting the
  /// heap allocations it makes (traced build only).
  template <class F>
  decltype(auto) call(Layer layer, F&& f) {
    const std::uint64_t t0 = clock_ns();
    const std::uint64_t a0 = thread_allocs();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      close(layer, t0, a0);
    } else {
      auto result = f();
      close(layer, t0, a0);
      return result;
    }
  }

  /// Readback words the replica keeps for the shadow splits.
  std::vector<std::uint32_t>& captured() { return captured_; }

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per layer; the root span's self time is kSession's.
  std::array<double, kLayerCount> self_ns() const;
  const std::array<std::uint64_t, kLayerCount>& allocs() const { return allocs_; }
  /// Duration of the session span.
  double wall_ns() const;

  static std::uint64_t clock_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  void close(Layer layer, std::uint64_t t0, std::uint64_t a0);

  std::uint64_t origin_ns_ = 0;
  std::uint64_t root_allocs_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> captured_;
  std::array<std::uint64_t, kLayerCount> allocs_{};
};

struct TracedSession {
  Outcome outcome;
  sacha::sim::TimeLedger ledger;
  std::uint64_t theoretical_ns = 0;
  std::uint64_t total_ns = 0;
  std::array<double, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> allocs{};
  double wall_ns = 0.0;
  /// Bytes core::Command::encode and core::Response::encode produced.
  std::uint64_t encoded_bytes = 0;
  /// Shadow splits, timed after the session over its readback words.
  double cmac_ns = 0.0;
  double masked_compare_ns = 0.0;
  /// The shadow CMAC reproduced the session MAC (it saw the same input).
  bool shadow_mac_matches = false;
  /// Frames the shadow compare checked, and those equal to the golden
  /// model under the mask (all of them exactly when the session attested).
  std::size_t shadow_frames_compared = 0;
  std::size_t shadow_frames_matched = 0;
};

/// Runs one session through the replica. `options` must use a loss-free
/// channel in unreliable mode without deadline; `after_config` is the
/// tamper window SessionHooks::after_config would open.
TracedSession run_traced_session(
    sacha::core::SachaVerifier& verifier, sacha::core::SachaProver& prover,
    const sacha::crypto::AesKey& key,
    const sacha::core::SessionOptions& options,
    const std::function<void(sacha::core::SachaProver&)>& after_config,
    SpanRecorder& recorder);

/// Service layers of one in-memory socket session, nanoseconds.
struct ServiceSession {
  Outcome outcome;
  double verifier_for_ns = 0.0;
  double prover_for_ns = 0.0;
  double wire_encode_ns = 0.0;
  double wire_decode_ns = 0.0;
  double agent_ns = 0.0;
  double verifier_session_ns = 0.0;
  double audit_ns = 0.0;
};

/// Runs the session `hello` opens, as attestd and the load generator would
/// run it over a socket, with every byte passed in memory instead.
ServiceSession run_service_session(
    const sacha::net::HelloMsg& hello,
    std::function<void(sacha::core::SachaProver&)> after_config,
    sacha::core::AuditLog& audit);

/// Writes one session's spans: a text header line naming the session and
/// the layers, then one record of four little-endian u64 per span (start
/// ns, end ns, parent index, layer). Returns false on I/O error.
bool write_spans(const std::string& path, std::uint64_t session_id,
                 const std::vector<Span>& spans);

}  // namespace perfbench
