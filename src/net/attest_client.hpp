// Prover-side socket client: per-member agent + fleet load generator.
//
// ProverAgent is the socket driver of the prover half of a session
// (core::ProverSession): it decodes each COMMAND frame, applies the
// prover half's configuration/readback boundary rule when the first
// non-configuration command arrives, and answers as the in-process prover
// would, so a loopback run is bit-identical to the in-process engine
// driving the same device.
//
// run_load replays an N-member fleet against one attestd: a single
// event-loop thread multiplexes every connection (nonblocking connect,
// pipelined command handling), which is what lets the bench hold 500+
// concurrent provers from one process. Each member opens with the HELLO
// member_hello builds (the one wire version, trace context attached),
// follows at most one coordinator redirect to its shard, and ends at the
// REPORT, whose trace tail echoes the HELLO's. Socket-level fault shims
// mirror the FaultPlan vocabulary on a real transport: drop responses with
// a seeded probability (the server's timeout path), delay responses, or
// disconnect abruptly after K responses (the quarantine path).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/prover.hpp"
#include "core/session.hpp"
#include "net/provision.hpp"

namespace sacha::net {

/// Client-side session state for one fleet member. Not movable: the
/// prover half refers to the device the agent owns.
class ProverAgent {
 public:
  /// Provisions and boots the member's device from the HELLO parameters
  /// (prover_for — the same construction the oracle fleet uses) and starts
  /// its prover half under the HELLO's session seed and flip probability.
  explicit ProverAgent(const HelloMsg& hello,
                       std::function<void(core::SachaProver&)> after_config =
                           nullptr);
  ProverAgent(const ProverAgent&) = delete;
  ProverAgent& operator=(const ProverAgent&) = delete;

  /// Handles one COMMAND frame payload and returns the RESPONSE frame
  /// payload (u8 has_response + optional Response::encode()). A set
  /// `on_type` is handed the decoded command's type before the device
  /// runs it, so a caller can name the prover phase without decoding the
  /// payload again; an undecodable packet has no type to hand back.
  Bytes handle_command(
      ByteSpan payload,
      const std::function<void(core::CommandType)>& on_type = nullptr);

  const core::SachaProver& prover() const { return prover_; }
  const std::optional<crypto::Mac>& last_mac() const {
    return prover_.last_mac();
  }

 private:
  core::SachaProver prover_;
  core::ProverSession session_;
};

/// The canonical post-configuration tamper (flip bit 7 of frame 5) used by
/// the bit-identity tests on both the oracle fleet and the remote agents.
std::function<void(core::SachaProver&)> standard_tamper();

struct LoadOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  FleetSpec fleet{};
  std::size_t members = 16;
  /// Fleet-registry offset: member i connects as registry slot
  /// `member_offset + i`, so several client processes (or bench threads)
  /// can split one fleet's device-id space without colliding.
  std::size_t member_offset = 0;
  /// Connections in flight at once (0 = all members at once — the bench's
  /// concurrent-connection sweep).
  std::size_t concurrency = 0;
  /// Members tampered post-configuration (standard_tamper).
  std::set<std::size_t> tampered;
  /// Socket-level fault shims.
  double drop_probability = 0.0;  // silently drop outgoing responses
  std::uint64_t delay_us = 0;     // hold each response this long
  /// member index -> abrupt close after sending this many responses.
  std::map<std::size_t, std::size_t> disconnect_after;
  std::uint64_t shim_seed = 7;
  /// Abort members idle longer than this (ms; also the overall watchdog
  /// granularity).
  std::uint64_t timeout_ms = 30000;
  /// Head-sampling rate override: >= 0 sets obs::Sampler::global() before
  /// the run (0 = trace nothing, 1 = everything); negative leaves the
  /// process-wide rate (SACHA_OBS_SAMPLE / --trace-sample) untouched.
  double trace_sample = -1.0;
  /// OTA offer handler: invoked when the server follows a
  /// passing session's REPORT with an UPDATE_OFFER; returns the
  /// UPDATE_STATUS reply (accepted + gate state + refusal detail). Null =
  /// refuse every offer ("no update handler"). The verification logic
  /// lives with the caller on purpose: sacha_net sits below sacha_update,
  /// so attest_load and the service tests link the update library and
  /// pass a closure that checks the manifest signature against their own
  /// provisioned trusted root before accepting.
  std::function<UpdateStatusMsg(const UpdateOfferMsg&)> on_update_offer;
};

struct MemberOutcome {
  std::size_t index = 0;
  /// A REPORT frame arrived (the session reached a server verdict).
  bool completed = false;
  ReportMsg report{};
  /// H_Prv on the device after the run (equals report.mac iff mac_ok).
  std::optional<crypto::Mac> client_mac;
  /// Wall-clock from connect() start to REPORT (or teardown).
  std::uint64_t latency_ns = 0;
  /// Transport-level note when the session did not complete ("injected
  /// disconnect", "server closed", "timeout", socket errors).
  std::string error;
  /// Timeline key this member's HELLO carried, and whether the session was
  /// head-sampled (client-minted decision, propagated to the server).
  obs::TraceId trace{};
  bool sampled = false;
  /// OTA: the server offered a staged manifest after the verdict, and
  /// this is the UPDATE_STATUS this member answered with.
  bool update_offered = false;
  UpdateStatusMsg update_status{};
  /// Shard routing: the first endpoint answered with a redirect HELLO_ACK
  /// and the session ran on the shard it named.
  bool redirected = false;
};

struct LoadResult {
  std::vector<MemberOutcome> members;
  std::size_t completed = 0;
  std::size_t attested = 0;
  /// Largest number of connections simultaneously open.
  std::size_t peak_concurrent = 0;
  /// OTA offers received / accepted across the fleet.
  std::size_t updates_offered = 0;
  std::size_t updates_accepted = 0;
  /// Members that followed a coordinator redirect to a shard.
  std::size_t redirects = 0;
  std::uint64_t wall_ns = 0;

  bool all_completed() const { return completed == members.size(); }
};

/// Replays the fleet against a running attestd, one event loop, all
/// members multiplexed. Blocks until every member completed or failed.
LoadResult run_load(const LoadOptions& options);

}  // namespace sacha::net
