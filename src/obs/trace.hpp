// Span-based tracing: per-session protocol timelines.
//
// A Span is an RAII interval on the host's monotonic clock. Spans opened on
// the same thread nest (a thread-local depth counter records how deep), and
// every span carries a TraceId derived from (device id, nonce) — the
// session key of the paper's Fig. 9 run — so a fleet coordinator can pull
// one member's timeline out of the merged record stream. The phase names
// used by the instrumented session driver mirror the protocol steps of
// Table 4: bitstream stream-in, nonce injection, per-readback-round absorb,
// CMAC finish, masked-compare verdict.
//
// Cost model matches the metrics side: when telemetry is disabled a Span
// constructor is one branch and no clock read; when enabled, two clock
// reads and one short mutex-guarded append on close. The global record
// buffer is bounded — overflow drops spans and counts them in
// `sacha.obs.spans_dropped` rather than growing without limit.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace sacha::obs {

/// 128-bit session timeline key derived from (device id, nonce).
struct TraceId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool valid() const { return hi != 0 || lo != 0; }
  bool operator==(const TraceId&) const = default;
};

TraceId make_trace_id(std::string_view device_id, std::uint64_t nonce);
std::string to_string(const TraceId& id);

/// Deterministic head sampler: the keep/drop decision is a pure function of
/// (TraceId, rate), so every process that sees the same trace id — the
/// prover-side client, the verifier-side service, an offline replay —
/// reaches the same decision without coordination. That is what lets a
/// 512-connection fleet keep tracing enabled at a 1% rate and still end up
/// with *complete* cross-process timelines for the sampled sessions.
/// Counters and histograms are always-on regardless of sampling; only span
/// records are gated.
class Sampler {
 public:
  /// rate clamped to [0, 1]; 1 keeps everything, 0 keeps nothing.
  explicit Sampler(double rate = 1.0) { set_rate(rate); }

  /// Process-wide sampler. Initial rate comes from SACHA_OBS_SAMPLE when
  /// set (a double, e.g. "0.01"), else 1.0 — full tracing, the pre-sampling
  /// behaviour.
  static Sampler& global();

  double rate() const;
  void set_rate(double rate);

  /// Pure function of (id, rate): hashes the trace id and compares against
  /// the rate threshold. Invalid ids are never sampled.
  bool should_sample(const TraceId& id) const;

 private:
  /// Keep threshold on the hashed id; rate is threshold / 2^64.
  std::atomic<std::uint64_t> threshold_{~0ULL};
};

/// True when telemetry is enabled AND the global sampler keeps this id —
/// the one predicate every span-opening call site checks.
bool should_trace(const TraceId& id);

/// Feeds one Table-4 phase duration into the per-phase quantile histogram
/// `sacha.phase.<phase>_ns` (log buckets; p50/p90/p99/p999 derived at
/// export). Called by the wire-session span emitters on both sides of the
/// socket, so the feed follows head sampling — which is deterministic on
/// the trace id and independent of latency, so the quantiles stay unbiased
/// at low rates (just thinner).
void observe_phase_duration(const std::string& phase,
                            std::uint64_t duration_ns);

/// One closed span. `start_ns` is relative to the tracer's epoch (first
/// use), so timelines from different threads share one time base.
struct SpanRecord {
  std::string name;
  std::string category;
  TraceId trace;
  std::uint64_t thread_id = 0;  // std::hash of the opening thread's id
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint32_t depth = 0;  // nesting depth on the opening thread
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer {
 public:
  static Tracer& global();

  /// Nanoseconds since the tracer's epoch (monotonic).
  std::uint64_t now_ns() const;

  /// Copies the recorded spans (end order).
  std::vector<SpanRecord> records() const;
  /// Moves the recorded spans out and clears the buffer.
  std::vector<SpanRecord> drain();
  void clear();
  std::size_t size() const;

  /// Appends a manually assembled span. The RAII Span is thread-affine
  /// (its depth counter is thread-local), which does not fit executors
  /// that interleave many sessions on one thread — attestd's loop and the
  /// multiplexed client loop both do. Those call sites stamp
  /// start/duration/depth/thread_id themselves and hand the record
  /// straight in. Callers are expected to have checked should_trace().
  void record(SpanRecord&& r) { append(std::move(r)); }

 private:
  friend class Span;
  Tracer();
  void append(SpanRecord&& record);

  static constexpr std::size_t kMaxRecords = 1u << 22;  // ~4M spans

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
};

/// RAII span. Construct to open, end()/destroy to close and record.
class Span {
 public:
  Span(std::string name, TraceId trace = {}, std::string category = "session");
  /// Opens at `start_ns` (a Tracer::now_ns() reading taken earlier), so a
  /// span can begin exactly where the previous one ended.
  Span(std::string name, TraceId trace, std::string category,
       std::uint64_t start_ns);
  ~Span() { end(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept;
  Span& operator=(Span&&) = delete;

  /// Attaches a key=value annotation (no-op on inactive spans).
  Span& arg(std::string key, std::string value);

  /// Closes and records the span; idempotent.
  void end();
  /// Closes at `end_ns` (a Tracer::now_ns() reading) instead of now.
  void end_at(std::uint64_t end_ns);

  bool active() const { return active_; }
  std::uint64_t start_ns() const { return record_.start_ns; }

 private:
  bool active_ = false;
  SpanRecord record_;
};

/// One side's half of a cross-process session timeline, recorded by hand:
/// a top-level "session" span and the Table-4 phase spans under it, all in
/// one lane keyed off the trace id and tagged `side`. The RAII Span is
/// thread-affine, which does not fit a session that shares one thread with
/// hundreds of others (attestd's loop and the multiplexed client loop);
/// both sides of a socket session record through this instead. Phase
/// durations also feed observe_phase_duration.
class SessionTimeline {
 public:
  /// `lane_salt` is XORed into the trace id's low word to pick the lane,
  /// so the two sides of a session render as two adjacent lanes.
  /// `keep_records` keeps a copy of every record for records().
  SessionTimeline(const char* side, std::uint64_t lane_salt,
                  bool keep_records);

  /// Opens the session span under `trace` when `sampled` is set (the
  /// deterministic head-sampling decision), the id is valid and telemetry
  /// is enabled; otherwise nothing is recorded.
  void start(const TraceId& trace, bool sampled);
  bool active() const { return active_; }

  /// Closes the running phase and opens `name`; nullptr closes without
  /// opening, and naming the running phase again does nothing.
  void phase(const char* name);
  /// Closes the running phase and records the session span, which ends
  /// recording.
  void finish();

  const std::vector<SpanRecord>& records() const { return records_; }

 private:
  void emit(const char* name, const char* category, std::uint64_t start,
            std::uint64_t end, std::uint32_t depth);

  const char* side_;
  std::uint64_t lane_salt_;
  bool keep_records_;
  bool active_ = false;
  TraceId trace_{};
  const char* phase_ = nullptr;
  std::uint64_t phase_start_ns_ = 0;
  std::uint64_t session_start_ns_ = 0;
  std::vector<SpanRecord> records_;
};

/// Fraction of the interval of the `session_name` span with trace id `id`
/// covered by the union of its direct children (depth + 1, same thread).
/// Returns 0 when the session span is missing. This is the acceptance
/// metric for "spans cover >= N% of the member's session wall-clock".
double timeline_coverage(const std::vector<SpanRecord>& records,
                         const TraceId& id,
                         std::string_view session_name = "session");

}  // namespace sacha::obs
