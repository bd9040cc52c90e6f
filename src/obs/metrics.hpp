// Process-wide telemetry: lock-free counters, gauges, and fixed-bucket
// latency histograms, named like "sacha.verifier.frames_absorbed".
//
// The fleet operator's question ("where do sessions spend time, and why do
// members fail?") needs instrumentation on paths that run tens of
// thousands of times per attestation, so the design splits hot and cold:
//   - updates are a relaxed atomic op guarded by one branch on the global
//     enable flag (the *disabled* cost is that single predictable branch);
//   - registration and snapshotting take a mutex, but call sites cache the
//     returned instrument reference (instruments live for the process, the
//     registry never reallocates them), so the map lookup happens once.
// The enable flag defaults to SACHA_OBS_DEFAULT_ENABLED (a compile-time
// knob, off unless the build says otherwise) and honours the SACHA_OBS
// environment variable, so benches and CI can A/B without a rebuild.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sacha::obs {

namespace detail {
/// The enable flag: constant-initialized from SACHA_OBS_DEFAULT_ENABLED,
/// then set once from SACHA_OBS during static initialization (metrics.cpp).
extern std::atomic<bool> enabled_flag;
}  // namespace detail

/// Runtime telemetry toggle. Initialised from SACHA_OBS=1/0 when set,
/// otherwise from the SACHA_OBS_DEFAULT_ENABLED compile definition; a
/// set_enabled() made before SACHA_OBS is read wins over it. Inline: every
/// counter update reads it.
inline bool enabled() {
  return detail::enabled_flag.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

class Counter {
 public:
  /// Relaxed add; one branch when telemetry is disabled.
  void add(std::uint64_t n = 1) {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) {
    if (enabled()) value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t v) {
    if (enabled()) value_.fetch_add(v, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// 1-2-5 series from 1 us to 10 s — wide enough for both host-side span
/// latencies and simulated channel transfer times (both in ns).
std::span<const std::uint64_t> default_latency_buckets_ns();

/// Log-spaced series (ratio ~1.58, ~5 buckets per decade) from 250 ns to
/// 30 s. Tighter than the 1-2-5 series where quantile extraction needs the
/// resolution: the relative error of an interpolated quantile is bounded by
/// the bucket ratio, so ~1.58 keeps p99/p999 within a few tens of percent
/// across the whole range without ballooning the bucket count.
std::span<const std::uint64_t> log_latency_buckets_ns();

struct HistogramSample;

/// Fixed-bucket histogram with Prometheus `le` (cumulative-at-export,
/// per-bucket stored) semantics: observation v lands in the first bucket
/// whose upper bound satisfies v <= bound, or the overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::span<const std::uint64_t> upper_bounds);

  void observe(std::uint64_t v) {
    if (!enabled()) return;
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  const std::vector<std::uint64_t>& upper_bounds() const { return bounds_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Per-bucket (non-cumulative) counts; index bounds.size() is overflow.
  std::vector<std::uint64_t> bucket_counts() const;
  void reset();

  /// Folds a scraped sample into this histogram: element-wise bucket add
  /// plus count and sum, bypassing the enable gate (merging is an explicit
  /// aggregation step, not hot-path instrumentation). False — and a no-op —
  /// when the sample's bucket shape doesn't match this histogram's.
  bool merge_sample(const HistogramSample& sample);

  std::size_t bucket_index(std::uint64_t v) const;

 private:
  std::vector<std::uint64_t> bounds_;  // sorted ascending, immutable
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Histogram tuned for quantile extraction: log-spaced buckets so a rank
/// interpolated inside one bucket lands within the bucket ratio of the true
/// value at any latency scale. Exported to Prometheus as ordinary `le`
/// buckets (still conformant); p50/p90/p99/p999 are derived at export time
/// by quantile()/quantile_from_sample(), never stored.
class QuantileHistogram : public Histogram {
 public:
  QuantileHistogram() : Histogram(log_latency_buckets_ns()) {}

  /// Interpolated quantile in the observation's unit (ns here), q in [0,1].
  /// Returns 0 with no observations; observations past the last bound clamp
  /// to it.
  double quantile(double q) const;
};

// ---- Snapshot ------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  std::vector<std::uint64_t> upper_bounds;
  std::vector<std::uint64_t> bucket_counts;  // + overflow at the end
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};

/// Point-in-time copy of every registered instrument, sorted by name.
/// Cheap to pass around; SwarmReport and the bench JSON embed one.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Counter value by exact name, 0 when absent.
  std::uint64_t counter_value(std::string_view name) const;
};

/// Interpolated quantile over a snapshot sample — the offline counterpart
/// of QuantileHistogram::quantile() for exporters that only hold a
/// MetricsSnapshot.
double quantile_from_sample(const HistogramSample& sample, double q);

/// Fleet rollup: folds `src` into `dst` by metric name — counters and
/// gauges sum (a fleet gauge like active connections is the sum of the
/// shards'), histogram buckets add element-wise together with count and
/// sum, so quantiles extracted from the merged sample are the true fleet
/// quantiles, not an average of per-shard ones. Metrics absent from `dst`
/// are inserted; histograms whose bucket shapes disagree are skipped (a
/// shape mismatch means different build configs — merging would corrupt
/// both). Output stays sorted by name. The shard coordinator uses this
/// over parse_prometheus_text() scrapes of its shards.
void merge_into(MetricsSnapshot& dst, const MetricsSnapshot& src);

// ---- Registry ------------------------------------------------------------

class MetricsRegistry {
 public:
  /// The process-wide registry every instrumented library path uses.
  static MetricsRegistry& global();

  /// Finds or creates the named instrument. Returned references stay valid
  /// for the registry's lifetime — call sites cache them (typically in a
  /// function-local static) so the hot path never touches the map.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name,
                       std::span<const std::uint64_t> upper_bounds = {});
  /// Histogram on the log-spaced quantile buckets — the shape every
  /// latency-quantile metric (per-phase, per-session) shares.
  Histogram& quantile_histogram(std::string_view name) {
    return histogram(name, log_latency_buckets_ns());
  }

  MetricsSnapshot snapshot() const;

  /// Zeroes every instrument (instruments stay registered). Benches use it
  /// to scope a snapshot to one run.
  void reset_values();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace sacha::obs
