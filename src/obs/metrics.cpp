#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdlib>

namespace sacha::obs {

#ifndef SACHA_OBS_DEFAULT_ENABLED
#define SACHA_OBS_DEFAULT_ENABLED 0
#endif

constinit std::atomic<bool> detail::enabled_flag{SACHA_OBS_DEFAULT_ENABLED !=
                                                 0};

namespace {

/// Set by set_enabled(): an explicit choice made before SACHA_OBS is read
/// keeps its value.
constinit std::atomic<bool> set_explicitly{false};

/// Reads SACHA_OBS once, during this file's static initialization.
[[maybe_unused]] const bool env_read = [] {
  const char* env = std::getenv("SACHA_OBS");
  if (env != nullptr && !set_explicitly.load(std::memory_order_relaxed)) {
    detail::enabled_flag.store(
        env[0] == '1' || env[0] == 't' || env[0] == 'T' || env[0] == 'y',
        std::memory_order_relaxed);
  }
  return true;
}();

}  // namespace

void set_enabled(bool on) {
  set_explicitly.store(true, std::memory_order_relaxed);
  detail::enabled_flag.store(on, std::memory_order_relaxed);
}

std::span<const std::uint64_t> default_latency_buckets_ns() {
  static constexpr std::array<std::uint64_t, 22> kBuckets = {
      1'000,       2'000,       5'000,         10'000,        20'000,
      50'000,      100'000,     200'000,       500'000,       1'000'000,
      2'000'000,   5'000'000,   10'000'000,    20'000'000,    50'000'000,
      100'000'000, 200'000'000, 500'000'000,   1'000'000'000, 2'000'000'000,
      5'000'000'000ULL, 10'000'000'000ULL};
  return kBuckets;
}

std::span<const std::uint64_t> log_latency_buckets_ns() {
  // Ratio 10^(1/5) ~ 1.585, five buckets per decade, 250 ns .. 30 s.
  static const std::vector<std::uint64_t> kBuckets = [] {
    std::vector<std::uint64_t> out;
    double bound = 250.0;
    while (bound < 30e9) {
      out.push_back(static_cast<std::uint64_t>(bound + 0.5));
      bound *= 1.58489319246;  // 10^(1/5)
    }
    out.push_back(30'000'000'000ULL);
    return out;
  }();
  return kBuckets;
}

Histogram::Histogram(std::span<const std::uint64_t> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()),
      buckets_(bounds_.size() + 1) {
  if (bounds_.empty()) {
    const auto d = default_latency_buckets_ns();
    bounds_.assign(d.begin(), d.end());
    buckets_ = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  }
}

std::size_t Histogram::bucket_index(std::uint64_t v) const {
  // First bound with v <= bound (`le` semantics); past the last -> overflow.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<std::size_t>(it - bounds_.begin());
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

bool Histogram::merge_sample(const HistogramSample& sample) {
  if (sample.upper_bounds != bounds_ ||
      sample.bucket_counts.size() != buckets_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].fetch_add(sample.bucket_counts[i], std::memory_order_relaxed);
  }
  count_.fetch_add(sample.count, std::memory_order_relaxed);
  sum_.fetch_add(sample.sum, std::memory_order_relaxed);
  return true;
}

namespace {

/// Shared interpolation core: rank q*count located in the cumulative bucket
/// walk, then linear interpolation inside the bucket's [lower, upper] edge
/// span. Overflow-bucket ranks clamp to the last bound (there is no upper
/// edge to interpolate toward).
double quantile_impl(const std::vector<std::uint64_t>& bounds,
                     const std::vector<std::uint64_t>& counts,
                     std::uint64_t total, double q) {
  if (total == 0 || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(counts[i]);
    if (cumulative + in_bucket >= rank && in_bucket > 0) {
      if (i >= bounds.size()) {  // overflow bucket: clamp
        return static_cast<double>(bounds.back());
      }
      const double lower = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      const double upper = static_cast<double>(bounds[i]);
      const double frac = (rank - cumulative) / in_bucket;
      return lower + frac * (upper - lower);
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(bounds.back());
}

}  // namespace

double QuantileHistogram::quantile(double q) const {
  return quantile_impl(upper_bounds(), bucket_counts(), count(), q);
}

double quantile_from_sample(const HistogramSample& sample, double q) {
  return quantile_impl(sample.upper_bounds, sample.bucket_counts, sample.count,
                       q);
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  for (const CounterSample& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

void merge_into(MetricsSnapshot& dst, const MetricsSnapshot& src) {
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  for (const CounterSample& c : src.counters) {
    auto it = std::find_if(dst.counters.begin(), dst.counters.end(),
                           [&](const CounterSample& d) { return d.name == c.name; });
    if (it == dst.counters.end()) {
      dst.counters.push_back(c);
    } else {
      it->value += c.value;
    }
  }
  for (const GaugeSample& g : src.gauges) {
    auto it = std::find_if(dst.gauges.begin(), dst.gauges.end(),
                           [&](const GaugeSample& d) { return d.name == g.name; });
    if (it == dst.gauges.end()) {
      dst.gauges.push_back(g);
    } else {
      it->value += g.value;
    }
  }
  for (const HistogramSample& h : src.histograms) {
    auto it = std::find_if(
        dst.histograms.begin(), dst.histograms.end(),
        [&](const HistogramSample& d) { return d.name == h.name; });
    if (it == dst.histograms.end()) {
      dst.histograms.push_back(h);
      continue;
    }
    if (it->upper_bounds != h.upper_bounds ||
        it->bucket_counts.size() != h.bucket_counts.size()) {
      continue;  // different build config on that shard; don't corrupt
    }
    for (std::size_t i = 0; i < it->bucket_counts.size(); ++i) {
      it->bucket_counts[i] += h.bucket_counts[i];
    }
    it->count += h.count;
    it->sum += h.sum;
  }
  std::sort(dst.counters.begin(), dst.counters.end(), by_name);
  std::sort(dst.gauges.begin(), dst.gauges.end(), by_name);
  std::sort(dst.histograms.begin(), dst.histograms.end(), by_name);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(
    std::string_view name, std::span<const std::uint64_t> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(upper_bounds))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h->upper_bounds(), h->bucket_counts(),
                               h->count(), h->sum()});
  }
  return snap;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, h] : histograms_) h->reset();
}

}  // namespace sacha::obs
