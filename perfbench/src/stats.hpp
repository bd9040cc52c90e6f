// Sample statistics for the benchmark's reported figures.
//
// Percentiles use the nearest-rank definition, so every reported value is a
// latency that some session really had. A tail percentile is only reported
// when at least kMinTail samples lie beyond it; with fewer the value would
// be set by a handful of sessions and read differently on every run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a reported tail percentile.
inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank percentile (p in (0, 1]): the ceil(p * n)-th smallest
/// sample. nullopt when `values` is empty or fewer than `min_beyond`
/// samples rank above the result.
std::optional<double> percentile(std::vector<double> values, double p,
                                 std::size_t min_beyond = 0);

/// Median by the same nearest-rank rule (no tail requirement).
std::optional<double> median(std::vector<double> values);

/// p90 with the tail rule applied (needs n >= 100).
std::optional<double> p90(std::vector<double> values);

double mean(const std::vector<double>& values);

/// One finished session: when it ended and the process CPU time by then,
/// both on the run's measured clocks, and its latency.
struct Completion {
  double end_s = 0.0;
  double cpu_s = 0.0;
  double latency_ms = 0.0;
};

/// A stretch of the measured loop holding at least kWindowSessions
/// consecutive completions.
struct Window {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latency_ms;
};

/// Sessions per window, so that each window's p90 has kMinTail beyond it.
inline constexpr std::size_t kWindowSessions = 10 * kMinTail;

/// Cuts `done` (any order) by end time into windows of at least
/// kWindowSessions completions, closing a window only between two
/// different end times, so that sessions that ended together (one round)
/// share a window. Leftover completions join the last window. The first
/// window starts at (`start_s`, `start_cpu_s`). Empty when there are fewer
/// than kWindowSessions completions.
std::vector<Window> cut_windows(std::vector<Completion> done, double start_s,
                                double start_cpu_s);

/// Process CPU time (all threads), seconds.
double process_cpu_s();
/// Steady-clock time, seconds.
double now_s();
/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

}  // namespace perfbench
