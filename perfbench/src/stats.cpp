#include "stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

#include <sys/resource.h>

namespace perfbench {

std::optional<double> percentile(std::vector<double> values, double p,
                                 std::size_t min_beyond) {
  if (values.empty() || !(p > 0.0) || p > 1.0) return std::nullopt;
  const std::size_t n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::optional<double> median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

std::optional<double> p90(std::vector<double> values) {
  return percentile(std::move(values), 0.9, kMinTail);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<Window> cut_windows(std::vector<Completion> done, double start_s,
                                double start_cpu_s) {
  std::stable_sort(done.begin(), done.end(),
                   [](const Completion& a, const Completion& b) { return a.end_s < b.end_s; });
  std::vector<Window> windows;
  Window open;
  double from_s = start_s;
  double from_cpu_s = start_cpu_s;
  for (std::size_t i = 0; i < done.size(); ++i) {
    open.latency_ms.push_back(done[i].latency_ms);
    const bool ends_here = i + 1 == done.size() || done[i + 1].end_s > done[i].end_s;
    if (!ends_here || open.latency_ms.size() < kWindowSessions) continue;
    open.wall_s = done[i].end_s - from_s;
    open.cpu_s = done[i].cpu_s - from_cpu_s;
    from_s = done[i].end_s;
    from_cpu_s = done[i].cpu_s;
    windows.push_back(std::move(open));
    open = Window();
  }
  if (!open.latency_ms.empty() && !windows.empty()) {
    Window& last = windows.back();
    last.wall_s += done.back().end_s - from_s;
    last.cpu_s += done.back().cpu_s - from_cpu_s;
    last.latency_ms.insert(last.latency_ms.end(), open.latency_ms.begin(),
                           open.latency_ms.end());
  }
  return windows;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this process image's own memory.
  // getrusage's ru_maxrss is the fallback only: it survives execve, so a
  // process started from a larger parent (python3 run.py) reports at least
  // the parent's resident set.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
