#include "core/fleet_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace sacha::core {

namespace {

/// Drives `job`'s session to its verdict on the calling thread, inside
/// its member span, recording the verify job of every round that carried
/// frame data into `runs`.
AttestationReport run_member(FleetSessionJob& job,
                             std::uint64_t verify_ns_per_word,
                             const obs::TraceId& fleet_trace,
                             detail::VerifyRuns& runs) {
  obs::Span member_span(job.attempt == 0 ? "swarm.member" : "swarm.reattest",
                        fleet_trace, "swarm");
  member_span.arg("member", job.member);
  if (job.attempt > 0) member_span.arg("attempt", std::to_string(job.attempt));
  SessionMachine machine(*job.verifier, *job.prover, job.options, job.hooks);
  sim::SimTime vnow = 0;
  while (!machine.done()) {
    const SessionMachine::Round round = machine.step();
    vnow += round.elapsed;
    const auto cost =
        static_cast<sim::SimDuration>(round.verify_words) * verify_ns_per_word;
    if (cost > 0) detail::append_verify_job(runs, vnow, cost);
  }
  return machine.finish();
}

/// The free times of `lanes` virtual lanes; take() claims the earliest.
/// Lanes are interchangeable, so replacing the minimum is all a heap would
/// do here, and a fleet has few lanes: a scan beats the heap's bookkeeping.
class Lanes {
 public:
  explicit Lanes(std::size_t lanes)
      : free_(std::max<std::size_t>(lanes, 1), 0) {}
  /// The earliest free time; the lane is busy until set().
  sim::SimTime take() {
    taken_ = static_cast<std::size_t>(
        std::min_element(free_.begin(), free_.end()) - free_.begin());
    return free_[taken_];
  }
  /// Frees the lane take() returned at `end`.
  void set(sim::SimTime end) { free_[taken_] = end; }
  /// Delays every lane by `delay`.
  void shift(sim::SimDuration delay) {
    for (sim::SimTime& t : free_) t += delay;
  }
  /// Appends the free times seen from `t` (each clamped to t, less t) to
  /// `out`, sorted, since which lane is which never matters.
  void seen_from(sim::SimTime t, std::vector<sim::SimTime>& out) const {
    const auto at = static_cast<std::ptrdiff_t>(out.size());
    for (const sim::SimTime f : free_) out.push_back(std::max(f, t) - t);
    std::sort(out.begin() + at, out.end());
  }

 private:
  std::vector<sim::SimTime> free_;
  std::size_t taken_ = 0;
};

/// Sum of a member's modelled verify-lane occupancy.
sim::SimDuration verify_cost(const detail::VerifyRuns& runs) {
  sim::SimDuration cost = 0;
  for (const detail::VerifyRun& run : runs) cost += run.cost * run.count;
  return cost;
}

/// Baseline the engine is gated against: thread-per-member with `lanes`
/// verifier ports. Each session occupies a port for its whole duration
/// (drive and verify serialised per member — a blocking driver cannot
/// overlap its own latency); sessions pack FIFO onto the ports.
sim::SimDuration thread_per_member_makespan(
    const std::vector<detail::VerifyRuns>& runs,
    const std::vector<AttestationReport>& reports, std::size_t lanes) {
  Lanes lane_free(lanes);
  sim::SimDuration makespan = 0;
  for (std::size_t m = 0; m < runs.size(); ++m) {
    const sim::SimTime end =
        lane_free.take() + reports[m].total_time + verify_cost(runs[m]);
    lane_free.set(end);
    makespan = std::max<sim::SimDuration>(makespan, end);
  }
  return makespan;
}

}  // namespace

namespace detail {

void append_verify_job(VerifyRuns& runs, sim::SimTime ready,
                       sim::SimDuration cost) {
  if (!runs.empty()) {
    VerifyRun& run = runs.back();
    const sim::SimTime last = run.first + run.step * (run.count - 1);
    if (cost == run.cost && (run.count == 1 || ready - last == run.step)) {
      run.step = ready - last;
      ++run.count;
      return;
    }
  }
  runs.push_back({ready, 0, cost, 1});
}

LaneReplay replay_lanes(const std::vector<VerifyRuns>& members,
                        std::size_t lanes) {
  constexpr sim::SimTime kDone = std::numeric_limits<sim::SimTime>::max();
  const std::size_t n = members.size();
  LaneReplay out;
  // A member's verify jobs run one after another, so its last end is also
  // when its verification finished.
  std::vector<sim::SimTime>& end = out.verify_end;
  end.assign(n, 0);
  // Each member's next job: job `job[m]` of run `run[m]`, ready at head[m].
  std::vector<std::size_t> run(n, 0);
  std::vector<std::uint64_t> job(n, 0);
  std::vector<sim::SimTime> head(n, kDone);
  for (std::size_t m = 0; m < n; ++m) {
    if (!members[m].empty()) head[m] = members[m].front().first;
  }
  Lanes lane_free(lanes);
  const auto remaining = [&](std::size_t m) {
    return members[m][run[m]].count - job[m];
  };
  // Window [t, t + p) is clean when every pending member sits in a run of
  // step p with its next job inside it and another job left in that run:
  // each then runs exactly one job in the window, from the run after it.
  // `seen` is then what the schedule from t on depends on: member ends and
  // lane free times clamped to t (every job left is ready at or after t),
  // and the next-ready offsets.
  const auto clean = [&](sim::SimTime t, sim::SimDuration p,
                         std::vector<sim::SimTime>& seen) {
    seen.clear();
    for (std::size_t m = 0; m < n; ++m) {
      if (head[m] == kDone) continue;
      if (p == 0 || members[m][run[m]].step != p || head[m] - t >= p ||
          remaining(m) < 2) {
        return false;
      }
      seen.push_back(std::max(end[m], t) - t);
      seen.push_back(head[m] - t);
    }
    lane_free.seen_from(t, seen);
    return true;
  };
  // The open clean window's end (0 when none is open) and the state seen
  // from its start.
  sim::SimTime window_end = 0;
  std::vector<sim::SimTime> window_seen;
  std::vector<sim::SimTime> seen;
  for (;;) {
    const auto first = std::min_element(head.begin(), head.end());
    if (first == head.end() || *first == kDone) break;
    const auto m = static_cast<std::size_t>(first - head.begin());
    const sim::SimTime t = *first;
    if (t >= window_end) {
      // An open window has run one job of each pending member, so t is its
      // end, and each member is still in the run (and step) it had.
      const bool repeat = window_end != 0;
      const sim::SimDuration p = members[m][run[m]].step;
      window_end = 0;
      if (clean(t, p, seen)) {
        if (repeat && seen == window_seen) {
          // The window from t will run as the one before it did, shifted
          // by p, and so will each after it while every member stays in
          // its run: skip k windows. k stops one job short of the
          // shortest run's end, since that run's successor may be ready
          // inside its last window.
          std::uint64_t k = kDone;
          for (std::size_t i = 0; i < n; ++i) {
            if (head[i] != kDone) k = std::min(k, remaining(i) - 1);
          }
          const sim::SimDuration delay = k * p;
          lane_free.shift(delay);
          for (std::size_t i = 0; i < n; ++i) {
            if (head[i] == kDone) continue;
            end[i] += delay;
            head[i] += delay;
            job[i] += k;
          }
          continue;
        }
        window_end = t + p;
        window_seen.swap(seen);
      }
    }
    const VerifyRun& r = members[m][run[m]];
    const sim::SimTime start = std::max({t, lane_free.take(), end[m]});
    end[m] = start + r.cost;
    lane_free.set(end[m]);
    ++out.stepped;
    if (++job[m] < r.count) {
      head[m] += r.step;
    } else {
      job[m] = 0;
      head[m] = ++run[m] < members[m].size() ? members[m][run[m]].first : kDone;
    }
  }
  return out;
}

}  // namespace detail

std::size_t default_fleet_pool() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(hw == 0 ? 1 : hw, 8);
}

FleetRunResult run_fleet(std::vector<FleetSessionJob>& jobs,
                         const FleetEngineOptions& options,
                         const obs::TraceId& fleet_trace) {
  const std::size_t pool =
      options.pool_size == 0 ? default_fleet_pool() : options.pool_size;
  FleetRunResult out;
  out.stats.pool_size = pool;
  if (jobs.empty()) return out;

  const auto host_start = std::chrono::steady_clock::now();
  obs::Span engine_span("fleet.engine", fleet_trace, "engine");
  engine_span.arg("sessions", std::to_string(jobs.size()));
  engine_span.arg("pool", std::to_string(pool));
  {
    static obs::Counter& sessions =
        obs::MetricsRegistry::global().counter("sacha.engine.sessions");
    sessions.add(jobs.size());
  }

  // Each worker writes only the slots of the members it claimed; join()
  // publishes them to this thread.
  out.reports.resize(jobs.size());
  std::vector<detail::VerifyRuns> runs(jobs.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t m = next.fetch_add(1, std::memory_order_relaxed);
         m < jobs.size(); m = next.fetch_add(1, std::memory_order_relaxed)) {
      out.reports[m] = run_member(jobs[m], options.verify_ns_per_word,
                                  fleet_trace, runs[m]);
    }
  };
  const std::size_t workers = std::min(pool, jobs.size());
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }

  // The multiplexed makespan: the later of each member's session end and
  // its verify end on the K lanes.
  FleetEngineStats& stats = out.stats;
  const std::vector<sim::SimTime> verify_end =
      detail::replay_lanes(runs, pool).verify_end;
  stats.thread_per_member_makespan =
      thread_per_member_makespan(runs, out.reports, pool);
  for (std::size_t m = 0; m < out.reports.size(); ++m) {
    stats.makespan = std::max(
        {stats.makespan, out.reports[m].total_time, verify_end[m]});
    stats.total_work += out.reports[m].total_time;
    stats.channel_busy += out.reports[m].channel_time;
    stats.verify_busy += verify_cost(runs[m]);
  }
  stats.overlap_efficiency =
      stats.makespan > 0 ? static_cast<double>(stats.total_work) /
                               static_cast<double>(stats.makespan)
                         : 0.0;
  stats.host_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - host_start)
          .count());

  engine_span.arg("makespan_ns", std::to_string(stats.makespan));
  engine_span.arg("overlap", std::to_string(stats.overlap_efficiency));
  engine_span.end();
  (log_debug() << "fleet engine run finished")
      .kv("sessions", jobs.size())
      .kv("pool", stats.pool_size)
      .kv("makespan_s", sim::to_seconds(stats.makespan))
      .kv("thread_per_member_s",
          sim::to_seconds(stats.thread_per_member_makespan))
      .kv("overlap", stats.overlap_efficiency)
      .kv("host_ms", static_cast<double>(stats.host_ns) / 1e6);
  return out;
}

}  // namespace sacha::core
