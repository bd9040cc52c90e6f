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

/// A verify job in the simulated-makespan model: `ready` is the virtual
/// time the round's response finished arriving at the verifier, `cost` the
/// modelled verify-lane occupancy (words × verify_ns_per_word).
struct VerifyRec {
  sim::SimTime ready = 0;
  sim::SimDuration cost = 0;
};

/// A member's verify jobs in production order, which is also ready order:
/// each round's ready time is the session's simulated clock after it.
using Timeline = std::vector<VerifyRec>;

/// Drives `job`'s session to its verdict on the calling thread, inside
/// its member span, recording the verify job of every round that carried
/// frame data.
AttestationReport run_member(FleetSessionJob& job,
                             std::uint64_t verify_ns_per_word,
                             const obs::TraceId& fleet_trace,
                             Timeline& timeline) {
  obs::Span member_span(job.attempt == 0 ? "swarm.member" : "swarm.reattest",
                        fleet_trace, "swarm");
  member_span.arg("member", job.member);
  if (job.attempt > 0) member_span.arg("attempt", std::to_string(job.attempt));
  SessionMachine machine(*job.verifier, *job.prover, job.options, job.hooks);
  timeline.reserve(job.verifier->readback_steps().size());
  sim::SimTime vnow = 0;
  while (!machine.done()) {
    const SessionMachine::Round round = machine.step();
    vnow += round.elapsed;
    const auto cost =
        static_cast<sim::SimDuration>(round.verify_words) * verify_ns_per_word;
    if (cost > 0) timeline.push_back({vnow, cost});
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

 private:
  std::vector<sim::SimTime> free_;
  std::size_t taken_ = 0;
};

/// Simulated fleet makespan of the multiplexed schedule: every member's
/// drive occupies only its own virtual timeline (sessions park through
/// channel latency, so drives overlap freely), while verify jobs contend
/// for `lanes` virtual verify lanes, FIFO by (ready time, member) and in
/// order within a member. The members' timelines are already in ready
/// order, so each pick is the least (ready, member) among the members'
/// next jobs: a scan of their ready times, whose first minimum is the
/// lowest such member. Deterministic — it replays the recorded rounds, so
/// every pool size reports the same number.
sim::SimDuration multiplexed_makespan(
    const std::vector<Timeline>& timelines,
    const std::vector<AttestationReport>& reports, std::size_t lanes) {
  constexpr sim::SimTime kDone = std::numeric_limits<sim::SimTime>::max();
  const std::size_t members = timelines.size();
  std::vector<std::size_t> next(members, 0);
  std::vector<sim::SimTime> head(members, kDone);  // next job's ready time
  for (std::size_t m = 0; m < members; ++m) {
    if (!timelines[m].empty()) head[m] = timelines[m].front().ready;
  }
  Lanes lane_free(lanes);
  // A member's verify jobs run one after another, so its last end is also
  // when its verification finished.
  std::vector<sim::SimTime> member_end(members, 0);
  for (;;) {
    const auto first = std::min_element(head.begin(), head.end());
    if (first == head.end() || *first == kDone) break;
    const auto m = static_cast<std::size_t>(first - head.begin());
    const VerifyRec& rec = timelines[m][next[m]];
    head[m] = ++next[m] < timelines[m].size() ? timelines[m][next[m]].ready
                                              : kDone;
    const sim::SimTime start =
        std::max({rec.ready, lane_free.take(), member_end[m]});
    member_end[m] = start + rec.cost;
    lane_free.set(member_end[m]);
  }
  sim::SimDuration makespan = 0;
  for (std::size_t m = 0; m < members; ++m) {
    makespan = std::max({makespan, reports[m].total_time, member_end[m]});
  }
  return makespan;
}

/// Sum of a member's modelled verify-lane occupancy.
sim::SimDuration verify_cost(const Timeline& timeline) {
  sim::SimDuration cost = 0;
  for (const VerifyRec& rec : timeline) cost += rec.cost;
  return cost;
}

/// Baseline the engine is gated against: thread-per-member with `lanes`
/// verifier ports. Each session occupies a port for its whole duration
/// (drive and verify serialised per member — a blocking driver cannot
/// overlap its own latency); sessions pack FIFO onto the ports.
sim::SimDuration thread_per_member_makespan(
    const std::vector<Timeline>& timelines,
    const std::vector<AttestationReport>& reports, std::size_t lanes) {
  Lanes lane_free(lanes);
  sim::SimDuration makespan = 0;
  for (std::size_t m = 0; m < timelines.size(); ++m) {
    const sim::SimTime end = lane_free.take() + reports[m].total_time +
                             verify_cost(timelines[m]);
    lane_free.set(end);
    makespan = std::max<sim::SimDuration>(makespan, end);
  }
  return makespan;
}

}  // namespace

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
  std::vector<Timeline> timelines(jobs.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t m = next.fetch_add(1, std::memory_order_relaxed);
         m < jobs.size(); m = next.fetch_add(1, std::memory_order_relaxed)) {
      out.reports[m] = run_member(jobs[m], options.verify_ns_per_word,
                                  fleet_trace, timelines[m]);
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

  FleetEngineStats& stats = out.stats;
  stats.makespan = multiplexed_makespan(timelines, out.reports, pool);
  stats.thread_per_member_makespan =
      thread_per_member_makespan(timelines, out.reports, pool);
  for (std::size_t m = 0; m < out.reports.size(); ++m) {
    stats.total_work += out.reports[m].total_time;
    stats.channel_busy += out.reports[m].channel_time;
    stats.verify_busy += verify_cost(timelines[m]);
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
