#include "core/fleet_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <utility>

#include "common/log.hpp"
#include "crypto/cmac.hpp"
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

/// Per-member runtime. The drive strand (step slices) and the verify
/// strand (deliver batches) never run concurrently *with themselves*; they
/// may run concurrently with each other (SessionMachine's contract). All
/// cross-strand hand-off goes through the engine mutex.
struct MemberRt {
  std::unique_ptr<SessionMachine> machine;
  /// Rounds produced by the drive strand, not yet delivered.
  std::deque<SessionMachine::Round> inbox;
  std::vector<VerifyRec> verify_recs;
  sim::SimTime vnow = 0;  // drive strand's virtual clock
  bool drive_done = false;
  bool verify_active = false;
  bool queued_for_verify = false;
  bool finished = false;
};

struct EngineState {
  std::vector<FleetSessionJob>* jobs = nullptr;
  const FleetEngineOptions* opts = nullptr;

  std::mutex mu;
  std::condition_variable cv;
  /// Virtual-time park heap: (wake time, member) for sessions waiting out
  /// their simulated channel transfers. Earliest virtual time drives next,
  /// so fleet members interleave the way a real event loop would.
  using Parked = std::pair<sim::SimTime, std::size_t>;
  std::priority_queue<Parked, std::vector<Parked>, std::greater<Parked>>
      parked;
  /// Per-worker verify lanes: members with undelivered rounds (or pending
  /// finalisation), FIFO within a lane; member m homes on lane m % lanes.
  /// A worker drains its own lane first and steals from the others when
  /// idle — over-water inboxes before anything else.
  std::vector<std::deque<std::size_t>> lanes;
  std::vector<MemberRt> members;
  std::vector<AttestationReport> reports;
  std::size_t unfinished = 0;
  std::uint64_t drive_slices = 0;
  std::uint64_t verify_batches = 0;
  std::size_t peak_inbox = 0;
  std::uint64_t steals = 0;
  std::uint64_t multi_absorb_calls = 0;
  std::uint64_t multi_absorb_streams = 0;

  /// Adaptive-slice state (engine mutex): EWMA host cost per round of each
  /// strand, and the slice length drive workers currently use.
  double drive_ns_per_round = 0.0;
  double verify_ns_per_round = 0.0;
  std::uint32_t slice_rounds = 0;
};

/// Folds an observed per-round host cost into the EWMA pair and, when
/// adaptive slicing is on, re-derives the slice length: verify-bound fleets
/// (folds cost more than drives) take longer slices — the verify lanes stay
/// fed anyway and fewer scheduling points help — while drive-bound fleets
/// shorten slices so the virtual-time interleave stays fair. sqrt keeps the
/// response gentle; the clamp keeps backpressure meaningful. Called with
/// the engine mutex held.
void note_round_cost(EngineState& st, double ns_per_round, bool verify) {
  constexpr double kAlpha = 0.2;
  double& ewma = verify ? st.verify_ns_per_round : st.drive_ns_per_round;
  ewma = ewma == 0.0 ? ns_per_round : ewma + kAlpha * (ns_per_round - ewma);
  if (!st.opts->adaptive_slice) return;
  if (st.drive_ns_per_round <= 0.0 || st.verify_ns_per_round <= 0.0) return;
  const double scaled =
      static_cast<double>(st.opts->rounds_per_slice) *
      std::sqrt(st.verify_ns_per_round / st.drive_ns_per_round);
  const auto cap = static_cast<std::uint32_t>(
      std::min<std::size_t>(64, st.opts->inbox_high_water));
  st.slice_rounds = std::clamp(static_cast<std::uint32_t>(std::lround(scaled)),
                               std::uint32_t{1}, std::max(cap, 1u));
  static obs::Gauge& slice_gauge =
      obs::MetricsRegistry::global().gauge("sacha.engine.rounds_per_slice");
  slice_gauge.set(st.slice_rounds);
}

/// Runs one drive slice for member `m`: up to rounds_per_slice command
/// rounds, advancing the member's virtual clock by each round's simulated
/// elapsed time, then re-parks the session (or marks its drive done).
/// Called with `lock` held; returns with it held.
void drive_slice(EngineState& st, std::size_t m,
                 std::unique_lock<std::mutex>& lock) {
  MemberRt& rt = st.members[m];
  FleetSessionJob& job = (*st.jobs)[m];
  const std::uint32_t slice = st.slice_rounds;
  lock.unlock();
  if (!rt.machine) {
    // First scheduling: construct the machine (runs verifier->begin()).
    // emit_spans = false — strands hop across pool threads and obs spans
    // are thread-affine; the engine's slice spans cover the timeline.
    rt.machine = std::make_unique<SessionMachine>(
        *job.verifier, *job.prover, job.options, job.hooks, false);
  }
  std::vector<SessionMachine::Round> produced;
  const auto host_t0 = std::chrono::steady_clock::now();
  {
    std::optional<obs::Span> span;
    if (obs::enabled()) {
      span.emplace("engine.drive", rt.machine->trace_id(), "engine");
      span->arg("member", job.label);
    }
    for (std::uint32_t k = 0; k < slice && !rt.machine->done(); ++k) {
      SessionMachine::Round round = rt.machine->step();
      rt.vnow += round.elapsed;
      const auto cost = static_cast<sim::SimDuration>(round.verify_words) *
                        st.opts->verify_ns_per_word;
      if (cost > 0) rt.verify_recs.push_back({rt.vnow, cost});
      produced.push_back(std::move(round));
    }
    if (span.has_value()) {
      span->arg("rounds", std::to_string(produced.size()));
    }
  }
  const auto host_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - host_t0)
          .count());
  lock.lock();
  ++st.drive_slices;
  if (!produced.empty()) {
    note_round_cost(st, host_ns / static_cast<double>(produced.size()),
                    /*verify=*/false);
  }
  for (SessionMachine::Round& round : produced) {
    rt.inbox.push_back(std::move(round));
  }
  st.peak_inbox = std::max(st.peak_inbox, rt.inbox.size());
  if (rt.machine->done()) {
    rt.drive_done = true;
  } else {
    st.parked.push({rt.vnow, m});
  }
  // Hand the backlog to a verify strand — also when the inbox is already
  // drained and the drive just ended, so the verify strand finalises.
  if (!rt.verify_active && !rt.queued_for_verify &&
      (!rt.inbox.empty() || rt.drive_done)) {
    rt.queued_for_verify = true;
    st.lanes[m % st.lanes.size()].push_back(m);
  }
  st.cv.notify_all();
}

/// Drains the inboxes of every member in `picks` through their verifiers
/// (masked compare per round inline, CMAC folds queued on one CmacBatch so
/// the members' AES chains interleave in a single multi-stream absorb) and
/// finalises sessions whose drive is done and backlog empty. Called with
/// `lock` held (members already off their lanes); returns with it held.
void verify_batch_multi(EngineState& st, const std::vector<std::size_t>& picks,
                        std::unique_lock<std::mutex>& lock) {
  struct Drain {
    std::size_t m = 0;
    std::deque<SessionMachine::Round> rounds;
  };
  std::vector<Drain> drains;
  drains.reserve(picks.size());
  for (const std::size_t m : picks) {
    MemberRt& rt = st.members[m];
    rt.verify_active = true;
    Drain d{m, {}};
    d.rounds.swap(rt.inbox);
    drains.push_back(std::move(d));
  }
  lock.unlock();

  const auto host_t0 = std::chrono::steady_clock::now();
  crypto::CmacBatch cmac_batch(st.opts->verify_batch_width);
  std::size_t delivered_rounds = 0;
  std::uint64_t drained_members = 0;
  for (Drain& d : drains) {
    if (d.rounds.empty()) continue;
    MemberRt& rt = st.members[d.m];
    std::optional<obs::Span> span;
    if (obs::enabled()) {
      span.emplace("engine.verify", rt.machine->trace_id(), "engine");
      span->arg("member", (*st.jobs)[d.m].label);
      span->arg("rounds", std::to_string(d.rounds.size()));
    }
    rt.machine->set_absorb_sink(&cmac_batch);
    for (SessionMachine::Round& round : d.rounds) {
      rt.machine->deliver(std::move(round));
    }
    delivered_rounds += d.rounds.size();
    ++drained_members;
  }
  // One interleaved flush across every drained member's stream; sinks must
  // detach before any finish() below closes a MAC.
  cmac_batch.flush();
  for (const Drain& d : drains) {
    MemberRt& rt = st.members[d.m];
    if (rt.machine) rt.machine->set_absorb_sink(nullptr);
  }
  const auto host_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - host_t0)
          .count());
  note_batch_occupancy(cmac_batch);

  lock.lock();
  st.verify_batches += drained_members;
  st.multi_absorb_calls += cmac_batch.absorb_calls();
  st.multi_absorb_streams += cmac_batch.absorbed_streams();
  if (delivered_rounds > 0) {
    note_round_cost(st, host_ns / static_cast<double>(delivered_rounds),
                    /*verify=*/true);
  }
  std::vector<std::size_t> finish_list;
  for (const Drain& d : drains) {
    MemberRt& rt = st.members[d.m];
    rt.verify_active = false;
    if (!rt.inbox.empty()) {
      // The drive strand appended more rounds while we were absorbing.
      if (!rt.queued_for_verify) {
        rt.queued_for_verify = true;
        st.lanes[d.m % st.lanes.size()].push_back(d.m);
      }
    } else if (rt.drive_done && !rt.finished) {
      rt.finished = true;
      finish_list.push_back(d.m);
    }
  }
  if (!finish_list.empty()) {
    lock.unlock();
    std::vector<std::pair<std::size_t, AttestationReport>> done;
    done.reserve(finish_list.size());
    for (const std::size_t m : finish_list) {
      MemberRt& rt = st.members[m];
      done.emplace_back(m, rt.machine->finish());
      rt.machine.reset();
    }
    lock.lock();
    for (auto& [m, report] : done) {
      st.reports[m] = std::move(report);
      --st.unfinished;
    }
  }
  st.cv.notify_all();
}

/// Pops the earliest parked member whose undelivered backlog is under the
/// high-water mark. A member at or over it is not driven further: its
/// verify strand is already running on another worker (else the
/// backpressure pass would have picked it), and driving on would let the
/// backlog outgrow the bound however fast the drive strand is. Called with
/// the engine mutex held.
std::optional<std::size_t> pop_drivable(EngineState& st) {
  std::vector<EngineState::Parked> over_water;
  std::optional<std::size_t> drivable;
  while (!st.parked.empty() && !drivable.has_value()) {
    const EngineState::Parked top = st.parked.top();
    st.parked.pop();
    if (st.members[top.second].inbox.size() < st.opts->inbox_high_water) {
      drivable = top.second;
    } else {
      over_water.push_back(top);
    }
  }
  for (const EngineState::Parked& p : over_water) st.parked.push(p);
  return drivable;
}

void worker_loop(EngineState& st, std::size_t w) {
  std::unique_lock<std::mutex> lock(st.mu);
  const std::size_t nlanes = st.lanes.size();
  const std::size_t width = st.opts->verify_batch_width;
  std::vector<std::size_t> picks;
  const auto take = [&](std::deque<std::size_t>& lane_q,
                        std::deque<std::size_t>::iterator it,
                        bool stolen) {
    if (stolen) ++st.steals;
    st.members[*it].queued_for_verify = false;
    picks.push_back(*it);
    return lane_q.erase(it);
  };
  while (st.unfinished > 0) {
    picks.clear();
    // Backpressure first: members whose backlog crossed the high-water mark
    // get drained before anyone drives further, bounding per-member
    // undelivered rounds (the streaming verifier stays O(1) memory). Idle
    // workers steal over-water members from any lane.
    for (std::size_t l = 0; l < nlanes && picks.size() < width; ++l) {
      const std::size_t lane = (w + l) % nlanes;
      auto& q = st.lanes[lane];
      for (auto it = q.begin(); it != q.end() && picks.size() < width;) {
        if (st.members[*it].inbox.size() >= st.opts->inbox_high_water) {
          it = take(q, it, lane != w);
        } else {
          ++it;
        }
      }
    }
    if (!picks.empty()) {
      // Top up the batch with ordinary ready members so the interleave runs
      // as full as the fleet allows.
      for (std::size_t l = 0; l < nlanes && picks.size() < width; ++l) {
        const std::size_t lane = (w + l) % nlanes;
        auto& q = st.lanes[lane];
        while (!q.empty() && picks.size() < width) {
          take(q, q.begin(), lane != w);
        }
      }
      verify_batch_multi(st, picks, lock);
      continue;
    }
    if (const std::optional<std::size_t> m = pop_drivable(st)) {
      drive_slice(st, *m, lock);
      continue;
    }
    // FIFO verify: own lane first, then steal from the other lanes.
    for (std::size_t l = 0; l < nlanes && picks.size() < width; ++l) {
      const std::size_t lane = (w + l) % nlanes;
      auto& q = st.lanes[lane];
      while (!q.empty() && picks.size() < width) {
        take(q, q.begin(), lane != w);
      }
    }
    if (!picks.empty()) {
      verify_batch_multi(st, picks, lock);
      continue;
    }
    // Nothing runnable: strands are in flight on other workers (or the
    // fleet just finished). Wake on any hand-off.
    st.cv.wait(lock);
  }
  st.cv.notify_all();
}

/// Simulated fleet makespan of the multiplexed schedule: every member's
/// drive occupies only its own virtual timeline (sessions park through
/// channel latency, so drives overlap freely), while verify jobs contend
/// for `lanes` virtual verify lanes, FIFO by arrival time and in order
/// within a member. Deterministic — it replays the recorded rounds, so
/// serial and threaded runs report the same number.
sim::SimDuration multiplexed_makespan(const std::vector<MemberRt>& members,
                                      std::size_t lanes) {
  struct Job {
    sim::SimTime ready = 0;
    std::size_t member = 0;
    sim::SimDuration cost = 0;
  };
  std::vector<Job> jobs;
  for (std::size_t m = 0; m < members.size(); ++m) {
    for (const VerifyRec& rec : members[m].verify_recs) {
      jobs.push_back({rec.ready, m, rec.cost});
    }
  }
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    if (a.ready != b.ready) return a.ready < b.ready;
    return a.member < b.member;
  });
  std::priority_queue<sim::SimTime, std::vector<sim::SimTime>,
                      std::greater<sim::SimTime>>
      lane_free;
  for (std::size_t k = 0; k < lanes; ++k) lane_free.push(0);
  std::vector<sim::SimTime> member_prev_end(members.size(), 0);
  std::vector<sim::SimTime> member_done(members.size(), 0);
  for (const Job& job : jobs) {
    const sim::SimTime lane = lane_free.top();
    lane_free.pop();
    const sim::SimTime start =
        std::max({job.ready, lane, member_prev_end[job.member]});
    const sim::SimTime end = start + job.cost;
    lane_free.push(end);
    member_prev_end[job.member] = end;
    member_done[job.member] = std::max(member_done[job.member], end);
  }
  sim::SimDuration makespan = 0;
  for (std::size_t m = 0; m < members.size(); ++m) {
    makespan = std::max<sim::SimDuration>(
        makespan, std::max<sim::SimTime>(members[m].vnow, member_done[m]));
  }
  return makespan;
}

/// Baseline the engine is gated against: thread-per-member with `lanes`
/// verifier ports. Each session occupies a port for its whole duration
/// (drive and verify serialised per member — a blocking driver cannot
/// overlap its own latency); sessions pack FIFO onto the ports.
sim::SimDuration thread_per_member_makespan(
    const std::vector<MemberRt>& members,
    const std::vector<AttestationReport>& reports, std::size_t lanes) {
  std::priority_queue<sim::SimTime, std::vector<sim::SimTime>,
                      std::greater<sim::SimTime>>
      lane_free;
  for (std::size_t k = 0; k < lanes; ++k) lane_free.push(0);
  sim::SimDuration makespan = 0;
  for (std::size_t m = 0; m < members.size(); ++m) {
    sim::SimDuration verify_cost = 0;
    for (const VerifyRec& rec : members[m].verify_recs) {
      verify_cost += rec.cost;
    }
    const sim::SimTime start = lane_free.top();
    lane_free.pop();
    const sim::SimTime end = start + reports[m].total_time + verify_cost;
    lane_free.push(end);
    makespan = std::max<sim::SimDuration>(makespan, end);
  }
  return makespan;
}

}  // namespace

std::size_t default_fleet_pool() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(hw == 0 ? 1 : hw, 8);
}

void note_batch_occupancy(const crypto::CmacBatch& batch) {
  if (batch.absorb_calls() == 0) return;
  auto& registry = obs::MetricsRegistry::global();
  static constexpr std::uint64_t kOccupancyBounds[] = {1, 2, 3, 4, 5, 6, 7, 8};
  static obs::Counter& absorbs =
      registry.counter("sacha.engine.batch_absorbs");
  static obs::Counter& streams =
      registry.counter("sacha.engine.batch_streams");
  static obs::Histogram& occupancy =
      registry.histogram("sacha.engine.batch_occupancy", kOccupancyBounds);
  absorbs.add(batch.absorb_calls());
  streams.add(batch.absorbed_streams());
  // Average streams in flight per absorb call of this drain — under-filled
  // batches show up as mass in the low buckets.
  occupancy.observe((batch.absorbed_streams() + batch.absorb_calls() / 2) /
                    batch.absorb_calls());
}

FleetRunResult run_fleet(std::vector<FleetSessionJob>& jobs,
                         const FleetEngineOptions& options,
                         const obs::TraceId& fleet_trace) {
  FleetEngineOptions opts = options;
  if (opts.pool_size == 0) opts.pool_size = default_fleet_pool();
  if (opts.rounds_per_slice == 0) opts.rounds_per_slice = 1;
  if (opts.inbox_high_water == 0) opts.inbox_high_water = 1;
  opts.verify_batch_width = std::clamp<std::size_t>(opts.verify_batch_width,
                                                    1, 8);

  FleetRunResult out;
  out.stats.pool_size = opts.pool_size;
  if (jobs.empty()) return out;

  const auto host_start = std::chrono::steady_clock::now();
  obs::Span engine_span("fleet.engine", fleet_trace, "engine");
  engine_span.arg("sessions", std::to_string(jobs.size()));
  engine_span.arg("pool", std::to_string(opts.pool_size));

  EngineState st;
  st.jobs = &jobs;
  st.opts = &opts;
  st.members.resize(jobs.size());
  st.reports.resize(jobs.size());
  st.unfinished = jobs.size();
  st.slice_rounds = opts.rounds_per_slice;
  for (std::size_t m = 0; m < jobs.size(); ++m) st.parked.push({0, m});

  {
    auto& registry = obs::MetricsRegistry::global();
    static obs::Counter& sessions = registry.counter("sacha.engine.sessions");
    sessions.add(jobs.size());
  }

  // Each member holds at most two concurrent strands, so more workers than
  // 2N can never find work.
  const std::size_t workers =
      std::min<std::size_t>(opts.pool_size, jobs.size() * 2);
  st.lanes.resize(std::max<std::size_t>(workers, 1));
  if (workers <= 1) {
    worker_loop(st, 0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&st, w] { worker_loop(st, w); });
    }
    for (std::thread& t : pool) t.join();
  }

  out.reports = std::move(st.reports);
  FleetEngineStats& stats = out.stats;
  stats.makespan = multiplexed_makespan(st.members, opts.pool_size);
  stats.thread_per_member_makespan =
      thread_per_member_makespan(st.members, out.reports, opts.pool_size);
  for (std::size_t m = 0; m < out.reports.size(); ++m) {
    stats.total_work += out.reports[m].total_time;
    stats.channel_busy += out.reports[m].channel_time;
    for (const VerifyRec& rec : st.members[m].verify_recs) {
      stats.verify_busy += rec.cost;
    }
  }
  stats.overlap_efficiency =
      stats.makespan > 0 ? static_cast<double>(stats.total_work) /
                               static_cast<double>(stats.makespan)
                         : 0.0;
  stats.drive_slices = st.drive_slices;
  stats.verify_batches = st.verify_batches;
  stats.peak_inbox_rounds = st.peak_inbox;
  stats.verify_steals = st.steals;
  stats.multi_absorb_calls = st.multi_absorb_calls;
  stats.multi_absorb_streams = st.multi_absorb_streams;
  stats.rounds_per_slice_last = st.slice_rounds;
  stats.host_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - host_start)
          .count());

  {
    auto& registry = obs::MetricsRegistry::global();
    static obs::Counter& slices = registry.counter("sacha.engine.slices");
    static obs::Counter& batches =
        registry.counter("sacha.engine.verify_batches");
    static obs::Counter& steals =
        registry.counter("sacha.engine.verify_steals");
    slices.add(stats.drive_slices);
    batches.add(stats.verify_batches);
    steals.add(stats.verify_steals);
  }
  engine_span.arg("makespan_ns", std::to_string(stats.makespan));
  engine_span.arg("overlap", std::to_string(stats.overlap_efficiency));
  engine_span.end();
  (log_debug() << "fleet engine run finished")
      .kv("sessions", jobs.size())
      .kv("pool", stats.pool_size)
      .kv("slices", stats.drive_slices)
      .kv("verify_batches", stats.verify_batches)
      .kv("makespan_s", sim::to_seconds(stats.makespan))
      .kv("thread_per_member_s",
          sim::to_seconds(stats.thread_per_member_makespan))
      .kv("overlap", stats.overlap_efficiency)
      .kv("host_ms", static_cast<double>(stats.host_ns) / 1e6);
  return out;
}

}  // namespace sacha::core
