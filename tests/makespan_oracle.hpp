// Test-only oracle for the fleet engine's K-lane makespan model.
//
// The engine records each member's verify jobs as runs of equally spaced,
// equally costly rounds and skips windows that repeat the one before them
// (core::detail::replay_lanes). This is the replay it ran before, one
// record per round: every job of the fleet, picked one at a time as the
// least (ready, member) among the members' next jobs, on the earliest free
// lane. fleet_engine_test holds the run-wise replay to it member end for
// member end.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "sim/time.hpp"

namespace sacha::oracle {

/// One verify job: ready at `ready`, occupying a lane for `cost`.
struct VerifyRec {
  sim::SimTime ready = 0;
  sim::SimDuration cost = 0;
};

/// A member's verify jobs in production order, which is also ready order.
using Timeline = std::vector<VerifyRec>;

/// Each member's verify end under `lanes` lanes (0 for a member with no
/// jobs).
inline std::vector<sim::SimTime> replay_lanes(
    const std::vector<Timeline>& timelines, std::size_t lanes) {
  constexpr sim::SimTime kDone = std::numeric_limits<sim::SimTime>::max();
  const std::size_t members = timelines.size();
  std::vector<std::size_t> next(members, 0);
  std::vector<sim::SimTime> head(members, kDone);  // next job's ready time
  for (std::size_t m = 0; m < members; ++m) {
    if (!timelines[m].empty()) head[m] = timelines[m].front().ready;
  }
  std::vector<sim::SimTime> lane_free(std::max<std::size_t>(lanes, 1), 0);
  std::vector<sim::SimTime> member_end(members, 0);
  for (;;) {
    const auto first = std::min_element(head.begin(), head.end());
    if (first == head.end() || *first == kDone) break;
    const auto m = static_cast<std::size_t>(first - head.begin());
    const VerifyRec& rec = timelines[m][next[m]];
    head[m] = ++next[m] < timelines[m].size() ? timelines[m][next[m]].ready
                                              : kDone;
    const auto lane = std::min_element(lane_free.begin(), lane_free.end());
    const sim::SimTime start = std::max({rec.ready, *lane, member_end[m]});
    member_end[m] = start + rec.cost;
    *lane = member_end[m];
  }
  return member_end;
}

}  // namespace sacha::oracle
