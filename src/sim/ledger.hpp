// Per-action time ledger.
//
// Table 3 reports the duration of each low-level action (A1-A10); Table 4
// reports how often each runs and the summed time. The ledger accumulates
// (count, total duration) per named action during a session so the bench
// binaries can print both tables directly from a run.
//
// A session books ~500k rows. A driver that books the same actions over and
// over resolves each name to its row once (row()) and then books by index
// (add_at()), which neither scans nor allocates; add() by name is the same
// booking after a scan of the handful of rows.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace sacha::sim {

class TimeLedger {
 public:
  void add(std::string_view action, SimDuration duration);

  /// Index of `action`'s row, appended (count 0) if the ledger has none
  /// yet: rows keep their first-use order as long as a caller resolves a
  /// name only when it first books it.
  std::size_t row(std::string_view action);
  /// Books `duration` onto a row returned by row().
  void add_at(std::size_t row, SimDuration duration) {
    ++entries_[row].count;
    entries_[row].total += duration;
  }

  std::uint64_t count(std::string_view action) const;
  SimDuration total(std::string_view action) const;
  /// Total / count; 0 if the action never ran.
  SimDuration average(std::string_view action) const;

  /// Sum over all actions.
  SimDuration grand_total() const;

  /// Action names in insertion order.
  const std::vector<std::string>& actions() const { return order_; }

  void clear();

 private:
  struct Entry {
    std::uint64_t count = 0;
    SimDuration total = 0;
  };
  /// Index of `action` in order_ (and entries_), or order_.size().
  std::size_t find(std::string_view action) const;

  std::vector<std::string> order_;
  std::vector<Entry> entries_;  // parallel to order_
};

}  // namespace sacha::sim
