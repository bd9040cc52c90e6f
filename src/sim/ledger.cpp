#include "sim/ledger.hpp"

namespace sacha::sim {

std::size_t TimeLedger::find(std::string_view action) const {
  std::size_t i = 0;
  while (i < order_.size() && order_[i] != action) ++i;
  return i;
}

std::size_t TimeLedger::row(std::string_view action) {
  const std::size_t i = find(action);
  if (i == order_.size()) {
    if (order_.empty()) {
      // Room for every Table 3 row plus the transport rows at once.
      order_.reserve(16);
      entries_.reserve(16);
    }
    order_.emplace_back(action);
    entries_.emplace_back();
  }
  return i;
}

void TimeLedger::add(std::string_view action, SimDuration duration) {
  add_at(row(action), duration);
}

std::uint64_t TimeLedger::count(std::string_view action) const {
  const std::size_t i = find(action);
  return i == order_.size() ? 0 : entries_[i].count;
}

SimDuration TimeLedger::total(std::string_view action) const {
  const std::size_t i = find(action);
  return i == order_.size() ? 0 : entries_[i].total;
}

SimDuration TimeLedger::average(std::string_view action) const {
  const std::size_t i = find(action);
  if (i == order_.size() || entries_[i].count == 0) return 0;
  return entries_[i].total / entries_[i].count;
}

SimDuration TimeLedger::grand_total() const {
  SimDuration sum = 0;
  for (const Entry& entry : entries_) sum += entry.total;
  return sum;
}

void TimeLedger::clear() {
  order_.clear();
  entries_.clear();
}

}  // namespace sacha::sim
