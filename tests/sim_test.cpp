// Tests for the simulation substrate: clock domains and the time ledger.
#include <gtest/gtest.h>

#include "sim/clock.hpp"
#include "sim/ledger.hpp"

namespace sacha::sim {
namespace {

TEST(ClockDomain, PocDomainPeriods) {
  EXPECT_EQ(rx_domain().period(), 8u);    // 125 MHz
  EXPECT_EQ(tx_domain().period(), 8u);    // 125 MHz
  EXPECT_EQ(icap_domain().period(), 10u); // 100 MHz
}

TEST(ClockDomain, CyclesToTime) {
  EXPECT_EQ(icap_domain().cycles_to_time(183), 1'830u);
  EXPECT_EQ(icap_domain().cycles_to_time(2'404), 24'040u);
  EXPECT_EQ(tx_domain().cycles_to_time(16), 128u);
}

TEST(ClockDomain, TimeToCyclesRoundsUp) {
  const ClockDomain icap = icap_domain();
  EXPECT_EQ(icap.time_to_cycles(10), 1u);
  EXPECT_EQ(icap.time_to_cycles(11), 2u);
  EXPECT_EQ(icap.time_to_cycles(20), 2u);
}

TEST(Ledger, AccumulatesPerAction) {
  TimeLedger ledger;
  ledger.add("A1", 100);
  ledger.add("A1", 200);
  ledger.add("A2", 50);
  EXPECT_EQ(ledger.count("A1"), 2u);
  EXPECT_EQ(ledger.total("A1"), 300u);
  EXPECT_EQ(ledger.average("A1"), 150u);
  EXPECT_EQ(ledger.grand_total(), 350u);
}

TEST(Ledger, UnknownActionIsZero) {
  TimeLedger ledger;
  EXPECT_EQ(ledger.count("missing"), 0u);
  EXPECT_EQ(ledger.total("missing"), 0u);
  EXPECT_EQ(ledger.average("missing"), 0u);
}

TEST(Ledger, PreservesInsertionOrder) {
  TimeLedger ledger;
  ledger.add("z", 1);
  ledger.add("a", 1);
  ledger.add("z", 1);
  EXPECT_EQ(ledger.actions(), (std::vector<std::string>{"z", "a"}));
}

TEST(Ledger, ClearResets) {
  TimeLedger ledger;
  ledger.add("x", 5);
  ledger.clear();
  EXPECT_EQ(ledger.grand_total(), 0u);
  EXPECT_TRUE(ledger.actions().empty());
}

}  // namespace
}  // namespace sacha::sim
