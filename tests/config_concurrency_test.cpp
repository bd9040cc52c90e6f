// Concurrent construction of one device type's configuration memory.
//
// Provisioning builds provers on several threads at once. Every
// ConfigMemory of a device type must then hold the same interned
// register-position table, built once, and devices given the same writes
// and churn must read back identically. Run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <latch>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "config/config_memory.hpp"

namespace sacha::config {
namespace {

TEST(ConfigMemoryConcurrency, EightThreadsShareOneTableAndReadBackIdentically) {
  constexpr int kThreads = 8;
  const fabric::DeviceModel device = fabric::DeviceModel::xc6vlx240t();
  const std::uint32_t words = device.geometry().words_per_frame();
  std::vector<std::optional<ConfigMemory>> memories(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();  // every thread asks for the table at once
      ConfigMemory& memory = memories[t].emplace(device);
      Rng content(7);
      std::vector<std::uint32_t> frame(words);
      for (std::uint32_t f = 0; f < memory.total_frames(); ++f) {
        for (std::uint32_t& w : frame) w = static_cast<std::uint32_t>(content.next_u64());
        memory.write_frame(f, frame);
      }
      Rng churn(11);
      memory.tick_registers(churn, 0.25);
    });
  }
  for (std::thread& thread : threads) thread.join();

  const bitstream::RegisterPositions* table = memories[0]->register_positions().get();
  ASSERT_NE(table, nullptr);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(memories[t]->register_positions().get(), table) << "thread " << t;
  }
  for (std::uint32_t f = 0; f < device.total_frames(); ++f) {
    const bitstream::Frame expected = memories[0]->readback_frame(f);
    for (int t = 1; t < kThreads; ++t) {
      ASSERT_EQ(memories[t]->readback_frame(f), expected)
          << "thread " << t << ", frame " << f;
    }
  }
}

}  // namespace
}  // namespace sacha::config
