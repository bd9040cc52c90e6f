// Heap-allocation budget of one in-process Virtex-6 session.
//
// This binary replaces the global operator new with a counting one, so it
// holds only these tests. A command round allocates nothing: the session
// builds every command in one reused Command, and the prover reads each
// frame back into the storage the previous response handed back. So a
// session may allocate a fixed 64 times whatever its length (schedule,
// nonce image, report and ledger rows, first use of the reused buffers),
// and one allocation per round, 26,400 or 28,488 of them, fails the
// budget. The first session on a device is measured, so the device's
// reusable buffers are inside the budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "attacks/env.hpp"
#include "core/session.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sacha {
namespace {

constexpr std::uint64_t kPerSession = 64;

/// Runs one session and checks its allocations against the budget.
void expect_within_budget(core::SachaVerifier& verifier,
                          core::SachaProver& prover,
                          const core::SessionOptions& options,
                          const char* label) {
  const std::uint64_t before = g_allocations.load();
  const core::AttestationReport report =
      core::run_attestation(verifier, prover, options);
  const std::uint64_t used = g_allocations.load() - before;
  ASSERT_TRUE(report.verdict.ok()) << report.verdict.detail;

  std::printf("%s session: %llu allocations for %llu commands (%.3f per "
              "command), budget %llu\n",
              label, static_cast<unsigned long long>(used),
              static_cast<unsigned long long>(report.commands_sent),
              static_cast<double>(used) /
                  static_cast<double>(report.commands_sent),
              static_cast<unsigned long long>(kPerSession));
  EXPECT_LE(used, kPerSession)
      << label << " session over its allocation budget";
}

TEST(AllocationBudget, Virtex6FullAndRefreshSessions) {
  {
    // Metric instruments register on their first use in a process, a
    // one-time cost no session repeats; a small-device session pays it.
    const attacks::AttackEnv warm = attacks::AttackEnv::small(1);
    core::SachaVerifier verifier = warm.make_verifier();
    core::SachaProver prover = warm.make_prover();
    ASSERT_TRUE(core::run_attestation(verifier, prover).verdict.ok());
  }
  const attacks::AttackEnv env = attacks::AttackEnv::virtex6(1);
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  expect_within_budget(verifier, prover, env.session_options, "full");
  verifier.set_refresh_only(true);
  expect_within_budget(verifier, prover, env.session_options, "refresh");
}

}  // namespace
}  // namespace sacha
