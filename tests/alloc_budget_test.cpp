// Heap budgets of in-process Virtex-6 work: the allocations of one session,
// and the live bytes of one golden-model load.
//
// This binary replaces the global operator new with a counting one, so it
// holds only these tests. A command round allocates nothing: the session
// builds every command in one reused Command, and the prover reads each
// frame back into the storage the previous response handed back. So a
// session may allocate a fixed 64 times whatever its length (schedule,
// nonce image, report and ledger rows, first use of the reused buffers),
// and one allocation per round, 26,400 or 28,488 of them, fails the
// budget. That holds for a session that loses a response too: the
// verifier keeps no readback it cannot absorb in schedule order. The
// first session on a device is measured, so the device's reusable buffers
// are inside the budget. A heap load of a model reads the tables straight
// into the model, so it never holds much more than the two tables live.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#include <unistd.h>
#endif

#include "attacks/env.hpp"
#include "bitstream/golden_model.hpp"
#include "core/session.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
/// Bytes operator new has handed out and not yet taken back, and their
/// high-water mark (glibc only: the sizes come from malloc_usable_size).
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_live_bytes{0};

void note_alloc(void* p) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
#if defined(__GLIBC__)
  const auto size = static_cast<std::int64_t>(::malloc_usable_size(p));
  const std::int64_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
#else
  (void)p;
#endif
}

void counted_free(void* p) {
#if defined(__GLIBC__)
  if (p != nullptr) {
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(::malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
#endif
  std::free(p);
}

void* counted_alloc(std::size_t size) {
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    note_alloc(p);
    return p;
  }
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) {
    note_alloc(p);
    return p;
  }
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
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace sacha {
namespace {

constexpr std::uint64_t kPerSession = 64;

/// Runs one session and checks its allocations against the budget.
core::AttestationReport expect_within_budget(
    core::SachaVerifier& verifier, core::SachaProver& prover,
    const core::SessionOptions& options, const char* label,
    const core::SessionHooks& hooks = {}) {
  const std::uint64_t before = g_allocations.load();
  core::AttestationReport report =
      core::run_attestation(verifier, prover, options, hooks);
  const std::uint64_t used = g_allocations.load() - before;

  std::printf("%s session: %llu allocations for %llu commands (%.3f per "
              "command), budget %llu\n",
              label, static_cast<unsigned long long>(used),
              static_cast<unsigned long long>(report.commands_sent),
              static_cast<double>(used) /
                  static_cast<double>(report.commands_sent),
              static_cast<unsigned long long>(kPerSession));
  EXPECT_LE(used, kPerSession)
      << label << " session over its allocation budget";
  return report;
}

/// Metric instruments register on their first use in a process, a
/// one-time cost no session repeats; a small-device session pays it.
void register_instruments() {
  const attacks::AttackEnv warm = attacks::AttackEnv::small(1);
  core::SachaVerifier verifier = warm.make_verifier();
  core::SachaProver prover = warm.make_prover();
  ASSERT_TRUE(core::run_attestation(verifier, prover).verdict.ok());
}

TEST(AllocationBudget, Virtex6FullAndRefreshSessions) {
  register_instruments();
  const attacks::AttackEnv env = attacks::AttackEnv::virtex6(1);
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  const core::AttestationReport full =
      expect_within_budget(verifier, prover, env.session_options, "full");
  EXPECT_TRUE(full.verdict.ok()) << full.verdict.detail;
  verifier.set_refresh_only(true);
  const core::AttestationReport refresh =
      expect_within_budget(verifier, prover, env.session_options, "refresh");
  EXPECT_TRUE(refresh.verdict.ok()) << refresh.verdict.detail;
}

TEST(AllocationBudget, Virtex6RefreshSessionThatLosesAResponse) {
  // The ICAP stalls on command 2, readback step 1 of a refresh session, so
  // its response never comes. The 28,486 steps after it are ahead of the
  // verifier's stalled chain: none of them may be kept or cost a message.
  register_instruments();
  const attacks::AttackEnv env = attacks::AttackEnv::virtex6(1);
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  ASSERT_TRUE(core::run_attestation(verifier, prover, env.session_options)
                  .verdict.ok());
  verifier.set_refresh_only(true);
  core::SessionOptions options = env.session_options;
  options.reliable = false;
  core::SessionHooks hooks;
  hooks.before_command = [](std::size_t index, core::SachaProver& device) {
    if (index == 2) device.inject_stall(1);
  };
  const core::AttestationReport report =
      expect_within_budget(verifier, prover, options, "lost-response", hooks);
  EXPECT_EQ(report.failure, core::FailureKind::kTimeoutExhausted);
  EXPECT_EQ(report.verdict.detail,
            "missing or bad readback response at step 1");
}

TEST(AllocationBudget, Virtex6HeapLoadHoldsTheTablesOnly) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "live-byte accounting needs glibc's malloc_usable_size";
#else
  const attacks::AttackEnv env = attacks::AttackEnv::virtex6(1);
  const std::string path = ::testing::TempDir() + "alloc_budget_v6_" +
                           std::to_string(::getpid()) + ".sgm";
  std::size_t table_bytes = 0;
  {
    const bitstream::GoldenModel built(env.plan, env.static_spec,
                                       env.app_spec);
    ASSERT_TRUE(built.save(path, env.plan));
    table_bytes = built.footprint_bytes();
  }
  const std::int64_t before = g_live_bytes.load();
  g_peak_live_bytes.store(before);
  const auto loaded = bitstream::GoldenModel::load(path, env.plan,
                                                   env.static_spec,
                                                   env.app_spec);
  const std::int64_t peak = g_peak_live_bytes.load() - before;
  std::filesystem::remove(path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->footprint_bytes(), table_bytes);
  constexpr std::int64_t kSlack = std::int64_t{1} << 20;
  std::printf("heap load: peak %.2f MiB live for %.2f MiB of tables\n",
              static_cast<double>(peak) / (1 << 20),
              static_cast<double>(table_bytes) / (1 << 20));
  EXPECT_LE(peak, static_cast<std::int64_t>(table_bytes) + kSlack)
      << "a heap load held more than the two tables plus 1 MiB";
#endif
}

}  // namespace
}  // namespace sacha
