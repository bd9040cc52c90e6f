// Telemetry layer: registry concurrency, histogram bucket edges, span
// nesting/ordering (including under the parallel swarm schedule), exporter
// golden outputs, and the report/audit wiring that links every verdict to
// its timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <thread>

#include "attacks/env.hpp"
#include "core/audit.hpp"
#include "core/swarm.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

using namespace sacha;

namespace {

/// Every test starts with telemetry on, a drained tracer, and zeroed
/// instruments, and leaves telemetry off (the library default) behind.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::Tracer::global().clear();
    obs::MetricsRegistry::global().reset_values();
  }
  void TearDown() override {
    obs::Tracer::global().clear();
    obs::MetricsRegistry::global().reset_values();
    obs::set_enabled(false);
  }
};

TEST_F(ObsTest, CounterIdentityAndBasics) {
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& a = registry.counter("test.identity");
  obs::Counter& b = registry.counter("test.identity");
  EXPECT_EQ(&a, &b) << "same name must resolve to the same instrument";
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
}

TEST_F(ObsTest, CountersFromManyThreadsSumExactly) {
  auto& registry = obs::MetricsRegistry::global();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50'000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&registry] {
      // Deliberately re-resolve by name per thread: registration must be
      // thread-safe and return the one shared instrument.
      obs::Counter& c = registry.counter("test.concurrent");
      obs::Histogram& h = registry.histogram("test.concurrent_hist");
      for (int i = 0; i < kIncrements; ++i) {
        c.add(1);
        h.observe(1'000);
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(registry.counter("test.concurrent").value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(registry.histogram("test.concurrent_hist").count(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST_F(ObsTest, DisabledInstrumentsDoNotCount) {
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& c = registry.counter("test.disabled");
  obs::Histogram& h = registry.histogram("test.disabled_hist");
  obs::set_enabled(false);
  c.add(5);
  h.observe(123);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  obs::set_enabled(true);
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
}

TEST_F(ObsTest, HistogramBucketEdges) {
  const std::uint64_t bounds[] = {10, 100, 1000};
  obs::Histogram h{std::span<const std::uint64_t>(bounds)};
  // `le` semantics: v <= bound lands in that bucket.
  h.observe(0);     // -> le=10
  h.observe(10);    // -> le=10 (edge inclusive)
  h.observe(11);    // -> le=100
  h.observe(100);   // -> le=100
  h.observe(101);   // -> le=1000
  h.observe(1000);  // -> le=1000
  h.observe(1001);  // -> overflow
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 100 + 101 + 1000 + 1001);
}

TEST_F(ObsTest, TraceIdDerivation) {
  const obs::TraceId a = obs::make_trace_id("device-1", 42);
  const obs::TraceId b = obs::make_trace_id("device-1", 42);
  const obs::TraceId c = obs::make_trace_id("device-2", 42);
  const obs::TraceId d = obs::make_trace_id("device-1", 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(obs::to_string(a).size(), 32u);
}

TEST_F(ObsTest, SpanNestingDepthAndContainment) {
  const obs::TraceId id = obs::make_trace_id("nest", 1);
  {
    obs::Span outer("outer", id);
    {
      obs::Span inner("inner", id);
      obs::Span sibling_after_inner_ends("ignored", {});
      // `inner` still open here: depth of this span is outer+2.
    }
    obs::Span second("second", id);
  }
  const auto records = obs::Tracer::global().drain();
  ASSERT_EQ(records.size(), 4u);
  const auto find = [&](const std::string& name) -> const obs::SpanRecord& {
    for (const auto& r : records) {
      if (r.name == name) return r;
    }
    ADD_FAILURE() << "missing span " << name;
    static obs::SpanRecord none;
    return none;
  };
  const auto& outer = find("outer");
  const auto& inner = find("inner");
  const auto& second = find("second");
  EXPECT_EQ(inner.depth, outer.depth + 1);
  EXPECT_EQ(second.depth, outer.depth + 1);
  // Containment: children start no earlier and end no later than the parent.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.duration_ns,
            outer.start_ns + outer.duration_ns);
  // Ordering: spans are recorded in end order, so inner precedes outer.
  EXPECT_LT(&inner - records.data(), &outer - records.data());
  // Sibling ordering within the parent.
  EXPECT_GE(second.start_ns, inner.start_ns + inner.duration_ns);
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  obs::set_enabled(false);
  {
    obs::Span span("invisible", obs::make_trace_id("x", 1));
  }
  EXPECT_EQ(obs::Tracer::global().size(), 0u);
}

TEST_F(ObsTest, SessionTimelinePhasesAndCoverage) {
  attacks::AttackEnv env = attacks::AttackEnv::small(7);
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  const auto report =
      core::run_attestation(verifier, prover, env.session_options);
  ASSERT_TRUE(report.verdict.ok());
  EXPECT_TRUE(report.trace_id.valid());
  EXPECT_GT(report.host_ns, 0u);

  const auto records = obs::Tracer::global().records();
  std::size_t rounds = 0;
  bool saw_configure = false, saw_nonce = false, saw_readback = false,
       saw_cmac = false, saw_verdict = false, saw_session = false;
  for (const auto& r : records) {
    if (r.trace != report.trace_id) continue;
    if (r.name == "configure.stream_in") saw_configure = true;
    if (r.name == "nonce.inject") saw_nonce = true;
    if (r.name == "readback.absorb") saw_readback = true;
    if (r.name == "cmac.finish") saw_cmac = true;
    if (r.name == "compare.verdict") saw_verdict = true;
    if (r.name == "session") saw_session = true;
    if (r.name == "readback.round") ++rounds;
  }
  EXPECT_TRUE(saw_configure);
  EXPECT_TRUE(saw_nonce);
  EXPECT_TRUE(saw_readback);
  EXPECT_TRUE(saw_cmac);
  EXPECT_TRUE(saw_verdict);
  EXPECT_TRUE(saw_session);
  EXPECT_EQ(rounds, verifier.readback_steps().size());
  // The phase spans tile the session: >= 95% of its wall-clock is covered.
  EXPECT_GE(obs::timeline_coverage(records, report.trace_id), 0.95);

  // Hot-path instruments moved with the session: the prover read exactly
  // the frames the verifier absorbed, and the MAC engine hashed exactly the
  // words the verifier streamed.
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const std::uint64_t frames =
      snap.counter_value("sacha.verifier.frames_absorbed");
  EXPECT_GT(frames, 0u);
  EXPECT_EQ(snap.counter_value("sacha.prover.icap_frames_read"), frames);
  EXPECT_EQ(snap.counter_value("sacha.prover.mac_update_bytes"),
            snap.counter_value("sacha.verifier.words_absorbed") * 4);
  EXPECT_EQ(snap.counter_value("sacha.session.attested"), 1u);
  EXPECT_GT(snap.counter_value("sacha.net.messages"), 0u);
}

/// One fleet run's trace: one swarm.member span per member under the fleet
/// trace, and each member's session timeline under its own id.
void expect_merged_fleet_timeline(core::SwarmSchedule schedule) {
  constexpr std::size_t kMembers = 8;
  // Coverage is a wall-clock property: on an oversubscribed host the OS can
  // preempt a worker between two back-to-back phase spans and the gap reads
  // as uncovered session time. The structural checks are asserted on every
  // attempt; only the 95% coverage bar gets retried before failing.
  double min_coverage = 0.0;
  for (int attempt = 0; attempt < 3 && min_coverage < 0.95; ++attempt) {
    obs::Tracer::global().clear();
    obs::MetricsRegistry::global().reset_values();
    std::deque<attacks::AttackEnv> envs;
    std::deque<core::SachaVerifier> verifiers;
    std::deque<core::SachaProver> provers;
    std::vector<core::SwarmMember> members;
    for (std::size_t i = 0; i < kMembers; ++i) {
      envs.push_back(attacks::AttackEnv::small(300 + i));
      verifiers.push_back(envs.back().make_verifier());
      provers.push_back(envs.back().make_prover());
    }
    for (std::size_t i = 0; i < kMembers; ++i) {
      members.push_back(core::SwarmMember{"node-" + std::to_string(i),
                                          &verifiers[i], &provers[i], {}});
    }
    const core::SwarmReport report = core::attest_swarm(members, schedule);
    ASSERT_TRUE(report.all_attested());
    EXPECT_TRUE(report.fleet_trace.valid());
    EXPECT_GT(report.host_ns, 0u);
    EXPECT_FALSE(report.metrics.empty())
        << "enabled runs must snapshot the registry into the report";
    EXPECT_EQ(report.metrics.counter_value("sacha.session.attested"),
              kMembers);

    const auto records = obs::Tracer::global().records();
    // One merged timeline: every member's session spans are present, each
    // with its own trace id, and each session's phase spans cover >= 95% of
    // that member's wall-clock (the acceptance bar for the fleet timeline).
    std::size_t member_spans = 0;
    for (const auto& r : records) {
      if (r.name == "swarm.member" && r.trace == report.fleet_trace) {
        ++member_spans;
      }
    }
    EXPECT_EQ(member_spans, kMembers);
    min_coverage = 1.0;
    for (const auto& m : report.members) {
      ASSERT_TRUE(m.trace_id.valid()) << m.id;
      EXPECT_GT(m.host_ns, 0u) << m.id;
      min_coverage =
          std::min(min_coverage, obs::timeline_coverage(records, m.trace_id));
    }
    // Member trace ids are distinct — the merged stream stays separable.
    for (std::size_t i = 0; i < kMembers; ++i) {
      for (std::size_t j = i + 1; j < kMembers; ++j) {
        EXPECT_NE(report.members[i].trace_id, report.members[j].trace_id);
      }
    }
    // The Chrome export of the merged timeline is one well-formed JSON
    // object containing every member's lane.
    const std::string chrome = obs::chrome_trace_json(records);
    EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
    for (const auto& m : report.members) {
      EXPECT_NE(chrome.find(obs::to_string(m.trace_id)), std::string::npos)
          << m.id;
    }
  }
  EXPECT_GE(min_coverage, 0.95);
}

TEST_F(ObsTest, ParallelSwarmTimelineMergesAllMembers) {
  // Every schedule runs its members through the fleet engine, so every
  // schedule leaves the same trace shape.
  for (const core::SwarmSchedule schedule :
       {core::SwarmSchedule::kSerial, core::SwarmSchedule::kParallel,
        core::SwarmSchedule::kMultiplexed}) {
    SCOPED_TRACE("schedule " + std::to_string(static_cast<int>(schedule)));
    expect_merged_fleet_timeline(schedule);
  }
}

TEST_F(ObsTest, AuditEntryLinksVerdictToTimeline) {
  attacks::AttackEnv env = attacks::AttackEnv::small(21);
  core::SachaVerifier verifier = env.make_verifier();
  core::SachaProver prover = env.make_prover();
  const auto report =
      core::run_attestation(verifier, prover, env.session_options);

  core::AuditLog log;
  log.append(prover.device_id(), verifier.nonce(), report);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.entries()[0].trace_id, report.trace_id);
  EXPECT_TRUE(log.verify_chain());

  // The trace id is covered by the hash chain: rewriting which timeline a
  // verdict claims to have is tamper-evident.
  core::AuditLog tampered = log;
  const_cast<core::AuditEntry&>(tampered.entries()[0]).trace_id.lo ^= 1;
  EXPECT_FALSE(tampered.verify_chain());
}

TEST_F(ObsTest, MetricsJsonGolden) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"sacha.a", 3});
  snap.gauges.push_back({"sacha.g", -2});
  snap.histograms.push_back({"sacha.h", {10, 20}, {1, 0, 2}, 3, 52});
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"sacha.a\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"sacha.g\": -2\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"sacha.h\": {\"count\": 3, \"sum\": 52, \"bounds\": [10,20], "
      "\"buckets\": [1,0,2]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(obs::metrics_json(snap), expected);
}

TEST_F(ObsTest, PrometheusTextGolden) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"sacha.verifier.frames_absorbed", 16});
  snap.gauges.push_back({"sacha.fleet.size", 4});
  snap.histograms.push_back({"sacha.net.transfer_sim_ns", {10, 20}, {1, 0, 2},
                             3, 52});
  const std::string expected =
      "# HELP sacha_verifier_frames_absorbed SACHa counter "
      "sacha.verifier.frames_absorbed\n"
      "# TYPE sacha_verifier_frames_absorbed counter\n"
      "sacha_verifier_frames_absorbed 16\n"
      "# HELP sacha_fleet_size SACHa gauge sacha.fleet.size\n"
      "# TYPE sacha_fleet_size gauge\n"
      "sacha_fleet_size 4\n"
      "# HELP sacha_net_transfer_sim_ns SACHa histogram "
      "sacha.net.transfer_sim_ns\n"
      "# TYPE sacha_net_transfer_sim_ns histogram\n"
      "sacha_net_transfer_sim_ns_bucket{le=\"10\"} 1\n"
      "sacha_net_transfer_sim_ns_bucket{le=\"20\"} 1\n"
      "sacha_net_transfer_sim_ns_bucket{le=\"+Inf\"} 3\n"
      "sacha_net_transfer_sim_ns_sum 52\n"
      "sacha_net_transfer_sim_ns_count 3\n";
  EXPECT_EQ(obs::prometheus_text(snap), expected);
}

TEST_F(ObsTest, ChromeTraceGolden) {
  obs::SpanRecord r;
  r.name = "session";
  r.category = "phase";
  r.trace = obs::TraceId{0x1122334455667788ULL, 0x99aabbccddeeff00ULL};
  r.thread_id = 0xdeadbeef;
  r.start_ns = 1'500;
  r.duration_ns = 2'250;
  r.args.emplace_back("device", "node-0");
  const std::string expected =
      "{\"traceEvents\": [\n"
      " {\"name\": \"session\", \"cat\": \"phase\", \"ph\": \"X\", "
      "\"pid\": 1, \"tid\": 0, \"ts\": 1.500, \"dur\": 2.250, \"args\": "
      "{\"trace_id\": \"112233445566778899aabbccddeeff00\", "
      "\"device\": \"node-0\"}}\n"
      "]}\n";
  EXPECT_EQ(obs::chrome_trace_json({r}), expected);
}

TEST_F(ObsTest, PrometheusNameSanitization) {
  // Dots (and anything else outside [a-zA-Z0-9_:]) become underscores.
  EXPECT_EQ(obs::prometheus_name("sacha.phase.configure.stream_in_ns"),
            "sacha_phase_configure_stream_in_ns");
  EXPECT_EQ(obs::prometheus_name("sacha.net.bytes-rx"), "sacha_net_bytes_rx");
  // Colons and underscores are legal and pass through.
  EXPECT_EQ(obs::prometheus_name("ns:metric_name"), "ns:metric_name");
  // A leading digit gets a prefix (names must start with [a-zA-Z_:]).
  EXPECT_EQ(obs::prometheus_name("9lives"), "_9lives");
  EXPECT_EQ(obs::prometheus_name(""), "");
}

TEST_F(ObsTest, PrometheusLabelEscaping) {
  EXPECT_EQ(obs::prometheus_label_escape("plain"), "plain");
  EXPECT_EQ(obs::prometheus_label_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prometheus_label_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::prometheus_label_escape("line\nbreak"), "line\\nbreak");
}

TEST_F(ObsTest, SamplerDecisionIsDeterministicPerTraceId) {
  // The keep/drop decision is a pure function of (id, rate): two unrelated
  // sampler instances at the same rate must agree on every id — this is
  // what lets the prover-side client and the verifier-side service sample
  // the same sessions with no coordination.
  obs::Sampler a(0.37);
  obs::Sampler b(0.37);
  for (std::uint64_t n = 0; n < 512; ++n) {
    const obs::TraceId id = obs::make_trace_id("det-device", n);
    EXPECT_EQ(a.should_sample(id), b.should_sample(id)) << n;
  }
  // Invalid (all-zero) ids are never sampled, at any rate.
  EXPECT_FALSE(obs::Sampler(1.0).should_sample(obs::TraceId{}));
}

TEST_F(ObsTest, SamplerRateBoundsAndFraction) {
  obs::Sampler none(0.0);
  obs::Sampler all(1.0);
  std::size_t kept_half = 0;
  constexpr std::size_t kIds = 4'096;
  obs::Sampler half(0.5);
  for (std::uint64_t n = 0; n < kIds; ++n) {
    const obs::TraceId id = obs::make_trace_id("frac-device", n);
    EXPECT_FALSE(none.should_sample(id));
    EXPECT_TRUE(all.should_sample(id));
    if (half.should_sample(id)) ++kept_half;
  }
  // The hash is uniform enough that 0.5 keeps roughly half (±10%).
  EXPECT_GT(kept_half, kIds * 2 / 5);
  EXPECT_LT(kept_half, kIds * 3 / 5);
  // Rate round-trips through the 2^64 threshold encoding.
  obs::Sampler s(0.01);
  EXPECT_NEAR(s.rate(), 0.01, 1e-9);
  s.set_rate(7.0);  // clamped
  EXPECT_EQ(s.rate(), 1.0);
  s.set_rate(-1.0);
  EXPECT_EQ(s.rate(), 0.0);
}

TEST_F(ObsTest, QuantileHistogramExtraction) {
  obs::QuantileHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0) << "no observations -> 0";
  // 1000 observations of ~1 ms: every quantile interpolates inside the
  // bucket holding 1e6 ns, so the estimate is within the bucket ratio
  // (~1.58) of the true value.
  for (int i = 0; i < 1000; ++i) h.observe(1'000'000);
  const double p50 = h.quantile(0.50);
  const double p99 = h.quantile(0.99);
  EXPECT_GT(p50, 1'000'000.0 / 1.6);
  EXPECT_LT(p50, 1'000'000.0 * 1.6);
  EXPECT_LE(p50, p99) << "quantiles are monotone in q";
  // Observations past the last bound clamp to it instead of inventing a
  // value beyond the tracked range.
  obs::QuantileHistogram over;
  over.observe(~0ULL);
  EXPECT_LE(over.quantile(1.0),
            static_cast<double>(obs::log_latency_buckets_ns().back()));

  // quantile_from_sample is the offline counterpart: feeding it the
  // snapshot of the same histogram yields the same estimate.
  obs::HistogramSample sample;
  sample.name = "q";
  const auto bounds = obs::log_latency_buckets_ns();
  sample.upper_bounds.assign(bounds.begin(), bounds.end());
  sample.bucket_counts = h.bucket_counts();
  sample.count = h.count();
  sample.sum = h.sum();
  EXPECT_DOUBLE_EQ(obs::quantile_from_sample(sample, 0.5), p50);
}

TEST_F(ObsTest, ObservePhaseDurationFeedsQuantileHistograms) {
  obs::observe_phase_duration("cmac.finish", 2'000'000);
  obs::observe_phase_duration("cmac.finish", 4'000'000);
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const obs::HistogramSample* found = nullptr;
  for (const auto& h : snap.histograms) {
    if (h.name == "sacha.phase.cmac.finish_ns") found = &h;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count, 2u);
  EXPECT_EQ(found->sum, 6'000'000u);
  const double p50 = obs::quantile_from_sample(*found, 0.5);
  EXPECT_GT(p50, 0.0);
  // Disabled telemetry drops the observation entirely.
  obs::set_enabled(false);
  obs::observe_phase_duration("cmac.finish", 8'000'000);
  obs::set_enabled(true);
  EXPECT_EQ(obs::MetricsRegistry::global()
                .quantile_histogram("sacha.phase.cmac.finish_ns")
                .count(),
            2u);
}

TEST_F(ObsTest, SloTrackerBudgetAndBurn) {
  // Target 0.9 -> 10% error budget. Nine fast successes and one slow
  // success: the slow one misses the latency clause, so the budget is
  // exactly exhausted and the burn rate is exactly 1.0 (1000 milli).
  obs::SloTracker slo({.latency_objective_ns = 1'000'000, .target = 0.9});
  for (int i = 0; i < 9; ++i) slo.record(100'000, true);
  slo.record(2'000'000, true);  // attested but over the objective
  EXPECT_EQ(slo.total(), 10u);
  EXPECT_EQ(slo.good(), 9u);
  EXPECT_EQ(slo.budget_remaining_ppm(), 0);
  EXPECT_EQ(slo.burn_rate_milli(), 1000);

  // All-good stream: untouched budget, zero burn.
  obs::SloTracker clean({.latency_objective_ns = 1'000'000, .target = 0.9});
  for (int i = 0; i < 5; ++i) clean.record(100, true);
  EXPECT_EQ(clean.budget_remaining_ppm(), 1'000'000);
  EXPECT_EQ(clean.burn_rate_milli(), 0);

  // Failures burn budget regardless of latency; a 0 objective disables the
  // latency clause so only failures count as bad.
  obs::SloTracker failures({.latency_objective_ns = 0, .target = 0.9});
  failures.record(999'999'999'999ULL, true);  // slow but ok: still good
  failures.record(1, false);                  // failed: bad
  EXPECT_EQ(failures.total(), 2u);
  EXPECT_EQ(failures.good(), 1u);

  // The gauges ride the registry so /metrics exports them.
  const auto snap = obs::MetricsRegistry::global().snapshot();
  bool saw_burn = false;
  for (const auto& g : snap.gauges) {
    if (g.name == "sacha.slo.burn_rate_milli") saw_burn = true;
  }
  EXPECT_TRUE(saw_burn);
}

TEST_F(ObsTest, ExportersHandleEmptyState) {
  obs::MetricsSnapshot empty;
  EXPECT_EQ(obs::metrics_json(empty),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": "
            "{}\n}\n");
  EXPECT_EQ(obs::prometheus_text(empty), "");
  EXPECT_EQ(obs::chrome_trace_json({}), "{\"traceEvents\": [\n]}\n");
}

TEST_F(ObsTest, HistogramMergeSampleAddsBucketsAndRejectsShape) {
  const std::uint64_t bounds[] = {10, 100, 1000};
  obs::Histogram hist{std::span<const std::uint64_t>(bounds)};
  hist.observe(5);
  hist.observe(500);

  obs::HistogramSample sample;
  sample.upper_bounds = {10, 100, 1000};
  sample.bucket_counts = {1, 2, 0, 3};  // + overflow
  sample.count = 6;
  sample.sum = 12345;
  ASSERT_TRUE(hist.merge_sample(sample));
  EXPECT_EQ(hist.count(), 8u);
  const auto counts = hist.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);  // own 5 + sample's 1
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);  // own 500
  EXPECT_EQ(counts[3], 3u);

  // Mismatched shapes must refuse and leave the histogram untouched.
  obs::HistogramSample wrong = sample;
  wrong.upper_bounds = {10, 100};
  wrong.bucket_counts = {1, 1, 1};
  EXPECT_FALSE(hist.merge_sample(wrong));
  EXPECT_EQ(hist.count(), 8u);
}

TEST_F(ObsTest, MergeIntoSumsByNameAcrossShards) {
  obs::MetricsSnapshot fleet;
  fleet.counters.push_back({"sacha_net_sessions_total", 10});
  fleet.gauges.push_back({"sacha_net_active", 2});
  fleet.histograms.push_back({"sacha_net_session_ns", {10, 100}, {1, 0, 1}, 2,
                              150});

  obs::MetricsSnapshot shard;
  shard.counters.push_back({"sacha_net_sessions_total", 5});
  shard.counters.push_back({"sacha_net_errors_total", 1});  // new to dst
  shard.gauges.push_back({"sacha_net_active", 3});
  shard.histograms.push_back({"sacha_net_session_ns", {10, 100}, {2, 1, 0}, 3,
                              60});

  obs::merge_into(fleet, shard);
  EXPECT_EQ(fleet.counter_value("sacha_net_sessions_total"), 15u);
  EXPECT_EQ(fleet.counter_value("sacha_net_errors_total"), 1u);
  ASSERT_EQ(fleet.gauges.size(), 1u);
  EXPECT_EQ(fleet.gauges[0].value, 5);
  ASSERT_EQ(fleet.histograms.size(), 1u);
  const obs::HistogramSample& merged = fleet.histograms[0];
  EXPECT_EQ(merged.count, 5u);
  EXPECT_EQ(merged.sum, 210u);
  EXPECT_EQ(merged.bucket_counts, (std::vector<std::uint64_t>{3, 1, 1}));
}

TEST_F(ObsTest, PrometheusTextParsesBackAndRoundTrips) {
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("sacha.net.sessions_total").add(7);
  registry.gauge("sacha.net.active").set(3);
  const std::uint64_t bounds[] = {10, 100};
  auto& hist = registry.histogram("sacha.net.session_ns",
                                  std::span<const std::uint64_t>(bounds));
  hist.observe(5);
  hist.observe(50);
  hist.observe(5000);  // overflow bucket

  const std::string text = obs::prometheus_text(registry.snapshot());
  const obs::MetricsSnapshot parsed = obs::parse_prometheus_text(text);
  EXPECT_EQ(parsed.counter_value("sacha_net_sessions_total"), 7u);
  ASSERT_FALSE(parsed.histograms.empty());
  const obs::HistogramSample* sample = nullptr;
  for (const auto& h : parsed.histograms) {
    if (h.name == "sacha_net_session_ns") sample = &h;
  }
  ASSERT_NE(sample, nullptr);
  // `le` buckets un-cumulate back to per-bucket counts, overflow recovered
  // from _count.
  EXPECT_EQ(sample->upper_bounds, (std::vector<std::uint64_t>{10, 100}));
  EXPECT_EQ(sample->bucket_counts, (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(sample->count, 3u);

  // Sanitized names are stable: re-emitting the parsed snapshot is a
  // fixed point.
  const std::string again = obs::prometheus_text(parsed);
  EXPECT_EQ(obs::prometheus_text(obs::parse_prometheus_text(again)), again);
}

}  // namespace
