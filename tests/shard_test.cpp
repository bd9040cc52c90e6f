// Shard layer: consistent-hash ring properties (determinism, balance,
// bounded movement), coordinator routing (every HELLO redirected, any
// other wire version refused with a typed error by the coordinator and by
// attestd alike), shard-death repair driven by FaultPlan vocabulary, the
// fleet Merkle rollup, the aggregated /metrics + /statusz endpoints, and
// the HTTP hygiene table shared with attestd.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/swarm.hpp"
#include "crypto/merkle.hpp"
#include "fault/plan.hpp"
#include "net/attest_client.hpp"
#include "net/attest_server.hpp"
#include "net/provision.hpp"
#include "net/wire.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "shard/coordinator.hpp"
#include "shard/hash_ring.hpp"
#include "http_hygiene.hpp"

using namespace sacha;

namespace {

using testing_http::http_get;

// ---- hash ring ------------------------------------------------------------

TEST(HashRing, OwnerIsDeterministicAndInsertionOrderIndependent) {
  shard::HashRing forward;
  shard::HashRing reverse;
  const std::vector<std::string> nodes = {"shard-0", "shard-1", "shard-2",
                                          "shard-3"};
  for (const auto& n : nodes) forward.add_node(n);
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    reverse.add_node(*it);
  }
  for (std::size_t i = 0; i < 512; ++i) {
    const std::string key = net::member_id(i);
    EXPECT_EQ(forward.owner(key), reverse.owner(key)) << key;
    EXPECT_EQ(forward.owner(key), forward.owner(key)) << key;
  }
}

TEST(HashRing, VirtualNodesSpreadKeysOverEveryNode) {
  shard::HashRing ring(/*vnodes=*/64);
  constexpr std::size_t kNodes = 4;
  for (std::size_t i = 0; i < kNodes; ++i) {
    ring.add_node("shard-" + std::to_string(i));
  }
  std::map<std::string, std::size_t> owned;
  constexpr std::size_t kKeys = 2000;
  for (std::size_t i = 0; i < kKeys; ++i) {
    ++owned[ring.owner(net::member_id(i))];
  }
  ASSERT_EQ(owned.size(), kNodes) << "every node must own some keys";
  for (const auto& [node, count] : owned) {
    // 64 vnodes keep the spread well inside [5%, 60%] of a fair share 25%.
    EXPECT_GT(count, kKeys / 20) << node;
    EXPECT_LT(count, (kKeys * 3) / 5) << node;
  }
}

TEST(HashRing, NodeLossMovesOnlyTheLostNodesKeys) {
  constexpr std::size_t kNodes = 4;
  constexpr std::size_t kKeys = 2000;
  shard::HashRing ring;
  for (std::size_t i = 0; i < kNodes; ++i) {
    ring.add_node("shard-" + std::to_string(i));
  }
  std::vector<std::string> before(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    before[i] = ring.owner(net::member_id(i));
  }
  const std::string removed = "shard-2";
  ring.remove_node(removed);
  EXPECT_FALSE(ring.contains(removed));
  std::size_t moved = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::string& after = ring.owner(net::member_id(i));
    if (before[i] == removed) {
      EXPECT_NE(after, removed);
      ++moved;
    } else {
      // The consistent-hash contract: keys on surviving nodes never move.
      EXPECT_EQ(after, before[i]) << net::member_id(i);
    }
  }
  // Only the dead node's ~1/K of the keyspace relocates.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, kKeys / 2);
}

TEST(HashRing, EmptyRingHasNoOwner) {
  shard::HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.owner("anything"), "");
  ring.add_node("only");
  EXPECT_EQ(ring.owner("anything"), "only");
  ring.remove_node("only");
  EXPECT_TRUE(ring.empty());
}

// ---- coordinator ----------------------------------------------------------

/// The in-process oracle the routed fleet must match verdict-for-verdict
/// (same construction as the net-service bit-identity tests).
core::SwarmReport oracle_run(const net::FleetSpec& spec, std::size_t members,
                             const std::set<std::size_t>& tampered) {
  std::deque<attacks::AttackEnv> envs;
  std::deque<core::SachaVerifier> verifiers;
  std::deque<core::SachaProver> provers;
  std::vector<core::SwarmMember> swarm;
  for (std::size_t i = 0; i < members; ++i) {
    envs.push_back(
        net::member_env(net::member_scale(spec, i), spec.base_seed + i));
    verifiers.push_back(envs.back().make_verifier());
    provers.push_back(envs.back().make_prover());
  }
  for (std::size_t i = 0; i < members; ++i) {
    core::SwarmMember member{net::member_id(i), &verifiers[i], &provers[i],
                             {}};
    if (tampered.count(i) > 0) {
      member.hooks.after_config = [](core::SachaProver& p) {
        bitstream::Frame f = p.memory().config_frame(5);
        f.flip_bit(7);
        p.memory().write_frame(5, f);
      };
    }
    swarm.push_back(std::move(member));
  }
  core::SwarmOptions options;
  options.session = envs.front().session_options;
  options.session.seed = spec.session_seed;
  options.schedule = core::SwarmSchedule::kMultiplexed;
  options.retry_budget = 0;
  return core::attest_swarm(swarm, options);
}

net::LoadOptions coord_load(const shard::ShardCoordinator& coordinator,
                            std::size_t members) {
  net::LoadOptions load;
  load.host = "127.0.0.1";
  load.port = coordinator.port();
  load.members = members;
  load.timeout_ms = 60000;
  return load;
}

TEST(ShardCoordinator, RedirectRoutingIsBitIdenticalToOracle) {
  net::FleetSpec spec;
  spec.mixed = true;
  constexpr std::size_t kMembers = 8;
  const std::set<std::size_t> tampered = {1, 3};
  const core::SwarmReport oracle = oracle_run(spec, kMembers, tampered);

  shard::CoordinatorOptions options;
  options.shards = 2;
  shard::ShardCoordinator coordinator(options);
  ASSERT_TRUE(coordinator.start().ok());
  ASSERT_NE(coordinator.port(), 0);
  ASSERT_EQ(coordinator.shard_count(), 2u);
  ASSERT_EQ(coordinator.alive_shards(), 2u);

  net::LoadOptions load = coord_load(coordinator, kMembers);
  load.fleet = spec;
  load.tampered = tampered;
  const net::LoadResult result = net::run_load(load);

  EXPECT_TRUE(result.all_completed());
  EXPECT_EQ(result.redirects, kMembers)
      << "every v4 member must be routed via a redirect HELLO_ACK";
  EXPECT_EQ(result.attested, kMembers - tampered.size());
  for (std::size_t i = 0; i < kMembers; ++i) {
    const core::SwarmMemberResult& want = oracle.members[i];
    const net::MemberOutcome& got = result.members[i];
    EXPECT_TRUE(got.redirected) << i;
    EXPECT_EQ(got.report.protocol_ok, want.verdict.protocol_ok) << i;
    EXPECT_EQ(got.report.mac_ok, want.verdict.mac_ok) << i;
    EXPECT_EQ(got.report.config_ok, want.verdict.config_ok) << i;
    EXPECT_EQ(got.report.failure, want.failure) << i;
    ASSERT_TRUE(got.client_mac.has_value()) << i;
    ASSERT_TRUE(want.mac.has_value()) << i;
    EXPECT_EQ(*got.client_mac, *want.mac) << i;
  }
  const shard::CoordinatorStats stats = coordinator.stats();
  EXPECT_GE(stats.accepted, kMembers);
  EXPECT_EQ(stats.redirects, kMembers);
  EXPECT_EQ(stats.shards_lost, 0u);

  // The router and the session layer agree on ownership: each member's
  // owner_index names a live shard.
  for (std::size_t i = 0; i < kMembers; ++i) {
    const std::size_t owner = coordinator.owner_index(net::member_id(i));
    ASSERT_LT(owner, coordinator.shard_count());
    EXPECT_TRUE(coordinator.shard(owner).alive);
  }
  coordinator.stop();
}

/// Sends `stream` to 127.0.0.1:`port` over a blocking socket and returns
/// the ERROR frame that answers it (the test fails on any other answer).
net::ErrorMsg answer_error(std::uint16_t port, const Bytes& stream) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, stream.data(), stream.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(stream.size()));
  net::FrameDecoder decoder;
  std::optional<net::Frame> reply;
  char buf[4096];
  while (!reply.has_value()) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder.feed(ByteSpan(reinterpret_cast<const std::uint8_t*>(buf),
                          static_cast<std::size_t>(n)));
    auto next = decoder.next();
    EXPECT_TRUE(next.ok()) << next.message();
    if (!next.ok()) break;
    reply = std::move(next).take();
  }
  ::close(fd);
  EXPECT_TRUE(reply.has_value()) << "connection closed without a reply";
  if (!reply.has_value()) return {};
  EXPECT_EQ(reply->kind, net::FrameKind::kError);
  auto error = net::ErrorMsg::decode(reply->payload);
  EXPECT_TRUE(error.ok()) << error.message();
  return error.ok() ? std::move(error).take() : net::ErrorMsg{};
}

TEST(ShardCoordinator, OtherWireVersionsGetTypedDecodeErrorFromBothFrontDoors) {
  // A well-formed HELLO framed as version 3: neither front door decodes
  // it, and both answer with the typed decode error instead of routing or
  // running a session.
  const net::HelloMsg hello = net::member_hello(net::FleetSpec{}, 0);
  Bytes old_frame = net::encode_frame({net::FrameKind::kHello, hello.encode()});
  old_frame[2] = 3;

  shard::CoordinatorOptions options;
  options.shards = 2;
  shard::ShardCoordinator coordinator(options);
  ASSERT_TRUE(coordinator.start().ok());
  EXPECT_EQ(answer_error(coordinator.port(), old_frame).failure,
            core::FailureKind::kDecodeError);
  EXPECT_EQ(coordinator.stats().redirects, 0u);
  coordinator.stop();

  net::AttestServer server;
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(answer_error(server.port(), old_frame).failure,
            core::FailureKind::kDecodeError);
  EXPECT_EQ(server.stats().sessions_completed, 0u);
  server.stop();
}

TEST(ShardCoordinator, ShardDeathRepairsRingAndKeepsServing) {
  shard::CoordinatorOptions options;
  options.shards = 3;
  options.health_interval_ms = 50;
  shard::ShardCoordinator coordinator(options);
  ASSERT_TRUE(coordinator.start().ok());
  ASSERT_EQ(coordinator.alive_shards(), 3u);

  constexpr std::size_t kMembers = 8;
  const net::LoadResult warm = net::run_load(coord_load(coordinator, kMembers));
  ASSERT_TRUE(warm.all_completed());

  // Ownership before the fault, to check bounded movement after repair.
  std::vector<std::size_t> owner_before(kMembers);
  for (std::size_t i = 0; i < kMembers; ++i) {
    owner_before[i] = coordinator.owner_index(net::member_id(i));
  }

  // The kill is spelled in FaultPlan vocabulary — the same "crash=<k>"
  // clause the session-level fault tests use, aimed at a shard index.
  const auto plan = fault::FaultPlan::parse("crash=1");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan.value().crash.has_value());
  const std::size_t victim = plan.value().crash->at_command;

  // A rollup covers a shard only through a scrape that reached it, so
  // scrape once after the warm load: the victim's audit chain must cover
  // every member it owns before it dies.
  coordinator.refresh();
  const shard::ShardInfo before_kill = coordinator.shard(victim);
  ASSERT_TRUE(before_kill.scraped);
  const auto victim_members = static_cast<std::uint64_t>(
      std::count(owner_before.begin(), owner_before.end(), victim));
  EXPECT_EQ(before_kill.audit_entries, victim_members);
  ASSERT_TRUE(coordinator.kill_shard(victim));

  // One synchronous control pass reaps the corpse and repairs the ring.
  for (int tries = 0; coordinator.alive_shards() == 3 && tries < 100;
       ++tries) {
    coordinator.refresh();
  }
  EXPECT_EQ(coordinator.alive_shards(), 2u);
  EXPECT_FALSE(coordinator.shard(victim).alive);
  EXPECT_EQ(coordinator.stats().shards_lost, 1u);

  // Bounded movement: members owned by survivors keep their shard; the
  // victim's members all land on live shards.
  for (std::size_t i = 0; i < kMembers; ++i) {
    const std::size_t owner = coordinator.owner_index(net::member_id(i));
    ASSERT_LT(owner, coordinator.shard_count());
    EXPECT_NE(owner, victim) << net::member_id(i);
    EXPECT_TRUE(coordinator.shard(owner).alive);
    if (owner_before[i] != victim) {
      EXPECT_EQ(owner, owner_before[i])
          << "survivor-owned key must not move when another shard dies";
    }
  }

  // The fleet keeps attesting over the repaired ring.
  const net::LoadResult after = net::run_load(coord_load(coordinator, kMembers));
  EXPECT_TRUE(after.all_completed());
  EXPECT_EQ(after.attested, kMembers);

  // The dead shard's last scraped audit head stays covered by the rollup.
  coordinator.refresh();
  const shard::FleetRollup rollup = coordinator.rollup();
  EXPECT_EQ(rollup.shards_covered, 3u);
  coordinator.stop();
}

TEST(ShardCoordinator, FleetMerkleRootFoldsPerShardAuditHeads) {
  shard::CoordinatorOptions options;
  options.shards = 2;
  shard::ShardCoordinator coordinator(options);
  ASSERT_TRUE(coordinator.start().ok());

  constexpr std::size_t kMembers = 16;
  const net::LoadResult result = net::run_load(coord_load(coordinator, kMembers));
  ASSERT_TRUE(result.all_completed());

  coordinator.refresh();
  const shard::FleetRollup rollup = coordinator.rollup();
  ASSERT_EQ(rollup.leaves.size(), 2u);
  EXPECT_EQ(rollup.shards_covered, 2u);
  EXPECT_EQ(rollup.audit_entries, kMembers)
      << "per-shard audit chains must jointly cover every session";
  EXPECT_NE(rollup.root, crypto::Sha256Digest{});

  // The root is exactly merkle_root over the per-shard heads in shard
  // order — independently recomputable by an external auditor.
  std::vector<crypto::Sha256Digest> leaves;
  std::uint64_t entries = 0;
  for (std::size_t i = 0; i < coordinator.shard_count(); ++i) {
    const shard::ShardInfo info = coordinator.shard(i);
    EXPECT_TRUE(info.scraped);
    leaves.push_back(info.audit_head);
    entries += info.audit_entries;
  }
  EXPECT_EQ(entries, kMembers);
  EXPECT_EQ(crypto::merkle_root(std::span<const crypto::Sha256Digest>(leaves)),
            rollup.root);
  // With sessions on both shards, both heads are live chains.
  for (const auto& leaf : leaves) {
    EXPECT_NE(leaf, crypto::Sha256Digest{});
  }
  coordinator.stop();
}

TEST(ShardCoordinator, AggregatedEndpointsMergeShardScrapes) {
  obs::set_enabled(true);  // inherited by the forked shards
  obs::MetricsRegistry::global().reset_values();

  shard::CoordinatorOptions options;
  options.shards = 2;
  shard::ShardCoordinator coordinator(options);
  ASSERT_TRUE(coordinator.start().ok());

  constexpr std::size_t kMembers = 8;
  const net::LoadResult result = net::run_load(coord_load(coordinator, kMembers));
  ASSERT_TRUE(result.all_completed());
  coordinator.refresh();

  // /metrics: coordinator routing counters plus the union of both shard
  // scrapes (counters summed, histogram buckets merged element-wise).
  const std::string metrics = http_get(coordinator.port(), "/metrics");
  ASSERT_NE(metrics.find("200 OK"), std::string::npos);
  const std::size_t body_at = metrics.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const obs::MetricsSnapshot merged =
      obs::parse_prometheus_text(metrics.substr(body_at + 4));
  EXPECT_GE(merged.counter_value("sacha_coord_accepted"), kMembers);
  EXPECT_EQ(merged.counter_value("sacha_coord_redirects"), kMembers);
  EXPECT_GE(merged.counter_value("sacha_attestd_hello_accepted"), kMembers)
      << "shard-side counters must be summed into the fleet export";
  const obs::HistogramSample* sessions = nullptr;
  for (const auto& h : merged.histograms) {
    if (h.name == "sacha_attestd_session_ns") sessions = &h;
  }
  ASSERT_NE(sessions, nullptr);
  EXPECT_GE(sessions->count, kMembers)
      << "per-shard latency histograms must merge, not average";

  // /statusz: shard table and fleet rollup.
  const std::string statusz = http_get(coordinator.port(), "/statusz");
  EXPECT_NE(statusz.find("\"role\":\"coordinator\""), std::string::npos);
  EXPECT_NE(statusz.find("\"shards\":["), std::string::npos);
  EXPECT_NE(statusz.find("\"merkle_root\":"), std::string::npos);

  // /healthz: alive while any shard lives.
  EXPECT_NE(http_get(coordinator.port(), "/healthz").find("200 OK"),
            std::string::npos);

  coordinator.stop();
  obs::MetricsRegistry::global().reset_values();
  obs::set_enabled(false);
}

TEST(ShardCoordinator, HttpHygieneMatchesAttestd) {
  shard::CoordinatorOptions options;
  options.shards = 1;
  shard::ShardCoordinator coordinator(options);
  ASSERT_TRUE(coordinator.start().ok());
  coordinator.refresh();  // /metrics re-exports the first control pass
  testing_http::expect_http_hygiene(coordinator.port(),
                                    "/metrics /healthz /statusz");
  EXPECT_GE(coordinator.stats().http_requests, 5u);
  coordinator.stop();
}

}  // namespace
