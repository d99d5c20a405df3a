// Job-level work stealing between mesh nodes: a skewed same-key burst on
// one node spills to the idle peer when stealing is on, stays put when it
// is off, and resolves exactly once either way (docs/MESH.md).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "cluster/mesh/mesh_node.hpp"
#include "cluster/mesh/router.hpp"
#include "cluster/message.hpp"

namespace {

using namespace cluster;
using namespace cluster::mesh;
using namespace std::chrono_literals;

constexpr int kNodes = 2;
constexpr std::uint32_t kRouterRank = kNodes;

struct StealRig {
  std::vector<std::unique_ptr<Transport>> fabric;
  std::array<Registry, kNodes> registries;
  std::array<std::atomic<std::uint64_t>, kNodes> executions{};
  std::vector<std::unique_ptr<MeshNode>> nodes;

  explicit StealRig(bool steal_enabled) {
    fabric = make_memory_fabric(kNodes + 1);
    for (int i = 0; i < kNodes; ++i) {
      auto* count = &executions[static_cast<std::size_t>(i)];
      registries[static_cast<std::size_t>(i)].add(
          "sleepy", [count](std::span<const std::uint8_t> in) {
            count->fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(3ms);
            return std::vector<std::uint8_t>(in.begin(), in.end());
          });
      MeshNodeOptions o;
      o.self = static_cast<std::uint32_t>(i);
      o.peers = {static_cast<std::uint32_t>(1 - i)};
      o.routers = {kRouterRank};
      o.server.runtime.num_vps = 1;
      o.steal_enabled = steal_enabled;
      // Aggressive thresholds so a modest burst triggers sharing fast.
      o.steal_wait_budget_ns = 1'000'000;  // 1ms of queue wait is too much
      o.steal_min_backlog = 2;
      nodes.push_back(std::make_unique<MeshNode>(
          *fabric[static_cast<std::size_t>(i)],
          registries[static_cast<std::size_t>(i)], o));
    }
  }

  [[nodiscard]] std::uint64_t total_executions() const {
    std::uint64_t n = 0;
    for (const auto& c : executions) n += c.load(std::memory_order_relaxed);
    return n;
  }
};

/// Fires `count` same-key batch jobs (all rendezvous to one home node) and
/// waits for every handle. Returns the per-test reply error tally.
int run_skewed_burst(MeshRouter& router, int count) {
  RouterSubmitOptions o;
  o.key = 0xD15EA5EDu;  // one home for the whole burst
  o.priority = 2;       // batch: first class the steal probe asks for
  o.deadline = 10s;     // serial worst case is count * 3ms; stay far away
  std::vector<std::uint64_t> ids;
  ids.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    ids.push_back(router.submit("sleepy", {std::uint8_t(i)}, o));
  int ok = 0;
  for (std::uint64_t id : ids)
    if (router.wait(id).error == anahy::kOk) ++ok;
  return ok;
}

TEST(MeshSteal, IdlePeerStealsFromTheLoadedNode) {
  StealRig rig(/*steal_enabled=*/true);
  MeshRouter router(*rig.fabric[kRouterRank],
                    MeshRouterOptions{{0, 1}});
  constexpr int kJobs = 24;
  EXPECT_EQ(run_skewed_burst(router, kJobs), kJobs);

  // Exactly-once across the handoff: every body ran somewhere, once.
  EXPECT_EQ(rig.total_executions(), static_cast<std::uint64_t>(kJobs));

  // The burst spilled: someone exported, someone imported, and the
  // counters agree with each other.
  std::uint64_t exported = 0, imported = 0;
  for (const auto& n : rig.nodes) {
    exported += n->counters().jobs_exported;
    imported += n->counters().jobs_imported;
  }
  EXPECT_GE(imported, 1u);
  EXPECT_EQ(imported, exported);

  // Both nodes ended up executing part of the same-key burst.
  EXPECT_GT(rig.executions[0].load(), 0u);
  EXPECT_GT(rig.executions[1].load(), 0u);
}

TEST(MeshSteal, DisabledStealingKeepsTheBurstHome) {
  StealRig rig(/*steal_enabled=*/false);
  MeshRouter router(*rig.fabric[kRouterRank],
                    MeshRouterOptions{{0, 1}});
  constexpr int kJobs = 12;
  EXPECT_EQ(run_skewed_burst(router, kJobs), kJobs);
  EXPECT_EQ(rig.total_executions(), static_cast<std::uint64_t>(kJobs));
  for (const auto& n : rig.nodes) {
    EXPECT_EQ(n->counters().jobs_imported, 0u);
    EXPECT_EQ(n->counters().jobs_exported, 0u);
  }
  // With the key pinned and no stealing, one node did all the work.
  const std::uint64_t a = rig.executions[0].load();
  const std::uint64_t b = rig.executions[1].load();
  EXPECT_TRUE(a == 0 || b == 0) << a << " vs " << b;
}

TEST(MeshSteal, StealCountersShowOnTheExpositionPage) {
  StealRig rig(/*steal_enabled=*/true);
  MeshRouter router(*rig.fabric[kRouterRank],
                    MeshRouterOptions{{0, 1}});
  EXPECT_EQ(run_skewed_burst(router, 16), 16);
  const std::string text = router.stats_text(0);
  EXPECT_NE(text.find("anahy_mesh_steal_probes_sent_total"),
            std::string::npos);
  EXPECT_NE(text.find("anahy_mesh_jobs_exported_total"), std::string::npos);
  EXPECT_NE(text.find("anahy_mesh_jobs_imported_total"), std::string::npos);
}

// An imported job is never exported again. Bounced back to its first
// victim, it would meet its own key in that victim's migrated set and be
// suppressed until its caller timed out (under TSan timing one job in 16
// of StealCountersShowOnTheExpositionPage did, as kUnreachable).
TEST(MeshSteal, ImportedJobIsNeverExportedAgain) {
  constexpr int kNode = 0;
  constexpr int kPeer = 1;
  constexpr int kClient = 2;
  auto fabric = make_memory_fabric(3);
  std::atomic<bool> release{false};
  std::atomic<int> echoes{0};
  Registry registry;
  registry.add("block", [&release](std::span<const std::uint8_t> in) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
    return std::vector<std::uint8_t>(in.begin(), in.end());
  });
  registry.add("echo", [&echoes](std::span<const std::uint8_t> in) {
    echoes.fetch_add(1);
    return std::vector<std::uint8_t>(in.begin(), in.end());
  });
  MeshNodeOptions o;
  o.self = kNode;
  o.peers = {kPeer};
  o.server.runtime.num_vps = 1;
  o.server.max_active = 1;  // the blocker holds the only slot
  o.steal_min_backlog = 0;  // a probe may take the whole backlog
  o.fence_us = 0;           // the submitters never ping
  MeshNode node(*fabric[kNode], registry, o);
  // Next frame of `type` at `at`, within 5 s.
  const auto next = [](Transport& at, MsgType type) -> std::optional<Message> {
    std::vector<std::uint8_t> frame;
    for (const auto until = std::chrono::steady_clock::now() + 5s;
         std::chrono::steady_clock::now() < until;) {
      if (!at.recv(frame, 10'000us)) continue;
      DecodeResult d = decode_frame(frame);
      if (d.ok && d.msg.type == type) return std::move(d.msg);
    }
    return std::nullopt;
  };

  // The peer occupies the node, then hands it an echo job that queues.
  fabric[kPeer]->send(
      kNode, encode(make_job_submit(kPeer, 1, 1, -1, false, "block", {})));
  JobSubmitMsg job;
  job.client = kClient;
  job.request_id = 2;
  job.function = "echo";
  job.payload = {42};
  fabric[kPeer]->send(kNode, encode(make_job_migrate(kPeer, 7, {job})));
  for (int i = 0; i < 5000; ++i) {  // until it runs one and queues one
    const anahy::serve::ServerStats st = node.server().stats();
    if (st.active == 1 && st.pending == 1) break;
    std::this_thread::sleep_for(1ms);
  }

  // A probe finds nothing to take: the imported job stays where it landed.
  fabric[kPeer]->send(kNode, encode(make_job_steal(kPeer, 8, 1, 4)));
  const auto grant = next(*fabric[kPeer], MsgType::kJobMigrate);
  ASSERT_TRUE(grant.has_value());
  EXPECT_TRUE(grant->job_migrate.jobs.empty());

  release = true;
  const auto done = next(*fabric[kClient], MsgType::kJobDone);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->job_done.payload, job.payload);
  EXPECT_EQ(echoes.load(), 1);
}

}  // namespace
