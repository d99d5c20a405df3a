// anahy::mesh end-to-end over the in-memory fabric: weighted rendezvous
// routing, same-key locality, done-cache replication (exactly-once across
// retries landing on *different* nodes), liveness plumbing and
// kRejuvenate addressing (docs/MESH.md).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/mesh/mesh_node.hpp"
#include "cluster/mesh/router.hpp"
#include "cluster/message.hpp"
#include "compress/crc32.hpp"

namespace {

using namespace cluster;
using namespace cluster::mesh;
using namespace std::chrono_literals;

constexpr int kNodes = 3;
constexpr std::uint32_t kRouterRank = kNodes;      // rank 3
constexpr std::uint32_t kProbeRank = kNodes + 1;   // rank 4

/// A 3-node mesh + router + raw probe endpoint, with per-node execution
/// counters so tests can prove where (and how many times) a body ran.
struct MeshRig {
  std::vector<std::unique_ptr<Transport>> fabric;
  std::array<Registry, kNodes> registries;
  std::array<std::atomic<std::uint64_t>, kNodes> executions{};
  std::vector<std::unique_ptr<MeshNode>> nodes;

  explicit MeshRig(bool steal_enabled = true) {
    fabric = make_memory_fabric(kNodes + 2);
    for (int i = 0; i < kNodes; ++i) {
      auto* count = &executions[static_cast<std::size_t>(i)];
      registries[static_cast<std::size_t>(i)].add(
          "echo", [count](std::span<const std::uint8_t> in) {
            count->fetch_add(1, std::memory_order_relaxed);
            return std::vector<std::uint8_t>(in.begin(), in.end());
          });
      registries[static_cast<std::size_t>(i)].add(
          "sleepy", [count](std::span<const std::uint8_t> in) {
            count->fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(2ms);
            return std::vector<std::uint8_t>(in.begin(), in.end());
          });
      MeshNodeOptions o;
      o.self = static_cast<std::uint32_t>(i);
      for (int p = 0; p < kNodes; ++p)
        if (p != i) o.peers.push_back(static_cast<std::uint32_t>(p));
      o.routers = {kRouterRank};
      o.server.runtime.num_vps = 1;
      o.steal_enabled = steal_enabled;
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

  [[nodiscard]] MeshRouterOptions router_options() const {
    MeshRouterOptions o;
    for (int i = 0; i < kNodes; ++i)
      o.nodes.push_back(static_cast<std::uint32_t>(i));
    return o;
  }

  Transport& probe() { return *fabric[kProbeRank]; }

  /// Pumps the probe endpoint until `pred(msg)` or the deadline.
  bool probe_recv(const std::function<bool(const Message&)>& pred,
                  std::chrono::milliseconds deadline = 2000ms) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    std::vector<std::uint8_t> frame;
    while (std::chrono::steady_clock::now() < until) {
      if (!probe().recv(frame, 10'000us)) continue;
      DecodeResult d = decode_frame(frame);
      if (d.ok && pred(d.msg)) return true;
    }
    return false;
  }
};

/// A validly enveloped frame of type byte 5, the retired kShutdown that
/// once made a pump return. Hand-built: encode() cannot produce it.
std::vector<std::uint8_t> retired_shutdown_frame() {
  const std::vector<std::uint8_t> body = {5};
  ByteWriter w;
  w.u16(kFrameMagic);
  w.u8(kFrameVersion);
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.u32(compress::crc32(body));
  std::vector<std::uint8_t> frame = w.take();
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

TEST(MeshBasic, RouterResolvesEverySubmitAcrossNodes) {
  MeshRig rig;
  MeshRouter router(*rig.fabric[kRouterRank], rig.router_options());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 60; ++i)
    ids.push_back(router.submit("echo", {std::uint8_t(i)}));
  int spread = 0;
  for (std::uint64_t id : ids) {
    const auto r = router.wait(id);
    EXPECT_EQ(r.error, anahy::kOk);
  }
  EXPECT_EQ(rig.total_executions(), 60u);
  for (const auto& c : rig.executions)
    if (c.load(std::memory_order_relaxed) > 0) ++spread;
  // Distinct keys rendezvous across the fleet: with 60 keys over 3 equal
  // nodes, all three see work (P(missing one) is astronomically small).
  EXPECT_EQ(spread, kNodes);
  EXPECT_EQ(router.counters().replies, 60u);
  EXPECT_EQ(router.counters().unreachable, 0u);
}

TEST(MeshBasic, SameKeyRoutesToSameNode) {
  MeshRig rig(/*steal_enabled=*/false);
  MeshRouter router(*rig.fabric[kRouterRank], rig.router_options());
  RouterSubmitOptions o;
  o.key = 0xFEEDFACEu;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(router.submit("echo", {}, o));
  for (std::uint64_t id : ids) EXPECT_EQ(router.wait(id).error, anahy::kOk);
  int owners = 0;
  for (const auto& c : rig.executions)
    if (c.load(std::memory_order_relaxed) > 0) ++owners;
  EXPECT_EQ(owners, 1);  // locality: one key, one home
  EXPECT_EQ(rig.total_executions(), 20u);
}

TEST(MeshBasic, ReplicatedDoneCacheAnswersRetriesOnOtherNodes) {
  MeshRig rig;
  // A router keeps the fences open and the gossip heartbeats ticking.
  MeshRouter router(*rig.fabric[kRouterRank], rig.router_options());

  // Forge a wire submit from the probe endpoint to node 0.
  const std::uint64_t rid = 777;
  const auto frame = encode(make_job_submit(kProbeRank, rid, 1, -1, false,
                                            "echo", {1, 2, 3}));
  rig.probe().send(0, frame);
  ASSERT_TRUE(rig.probe_recv([&](const Message& m) {
    return m.type == MsgType::kJobDone && m.job_done.request_id == rid;
  }));
  EXPECT_EQ(rig.total_executions(), 1u);

  // Wait for the completion to gossip into node 1's replica.
  const auto until = std::chrono::steady_clock::now() + 2s;
  while (rig.nodes[1]->counters().replica_entries == 0 &&
         std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(1ms);
  ASSERT_GE(rig.nodes[1]->counters().replica_entries, 1u);

  // The same submit retried against a DIFFERENT node: answered from the
  // replica, executed nowhere.
  rig.probe().send(1, frame);
  ASSERT_TRUE(rig.probe_recv([&](const Message& m) {
    return m.type == MsgType::kJobDone && m.job_done.request_id == rid &&
           m.job_done.error == anahy::kOk;
  }));
  EXPECT_EQ(rig.total_executions(), 1u);
  EXPECT_EQ(rig.nodes[1]->frontend().replica_hits(), 1u);
}

TEST(MeshBasic, RouterIgnoresRetiredShutdownFrame) {
  MeshRig rig;
  MeshRouter router(*rig.fabric[kRouterRank], rig.router_options());
  // A peer's type-5 frame reaches the router pump ahead of the submit.
  rig.probe().send(kRouterRank, retired_shutdown_frame());
  const std::uint64_t id = router.submit("echo", {7});
  // Poll rather than wait(): a dead pump would never resolve the handle.
  const auto until = std::chrono::steady_clock::now() + 5s;
  while (!router.done(id) && std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(router.done(id)) << "router pump stopped";
  EXPECT_EQ(router.wait(id).error, anahy::kOk);
}

TEST(MeshBasic, StoppedRouterResolvesLateCallsAtOnce) {
  MeshRig rig;
  MeshRouter router(*rig.fabric[kRouterRank], rig.router_options());
  router.stop();
  const std::uint64_t id = router.submit("echo", {7});
  // Checked before wait(): a handle the stopped router strands would
  // block wait() forever.
  ASSERT_TRUE(router.done(id)) << "submit after stop() never resolves";
  EXPECT_EQ(router.wait(id).error, anahy::kUnreachable);
  EXPECT_EQ(router.counters().unreachable, 1u);
  // A control call after stop() answers empty instead of waiting out its
  // timeout.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(router.stats_text(0, 30s).empty());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 10s);
  EXPECT_EQ(rig.total_executions(), 0u);
}

TEST(MeshBasic, FrontEndAnswersPings) {
  MeshRig rig;
  rig.probe().send(0, encode(make_ping(kProbeRank, 99)));
  EXPECT_TRUE(rig.probe_recv([](const Message& m) {
    return m.type == MsgType::kPong && m.ping.token == 99;
  }));
}

TEST(MeshBasic, RejuvenateForwardsToTheAddressedNode) {
  MeshRig rig;
  // Addressed to node 1 but sent to node 0: the front-end forwards and
  // node 1 answers the probe directly.
  rig.probe().send(0, encode(make_rejuvenate(kProbeRank, 55, /*target=*/1)));
  ASSERT_TRUE(rig.probe_recv([](const Message& m) {
    return m.type == MsgType::kStatsReply && m.stats_reply.request_id == 55 &&
           !m.stats_reply.text.empty();
  }));
  EXPECT_EQ(rig.nodes[0]->frontend().rejuv_forwards(), 1u);
  EXPECT_EQ(rig.nodes[0]->frontend().rejuvenations(), 0u);
  EXPECT_EQ(rig.nodes[1]->frontend().rejuvenations(), 1u);
}

TEST(MeshBasic, ServeClientRejuvenatesATargetNodeThroughItsServer) {
  MeshRig rig;
  // The operator path of `anahy-aging --rejuvenate --node=N`: a plain
  // AsyncServeClient connected to node 0 addresses node 2, the front-end
  // forwards, and node 2's cycle report comes back to the client.
  AsyncServeClient client(rig.probe(), /*server_node=*/0);
  std::string report;
  EXPECT_EQ(client.rejuvenate(report, CallOptions{}, /*target=*/2),
            anahy::kOk);
  EXPECT_FALSE(report.empty());
  EXPECT_EQ(rig.nodes[0]->frontend().rejuv_forwards(), 1u);
  EXPECT_EQ(rig.nodes[2]->frontend().rejuvenations(), 1u);
}

TEST(MeshBasic, RouterRejuvenatesAndReadsStatsOfAnyNode) {
  MeshRig rig;
  MeshRouter router(*rig.fabric[kRouterRank], rig.router_options());
  const std::string report = router.rejuvenate(2);
  EXPECT_FALSE(report.empty());
  EXPECT_EQ(rig.nodes[2]->frontend().rejuvenations(), 1u);

  const std::string text = router.stats_text(0);
  // Satellite counters: front-end hardening and mesh state are rows on
  // the same page the health poller reads.
  EXPECT_NE(text.find("anahy_frontend_dedup_entries"), std::string::npos);
  EXPECT_NE(text.find("anahy_frontend_pings_sent_total"), std::string::npos);
  EXPECT_NE(text.find("anahy_mesh_gossip_rx_total"), std::string::npos);
}

TEST(MeshBasic, RouterHealthSnapshotTracksNodes) {
  MeshRig rig;
  MeshRouter router(*rig.fabric[kRouterRank], rig.router_options());
  // Health polls land within a few intervals.
  const auto until = std::chrono::steady_clock::now() + 2s;
  while (!router.health(0).parsed &&
         std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(router.health(0).parsed);
  EXPECT_EQ(router.live_nodes().size(), static_cast<std::size_t>(kNodes));
}

// The front-end's pump starts inside MeshNode's constructor, so it can
// handle a frame before the constructor has stored the front-end. A
// migrate grant queued before the node exists is the first thing the pump
// handles: the import submits the job and its body passes the start
// fence, so both hooks must reach the front-end through their argument.
TEST(MeshBasic, MigrateQueuedBeforeConstructionIsServed) {
  constexpr int kNode = 0;
  constexpr int kPeer = 1;
  constexpr int kClient = 2;
  auto fabric = make_memory_fabric(3);
  JobSubmitMsg job;
  job.client = kClient;
  job.request_id = 7;
  job.function = "echo";
  job.payload = {1, 2, 3};
  fabric[kPeer]->send(kNode, encode(make_job_migrate(kPeer, 1, {job})));

  Registry registry;
  registry.add("echo", [](std::span<const std::uint8_t> in) {
    return std::vector<std::uint8_t>(in.begin(), in.end());
  });
  MeshNodeOptions o;
  o.self = kNode;
  o.peers = {kPeer};
  o.server.runtime.num_vps = 1;
  MeshNode node(*fabric[kNode], registry, o);

  // The imported job runs and answers its original client (pings aside).
  Message done;
  std::vector<std::uint8_t> frame;
  while (done.type != MsgType::kJobDone &&
         fabric[kClient]->recv(frame, 5'000'000us))
    done = decode(frame);
  ASSERT_EQ(done.type, MsgType::kJobDone);
  EXPECT_EQ(done.job_done.request_id, 7u);
  EXPECT_EQ(done.job_done.error, static_cast<std::uint32_t>(anahy::kOk));
  EXPECT_EQ(done.job_done.payload, job.payload);
  EXPECT_EQ(node.counters().jobs_imported, 1u);
}

}  // namespace
