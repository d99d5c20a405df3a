// The mesh router core under fabricated time: health polls, reaps, heals,
// withdrawals and start-marks as decisions at a given `now`, driven by
// FramePump::drain(now) and on_tick(now) over the memory fabric. The
// nodes are raw endpoints the test reads and writes; there is no thread
// and no sleep.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "cluster/mesh/router.hpp"

namespace {

using namespace cluster;
using namespace cluster::mesh;
using namespace std::chrono_literals;

const TimePoint kT0 = TimePoint{} + 1h;  // an arbitrary origin

/// A router core on the last rank of a fabric whose other ranks are nodes.
struct RouterRig {
  std::vector<std::unique_ptr<Transport>> fabric;
  std::unique_ptr<RouterCore> core;

  explicit RouterRig(int nodes) : fabric(make_memory_fabric(nodes + 1)) {
    MeshRouterOptions o;
    for (int n = 0; n < nodes; ++n) o.nodes.push_back(std::uint32_t(n));
    o.health_interval = 5ms;
    o.reap_after = 150ms;
    o.retry_backoff = 20ms;
    core = std::make_unique<RouterCore>(router(), o);
  }

  Transport& router() { return *fabric.back(); }
  [[nodiscard]] int rank() const { return int(fabric.size()) - 1; }

  /// Every frame queued at node `n`, decoded, oldest first.
  std::vector<Message> inbox(int n) {
    std::vector<Message> out;
    std::vector<std::uint8_t> frame;
    while (fabric[std::size_t(n)]->recv(frame, 0us))
      out.push_back(decode(frame));
    return out;
  }
  /// kJobSubmit request ids queued at node `n` (other frames dropped).
  std::vector<std::uint64_t> submits(int n) {
    std::vector<std::uint64_t> ids;
    for (const Message& m : inbox(n))
      if (m.type == MsgType::kJobSubmit)
        ids.push_back(m.job_submit.request_id);
    return ids;
  }
  /// The node `rid` was sent to, draining every node's inbox.
  int routed_to(std::uint64_t rid) {
    int owner = -1;
    for (int n = 0; n < rank(); ++n)
      for (std::uint64_t id : submits(n))
        if (id == rid) owner = n;
    return owner;
  }

  void from(int n, const Message& m) {
    fabric[std::size_t(n)]->send(rank(), encode(m));
  }
  void pong(int n) { from(n, make_pong(std::uint32_t(n), 0)); }
  void started(int n, std::uint64_t rid) {
    from(n, make_job_started(std::uint32_t(n), rid));
  }
  void withdrawn(int n, std::uint64_t rid) {
    from(n, make_job_done(rid, anahy::kAborted, 0, {}, kJobDoneWithdrawn));
  }
  /// Delivers every frame the nodes sent, then runs the timers, at `now`.
  void at(TimePoint now) {
    core->pump().drain(now);
    core->on_tick(now);
  }
};

TEST(RouterCore, HealthPollGoesOutEveryInterval) {
  RouterRig rig(3);
  rig.core->on_tick(kT0);
  for (int n = 0; n < 3; ++n) {
    const std::vector<Message> in = rig.inbox(n);
    ASSERT_EQ(in.size(), 1u) << "node " << n;
    EXPECT_EQ(in[0].type, MsgType::kStatsQuery);
  }
  rig.core->on_tick(kT0 + 5ms - 1us);
  for (int n = 0; n < 3; ++n) EXPECT_TRUE(rig.inbox(n).empty());
  rig.core->on_tick(kT0 + 5ms);
  for (int n = 0; n < 3; ++n) EXPECT_EQ(rig.inbox(n).size(), 1u);
}

TEST(RouterCore, ReapReroutesUnstartedKeysAndKeepsStartedOnes) {
  RouterRig rig(3);
  rig.at(kT0);
  RouterSubmitOptions same_key;
  same_key.key = 0xC0FFEE;
  const std::uint64_t marked = rig.core->submit("f", {}, same_key, kT0);
  const std::uint64_t unmarked = rig.core->submit("f", {}, same_key, kT0);
  const int home = rig.routed_to(marked);
  ASSERT_GE(home, 0);
  rig.started(home, marked);
  rig.core->pump().drain(kT0);

  // Everyone but `home` keeps answering.
  for (int n = 0; n < 3; ++n)
    if (n != home) rig.pong(n);
  rig.at(kT0 + 100ms);
  for (int n = 0; n < 3; ++n) rig.inbox(n);  // drop polls and retries
  rig.at(kT0 + 150ms);
  EXPECT_EQ(rig.core->counters().reaps, 0u) << "reaped at reap_after";

  rig.at(kT0 + 150ms + 1us);
  EXPECT_EQ(rig.core->counters().reaps, 1u);
  EXPECT_EQ(rig.core->live_nodes().size(), 2u);
  int moved_to = -1;
  for (int n = 0; n < 3; ++n) {
    if (n == home) continue;
    for (std::uint64_t id : rig.submits(n)) {
      EXPECT_NE(id, marked) << "a started key left its node";
      if (id == unmarked) moved_to = n;
    }
  }
  EXPECT_NE(moved_to, -1) << "the unstarted key was not re-routed";
  EXPECT_EQ(rig.core->counters().reroutes, 1u);
  EXPECT_FALSE(rig.core->done(marked));
}

TEST(RouterCore, HealUnparksAndRetransmits) {
  RouterRig rig(1);
  rig.at(kT0);
  const std::uint64_t pinned = rig.core->submit("f", {}, {}, kT0);
  rig.started(0, pinned);
  rig.at(kT0 + 1ms);
  rig.at(kT0 + 200ms);
  ASSERT_EQ(rig.core->counters().reaps, 1u);
  rig.inbox(0);

  // No node is live: a new key parks instead of being sent anywhere.
  const std::uint64_t parked = rig.core->submit("f", {}, {}, kT0 + 201ms);
  EXPECT_TRUE(rig.submits(0).empty());

  const std::uint64_t retries = rig.core->counters().retries;
  rig.pong(0);
  rig.core->pump().drain(kT0 + 202ms);
  EXPECT_EQ(rig.core->counters().heals, 1u);
  const std::vector<std::uint64_t> sent = rig.submits(0);
  EXPECT_EQ(sent.size(), 2u);
  EXPECT_NE(std::find(sent.begin(), sent.end(), pinned), sent.end())
      << "the started key was not retransmitted to its node";
  EXPECT_NE(std::find(sent.begin(), sent.end(), parked), sent.end())
      << "the parked key was not routed";
  EXPECT_EQ(rig.core->counters().retries, retries + 1);
}

TEST(RouterCore, StartedKeyIsNotResentToAReapedNode) {
  RouterRig rig(1);
  rig.at(kT0);
  const std::uint64_t pinned = rig.core->submit("f", {}, {}, kT0);
  rig.started(0, pinned);
  rig.at(kT0 + 1ms);
  rig.at(kT0 + 200ms);  // silent past reap_after
  ASSERT_EQ(rig.core->counters().reaps, 1u);
  rig.inbox(0);

  // A second of 1 ms ticks inside the key's deadline: its backoff slices
  // pass many times over, and the dead node gets no copy of it.
  const std::uint64_t retries = rig.core->counters().retries;
  std::size_t resent = 0;
  for (auto t = kT0 + 201ms; t <= kT0 + 1201ms; t += 1ms) {
    rig.at(t);
    resent += rig.submits(0).size();
  }
  EXPECT_EQ(resent, 0u) << "a started key was resent to a reaped node";
  EXPECT_EQ(rig.core->counters().retries, retries);
  ASSERT_FALSE(rig.core->done(pinned));

  // The heal retransmits it exactly once.
  rig.pong(0);
  rig.core->pump().drain(kT0 + 1202ms);
  ASSERT_EQ(rig.core->counters().heals, 1u);
  EXPECT_EQ(rig.submits(0), std::vector<std::uint64_t>{pinned});
  EXPECT_EQ(rig.core->counters().retries, retries + 1);
}

TEST(RouterCore, WithdrawalExcludesTheNodeAndReroutes) {
  RouterRig rig(3);
  rig.at(kT0);
  const std::uint64_t rid = rig.core->submit("f", {}, {}, kT0);
  const int first = rig.routed_to(rid);
  ASSERT_GE(first, 0);

  rig.withdrawn(first, rid);
  rig.at(kT0 + 1ms);
  EXPECT_EQ(rig.core->counters().withdrawals, 1u);
  const int second = rig.routed_to(rid);
  ASSERT_GE(second, 0) << "the withdrawn key was not re-routed";
  EXPECT_NE(second, first);
  EXPECT_FALSE(rig.core->done(rid));

  // A late mark from the node that withdrew cannot pin the key there.
  rig.started(first, rid);
  rig.at(kT0 + 2ms);
  EXPECT_EQ(rig.core->counters().started_marks, 0u);
  rig.started(second, rid);
  rig.at(kT0 + 3ms);
  EXPECT_EQ(rig.core->counters().started_marks, 1u);
}

TEST(RouterCore, FirstStartMarkWins) {
  RouterRig rig(3);
  rig.at(kT0);
  const std::uint64_t rid = rig.core->submit("f", {}, {}, kT0);
  const int home = rig.routed_to(rid);
  ASSERT_GE(home, 0);
  const int thief = (home + 1) % 3;

  // A thief's mark arrives first and is adopted; the home node's later
  // mark loses.
  rig.started(thief, rid);
  rig.started(home, rid);
  rig.core->pump().drain(kT0 + 1ms);
  EXPECT_EQ(rig.core->counters().started_marks, 1u);

  // The key now lives on the thief: retries go there, not home.
  rig.at(kT0 + 100ms);
  EXPECT_TRUE(rig.submits(home).empty());
  EXPECT_FALSE(rig.submits(thief).empty());
}

TEST(RouterCore, CorruptFrameIsCountedAsRejected) {
  RouterRig rig(1);
  rig.fabric[0]->send(rig.rank(), {0x99, 0x01, 0x02});
  rig.pong(0);
  rig.core->pump().drain(kT0);
  EXPECT_EQ(rig.core->counters().rejected_frames, 1u);
  EXPECT_EQ(rig.core->live_nodes().size(), 1u);
}

}  // namespace
