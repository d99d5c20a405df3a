// Unit tests of anahy::fault::FaultyTransport: every fault kind injects
// what it promises, decisions replay deterministically from the seed, and
// the injected-fault tallies surface through observe::render_text.
#include "anahy/fault/fault.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "anahy/observe/exposition.hpp"
#include "cluster/message.hpp"

namespace {

using namespace std::chrono_literals;
using anahy::fault::FaultProfile;
using anahy::fault::FaultStats;
using anahy::fault::FaultyTransport;
using anahy::fault::SeverEvent;

/// A valid hardened frame with a recognizable payload.
std::vector<std::uint8_t> test_frame(std::uint64_t tag) {
  return cluster::encode(cluster::make_ping(7, tag));
}

/// Drains everything currently deliverable at `t` (waits up to `grace` for
/// stragglers, e.g. delayed frames).
std::vector<std::vector<std::uint8_t>> drain(
    cluster::Transport& t, std::chrono::microseconds grace = 20'000us) {
  std::vector<std::vector<std::uint8_t>> out;
  std::vector<std::uint8_t> frame;
  while (t.recv(frame, grace)) out.push_back(frame);
  return out;
}

TEST(FaultyTransport, ZeroProfileIsTransparent) {
  auto fabric = cluster::make_memory_fabric(2);
  FaultyTransport faulty(std::move(fabric[0]), FaultProfile{});

  for (std::uint64_t i = 0; i < 16; ++i) faulty.send(1, test_frame(i));
  const auto got = drain(*fabric[1], 1000us);
  ASSERT_EQ(got.size(), 16u);
  for (std::uint64_t i = 0; i < 16; ++i) {
    auto d = cluster::decode_frame(got[i]);
    ASSERT_TRUE(d.ok);
    EXPECT_EQ(d.msg.ping.token, i) << "order preserved with no faults";
  }
  const FaultStats s = faulty.stats();
  EXPECT_EQ(s.sends, 16u);
  EXPECT_EQ(s.drops + s.duplicates + s.corruptions + s.truncations + s.delays +
                s.severed_sends,
            0u);
}

TEST(FaultyTransport, DropEverything) {
  auto fabric = cluster::make_memory_fabric(2);
  FaultProfile p;
  p.drop = 1.0;
  FaultyTransport faulty(std::move(fabric[0]), p);

  for (std::uint64_t i = 0; i < 8; ++i) faulty.send(1, test_frame(i));
  EXPECT_TRUE(drain(*fabric[1], 1000us).empty());
  EXPECT_EQ(faulty.stats().drops, 8u);
}

TEST(FaultyTransport, DuplicateEverything) {
  auto fabric = cluster::make_memory_fabric(2);
  FaultProfile p;
  p.duplicate = 1.0;
  FaultyTransport faulty(std::move(fabric[0]), p);

  for (std::uint64_t i = 0; i < 8; ++i) faulty.send(1, test_frame(i));
  EXPECT_EQ(drain(*fabric[1], 1000us).size(), 16u);
  EXPECT_EQ(faulty.stats().duplicates, 8u);
}

TEST(FaultyTransport, CorruptedFramesDieOnTheChecksum) {
  auto fabric = cluster::make_memory_fabric(2);
  FaultProfile p;
  p.corrupt = 1.0;
  FaultyTransport faulty(std::move(fabric[0]), p);

  for (std::uint64_t i = 0; i < 32; ++i) faulty.send(1, test_frame(i));
  const auto got = drain(*fabric[1], 1000us);
  ASSERT_EQ(got.size(), 32u) << "corruption mangles frames, not delivery";
  for (const auto& f : got) {
    auto d = cluster::decode_frame(f);
    // CRC-32 catches every single-bit flip in the body; a flip in the
    // envelope trips magic/version/length instead. Either way: rejected,
    // with a diagnostic in the ANAHY-F00x namespace.
    ASSERT_FALSE(d.ok);
    EXPECT_EQ(d.diagnostic.rfind("ANAHY-F00", 0), 0u) << d.diagnostic;
  }
  EXPECT_EQ(faulty.stats().corruptions, 32u);
}

TEST(FaultyTransport, TruncatedFramesAreRejectedNotMisparsed) {
  auto fabric = cluster::make_memory_fabric(2);
  FaultProfile p;
  p.truncate = 1.0;
  FaultyTransport faulty(std::move(fabric[0]), p);

  for (std::uint64_t i = 0; i < 32; ++i) faulty.send(1, test_frame(i));
  for (const auto& f : drain(*fabric[1], 1000us)) {
    auto d = cluster::decode_frame(f);
    ASSERT_FALSE(d.ok);
    EXPECT_EQ(d.diagnostic.rfind("ANAHY-F00", 0), 0u) << d.diagnostic;
  }
  EXPECT_EQ(faulty.stats().truncations, 32u);
}

TEST(FaultyTransport, DelayedFramesStillArrive) {
  auto fabric = cluster::make_memory_fabric(2);
  FaultProfile p;
  p.delay = 1.0;
  p.delay_min = 1'000us;
  p.delay_max = 5'000us;
  FaultyTransport faulty(std::move(fabric[0]), p);

  for (std::uint64_t i = 0; i < 8; ++i) faulty.send(1, test_frame(i));
  // Held frames are released when the faulty endpoint is next pumped
  // (send or recv), like a real slow link that needs its owner to turn the
  // crank. Pump until everything flushed, then drain the peer.
  std::size_t got = 0;
  std::vector<std::uint8_t> unused, frame;
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (got < 8 && std::chrono::steady_clock::now() < deadline) {
    faulty.recv(unused, 2'000us);  // flushes frames whose hold expired
    while (fabric[1]->recv(frame, 0us)) ++got;
  }
  EXPECT_EQ(got, 8u) << "delay reorders, never loses";
  EXPECT_EQ(faulty.stats().delays, 8u);
}

TEST(FaultyTransport, UnknownNodeIsRefusedOnTheCallersSend) {
  // With every frame held back, the inner send happens later inside some
  // other call; a bad destination must still throw from its own send().
  auto fabric = cluster::make_memory_fabric(2);
  FaultProfile p;
  p.delay = 1.0;
  FaultyTransport faulty(std::move(fabric[0]), p);
  EXPECT_THROW(faulty.send(2, test_frame(0)), std::runtime_error);
  EXPECT_THROW(faulty.send(-1, test_frame(1)), std::runtime_error);
  std::vector<std::uint8_t> unused;
  EXPECT_FALSE(faulty.recv(unused, 10'000us));
  EXPECT_EQ(faulty.stats().delays, 0u);
}

TEST(FaultyTransport, SeverScheduleCutsTheLinkMidRun) {
  auto fabric = cluster::make_memory_fabric(2);
  FaultyTransport faulty(std::move(fabric[0]), FaultProfile{},
                         {SeverEvent{/*after_op=*/5, /*peer=*/1}});

  for (std::uint64_t i = 0; i < 10; ++i) faulty.send(1, test_frame(i));
  const auto got = drain(*fabric[1], 1000us);
  ASSERT_EQ(got.size(), 5u) << "ops 0..4 delivered, 5..9 severed";
  for (std::uint64_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(cluster::decode_frame(got[i]).msg.ping.token, i);
  EXPECT_EQ(faulty.stats().severed_sends, 5u);

  faulty.heal(1);
  faulty.send(1, test_frame(99));
  const auto after = drain(*fabric[1], 1000us);
  ASSERT_EQ(after.size(), 1u) << "healed link delivers again";
}

TEST(FaultyTransport, SameSeedSameFaultSequence) {
  // Two injectors with identical seeds fed the identical send sequence
  // must make identical decisions — the chaos-replay guarantee.
  const auto run = [](std::uint64_t seed) {
    auto fabric = cluster::make_memory_fabric(2);
    FaultProfile p;
    p.seed = seed;
    p.drop = 0.2;
    p.duplicate = 0.15;
    p.corrupt = 0.1;
    p.truncate = 0.05;
    FaultyTransport faulty(std::move(fabric[0]), p);
    for (std::uint64_t i = 0; i < 500; ++i) faulty.send(1, test_frame(i));
    // Which ops survived, and how they were mangled, must replay exactly:
    // fingerprint the delivered byte stream.
    std::vector<std::vector<std::uint8_t>> delivered;
    std::vector<std::uint8_t> frame;
    while (fabric[1]->recv(frame, std::chrono::microseconds{1000}))
      delivered.push_back(frame);
    return std::make_pair(faulty.stats(), delivered);
  };

  const auto [stats_a, frames_a] = run(42);
  const auto [stats_b, frames_b] = run(42);
  EXPECT_EQ(stats_a.drops, stats_b.drops);
  EXPECT_EQ(stats_a.duplicates, stats_b.duplicates);
  EXPECT_EQ(stats_a.corruptions, stats_b.corruptions);
  EXPECT_EQ(stats_a.truncations, stats_b.truncations);
  EXPECT_EQ(frames_a, frames_b) << "same seed must replay byte-identically";

  // A different seed makes different decisions (overwhelmingly likely
  // over 500 ops; pinned here so a degenerate RNG regression is caught).
  const auto [stats_c, frames_c] = run(43);
  EXPECT_NE(frames_a, frames_c);
}

TEST(FaultyTransport, CountersRideTheExposition) {
  auto fabric = cluster::make_memory_fabric(2);
  FaultProfile p;
  p.drop = 1.0;
  FaultyTransport faulty(std::move(fabric[0]), p);
  for (std::uint64_t i = 0; i < 3; ++i) faulty.send(1, test_frame(i));

  const std::string text =
      anahy::observe::render_text(anahy::observe::Snapshot{}, {},
                                  faulty.counters());
  EXPECT_NE(text.find("anahy_fault_sends_total 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("anahy_fault_injected_total{kind=\"drop\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("anahy_fault_injected_total{kind=\"corrupt\"} 0"),
            std::string::npos)
      << text;
}

TEST(FaultyTransport, ForwardsIdentityAndOpIndex) {
  auto fabric = cluster::make_memory_fabric(3);
  FaultyTransport faulty(std::move(fabric[2]), FaultProfile{});
  EXPECT_EQ(faulty.node_id(), 2);
  EXPECT_EQ(faulty.node_count(), 3);
  EXPECT_EQ(faulty.op_index(), 0u);
  faulty.send(0, test_frame(0));
  EXPECT_EQ(faulty.op_index(), 1u);
}

}  // namespace
