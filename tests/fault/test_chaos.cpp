// Seeded chaos suite: the full serve/cluster stack under injected faults.
//
// A FaultyTransport sits under the client endpoint and drops, duplicates,
// corrupts, truncates and delays its frames per a seeded schedule. The
// stack's contract under that abuse:
//
//   * every call resolves exactly once, with a definite outcome;
//   * execution stays exactly-once (retries hit the dedup cache, never a
//     second run);
//   * throwing job bodies come back kFaulted with their message — faults
//     and network loss compose;
//   * a severed client is reaped and its jobs cancelled, and the link
//     works again after healing.
//
// Replayability: the injection schedule is a pure function of the seed,
// which every test logs. Re-run a failure with
//   ANAHY_CHAOS_SEED=<seed> ./test_chaos
// and the injector makes the same decisions on the same frames. (VP
// scheduling still varies; the *faults* do not.)
//
// Runs under the tsan/asan/ubsan matrix (and its own `chaos` ctest label).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>

#include "anahy/fault/fault.hpp"
#include "cluster/serve_frontend.hpp"

namespace {

using namespace cluster;
using namespace std::chrono_literals;
using anahy::fault::FaultProfile;
using anahy::fault::FaultyTransport;

/// Seed for this process: ANAHY_CHAOS_SEED overrides the baked-in default
/// (that is the replay knob the file comment advertises).
std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("ANAHY_CHAOS_SEED"))
    return std::strtoull(env, nullptr, 0);
  return 0xC0FFEEull;
}

std::atomic<std::uint64_t> g_executions{0};

std::vector<std::uint8_t> counted_sum(std::span<const std::uint8_t> in) {
  g_executions.fetch_add(1, std::memory_order_relaxed);
  std::uint32_t sum = 0;
  for (const std::uint8_t b : in) sum += b;
  ByteWriter w;
  w.u32(sum);
  return w.take();
}

std::vector<std::uint8_t> boom(std::span<const std::uint8_t>) {
  throw std::runtime_error("chaos boom");
}

/// Holds a VP long enough for heartbeat/reap machinery to observe an
/// in-flight job.
std::vector<std::uint8_t> slow_nop(std::span<const std::uint8_t>) {
  std::this_thread::sleep_for(300ms);
  return {};
}

void fill_chaos_registry(Registry& reg) {
  reg.add("counted_sum", counted_sum);
  reg.add("boom", boom);
  reg.add("slow_nop", slow_nop);
}

TEST(Chaos, LossyLinkEveryCallResolvesExactlyOnce) {
  const std::uint64_t seed = chaos_seed();
  RecordProperty("chaos_seed", std::to_string(seed));
  SCOPED_TRACE("replay with ANAHY_CHAOS_SEED=" + std::to_string(seed));

  auto fabric = make_memory_fabric(2);
  Registry reg;
  fill_chaos_registry(reg);
  anahy::serve::ServerOptions sopts;
  sopts.runtime.num_vps = 4;
  anahy::serve::JobServer server(std::move(sopts));
  FrontEndOptions fopts;
  fopts.heartbeat_interval = 50'000us;
  fopts.dead_after = 2'000'000us;
  ServeFrontEnd frontend(server, *fabric[0], reg, fopts);

  FaultProfile profile;
  profile.seed = seed;
  profile.drop = 0.10;
  profile.duplicate = 0.10;
  profile.corrupt = 0.08;
  profile.truncate = 0.04;
  profile.delay = 0.08;
  profile.delay_min = 200us;
  profile.delay_max = 2'000us;
  FaultyTransport faulty(std::move(fabric[1]), profile);
  AsyncServeClient client(faulty, /*server_node=*/0, seed);

  g_executions.store(0);
  CallOptions copts;
  copts.deadline = 5'000'000us;
  copts.initial_backoff = 3'000us;
  copts.max_backoff = 50'000us;

  constexpr int kCalls = 60;
  int ok = 0, faulted = 0, other = 0;
  for (int i = 0; i < kCalls; ++i) {
    const bool wants_boom = i % 7 == 3;
    std::vector<std::uint8_t> payload{static_cast<std::uint8_t>(i), 1, 2};
    const auto reply = client.call(wants_boom ? "boom" : "counted_sum",
                                   payload, copts);
    // Definite outcome, never a hang: with a 5 s deadline against ~20%
    // request loss the retries always get through.
    if (wants_boom) {
      EXPECT_EQ(reply.error, anahy::kFaulted) << "call " << i;
      EXPECT_NE(reply.text().find("chaos boom"), std::string::npos)
          << "call " << i;
      ++faulted;
    } else if (reply.error == anahy::kOk) {
      ByteReader r(reply.payload);
      EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(i + 3)) << "call " << i;
      ++ok;
    } else {
      ++other;
    }
  }

  EXPECT_EQ(ok, kCalls - kCalls / 7 - (kCalls % 7 > 3 ? 1 : 0)) << "losses";
  EXPECT_EQ(other, 0) << "no call may end indefinite under retries";
  // Exactly-once: the server ran each distinct sum request once, no matter
  // how many times the lossy link made the client resend it. (Replies
  // travel the clean server endpoint, so every execution was consumed.)
  EXPECT_EQ(g_executions.load(), static_cast<std::uint64_t>(ok));

  // The abuse was real: the injector actually dropped/mangled frames, and
  // the front-end saw and rejected the mangled ones.
  const auto fstats = faulty.stats();
  EXPECT_GT(fstats.drops + fstats.corruptions + fstats.truncations, 0u);
  EXPECT_GT(client.retries(), 0u);
  // Every mangled frame was rejected at the envelope (a frame that was
  // both duplicated and corrupted arrives — and is rejected — twice).
  EXPECT_GE(frontend.rejected_frames(),
            fstats.corruptions + fstats.truncations);
  EXPECT_GT(frontend.retransmits() + frontend.duplicates_suppressed(), 0u)
      << "duplicates hit the dedup path, not a second execution";
}

TEST(Chaos, SeveredPeerIsReapedAndHealsClean) {
  const std::uint64_t seed = chaos_seed();
  RecordProperty("chaos_seed", std::to_string(seed));
  SCOPED_TRACE("replay with ANAHY_CHAOS_SEED=" + std::to_string(seed));

  auto fabric = make_memory_fabric(2);
  Registry reg;
  fill_chaos_registry(reg);
  anahy::serve::ServerOptions sopts;
  sopts.runtime.num_vps = 2;
  anahy::serve::JobServer server(std::move(sopts));
  FrontEndOptions fopts;
  fopts.heartbeat_interval = 20'000us;
  fopts.dead_after = 100'000us;
  ServeFrontEnd frontend(server, *fabric[0], reg, fopts);

  FaultyTransport faulty(std::move(fabric[1]), FaultProfile{.seed = seed});
  AsyncServeClient client(faulty, 0, seed);

  // Healthy link first: a call goes straight through.
  CallOptions copts;
  copts.deadline = 2'000'000us;
  copts.initial_backoff = 5'000us;
  auto reply = client.call("counted_sum", {1, 2, 3}, copts);
  ASSERT_EQ(reply.error, anahy::kOk);

  // Park a slow job on the server so this client has work in flight, then
  // cut the uplink: our pongs stop arriving. One attempt only: the job is
  // never retransmitted, so the reap below is its only fate.
  CallOptions once;
  once.max_attempts = 1;
  auto slow = client.submit_async("slow_nop", {}, once);
  faulty.sever(0);

  // A call over the severed link fails definitively with kUnreachable —
  // never a hang, never an exception.
  CallOptions short_opts;
  short_opts.deadline = 120'000us;
  short_opts.initial_backoff = 5'000us;
  reply = client.call("counted_sum", {9}, short_opts);
  EXPECT_EQ(reply.error, anahy::kUnreachable);

  // The server pings, hears nothing for dead_after, and reaps us —
  // cancelling the abandoned slow job.
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while (frontend.clients_reaped() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  EXPECT_EQ(frontend.clients_reaped(), 1u);
  EXPECT_GT(frontend.pings_sent(), 0u);

  // After healing, the link works again (fresh request ids, clean state).
  faulty.heal(0);
  reply = client.call("counted_sum", {1, 1}, copts);
  EXPECT_EQ(reply.error, anahy::kOk);
  ByteReader r(reply.payload);
  EXPECT_EQ(r.u32(), 2u);
  // The abandoned job resolved exactly once server-side; its reply to a
  // reaped client is at most a harmless frame the client never consumed.
  (void)slow;
}

TEST(Chaos, FaultedJobsSurviveTheLossyLink) {
  // kFaulted (a throwing body) and network faults compose: the exception
  // message crosses the wire even when the request needed retries.
  const std::uint64_t seed = chaos_seed() ^ 0x5EEDull;
  RecordProperty("chaos_seed", std::to_string(seed));

  auto fabric = make_memory_fabric(2);
  Registry reg;
  fill_chaos_registry(reg);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);

  FaultProfile profile;
  profile.seed = seed;
  profile.drop = 0.25;
  FaultyTransport faulty(std::move(fabric[1]), profile);
  AsyncServeClient client(faulty, 0, seed);

  CallOptions copts;
  copts.deadline = 5'000'000us;
  copts.initial_backoff = 2'000us;
  for (int i = 0; i < 12; ++i) {
    const auto reply = client.call("boom", {}, copts);
    ASSERT_EQ(reply.error, anahy::kFaulted) << "call " << i;
    EXPECT_NE(reply.text().find("chaos boom"), std::string::npos);
  }
  EXPECT_EQ(server.stats().of(anahy::Priority::kNormal).faulted, 12u);
}

}  // namespace
