// The event-loop wire path under a magnifying glass: coalesced writev
// batches, short-IO resume correctness, wire telemetry, and the
// multiplexed AsyncServeClient on top (docs/WIRE.md).
//
// FabricTest (test_transport.cpp) already proves the epoll endpoint is a
// correct Transport. These tests pin the properties that motivated it:
// frames queued together leave in fewer syscalls, partial reads/writes
// resume exactly, and many callers can share one endpoint.
#include "cluster/epoll_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "cluster/serve_frontend.hpp"
#include "cluster/transport.hpp"

namespace {

using namespace cluster;
using namespace std::chrono_literals;

WireCounters counters_of(const Transport& t) {
  const auto* src = dynamic_cast<const WireStatsSource*>(&t);
  EXPECT_NE(src, nullptr);
  return src != nullptr ? src->wire_counters() : WireCounters{};
}

/// The sender's counters once `frames` frames are counted. Its loop
/// thread bumps them after sendmsg returns, so the peer can already hold
/// every frame while they are still settling; wait for them (bounded).
WireCounters tx_counters_after(const Transport& t, std::uint64_t frames) {
  const auto until = std::chrono::steady_clock::now() + 2s;
  WireCounters c = counters_of(t);
  while (c.tx_frames < frames && std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
    c = counters_of(t);
  }
  return c;
}

TEST(EpollWire, CountersTallyFramesAndBytes) {
  auto fabric = make_epoll_fabric(2);
  constexpr int kFrames = 100;
  std::size_t payload_bytes = 0;
  for (int i = 0; i < kFrames; ++i) {
    std::vector<std::uint8_t> f(static_cast<std::size_t>(1 + i % 13),
                                static_cast<std::uint8_t>(i));
    payload_bytes += f.size();
    fabric[0]->send(1, std::move(f));
  }
  std::vector<std::uint8_t> frame;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(fabric[1]->recv(frame, 2s)) << i;
    EXPECT_EQ(frame[0], static_cast<std::uint8_t>(i));
  }

  const WireCounters tx = tx_counters_after(*fabric[0], kFrames);
  EXPECT_EQ(tx.tx_frames, static_cast<std::uint64_t>(kFrames));
  // Each frame costs its 4-byte prefix on the wire.
  EXPECT_EQ(tx.tx_bytes, payload_bytes + 4u * kFrames);
  EXPECT_GE(tx.writev_calls, 1u);
  EXPECT_LE(tx.writev_calls, tx.tx_frames);

  const WireCounters rx = counters_of(*fabric[1]);
  EXPECT_EQ(rx.rx_frames, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(rx.rx_bytes, payload_bytes + 4u * kFrames);
}

TEST(EpollWire, BurstCoalescesIntoFewerSyscalls) {
  auto fabric = make_epoll_fabric(2);
  // A burst enqueued faster than the loop thread can wake MUST leave in
  // batched writevs — that is the whole point of the outbound queue.
  constexpr int kFrames = 4000;
  for (int i = 0; i < kFrames; ++i)
    fabric[0]->send(1, {static_cast<std::uint8_t>(i), 1, 2, 3});
  std::vector<std::uint8_t> frame;
  for (int i = 0; i < kFrames; ++i) ASSERT_TRUE(fabric[1]->recv(frame, 2s));

  const WireCounters tx = tx_counters_after(*fabric[0], kFrames);
  EXPECT_EQ(tx.tx_frames, static_cast<std::uint64_t>(kFrames));
  EXPECT_LT(tx.writev_calls, tx.tx_frames)
      << "a 4000-frame burst never batched: " << tx.writev_calls
      << " writevs for " << tx.tx_frames << " frames";
}

TEST(EpollWire, TinyIoCapDribblesFramesIntact) {
  // 7 bytes per syscall: every frame crosses in pieces, exercising the
  // partial-write resume offsets and the streaming decoder's tail
  // retention on every single transfer.
  EpollOptions opts;
  opts.max_io_bytes = 7;
  auto fabric = make_epoll_fabric(2, opts);

  constexpr int kFrames = 25;
  for (int i = 0; i < kFrames; ++i) {
    std::vector<std::uint8_t> f(40 + static_cast<std::size_t>(i));
    std::iota(f.begin(), f.end(), static_cast<std::uint8_t>(i));
    fabric[0]->send(1, std::move(f));
  }
  std::vector<std::uint8_t> frame;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(fabric[1]->recv(frame, 5s)) << i;
    ASSERT_EQ(frame.size(), 40u + static_cast<std::size_t>(i));
    std::vector<std::uint8_t> want(frame.size());
    std::iota(want.begin(), want.end(), static_cast<std::uint8_t>(i));
    EXPECT_EQ(frame, want) << "frame " << i << " corrupted by short IO";
  }

  const WireCounters tx = tx_counters_after(*fabric[0], kFrames);
  const WireCounters rx = counters_of(*fabric[1]);
  EXPECT_GT(tx.tx_partial_writes, 0u);
  EXPECT_GT(rx.rx_partial_reads, 0u);
  EXPECT_GT(tx.writev_calls, tx.tx_frames);  // many dribbles per frame
}

TEST(EpollWire, SelfSendNeverTouchesTheSocket) {
  auto fabric = make_epoll_fabric(2);
  fabric[0]->send(0, {9, 8, 7});
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(fabric[0]->recv(frame, 1s));
  EXPECT_EQ(frame, (std::vector<std::uint8_t>{9, 8, 7}));
  const WireCounters c = counters_of(*fabric[0]);
  EXPECT_EQ(c.writev_calls, 0u);
  EXPECT_EQ(c.tx_frames, 0u);
}

TEST(EpollWire, SendsToADeadPeerAreCountedNotThrown) {
  auto fabric = make_epoll_fabric(2);
  fabric[0]->send(1, {1});  // link is live
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(fabric[1]->recv(frame, 1s));

  fabric[1].reset();  // peer dies; node 0's loop reaps the connection

  // The reap is asynchronous: keep sending until the drop counter moves.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  for (;;) {
    EXPECT_NO_THROW(fabric[0]->send(1, {2}));
    if (counters_of(*fabric[0]).tx_dropped_dead > 0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "dead-peer sends never hit tx_dropped_dead";
    std::this_thread::sleep_for(1ms);
  }
}

TEST(EpollWire, CounterRowsCarryTheWireNames) {
  auto fabric = make_epoll_fabric(2);
  fabric[0]->send(1, {1, 2, 3});
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(fabric[1]->recv(frame, 1s));

  const auto rows = wire_counter_rows(tx_counters_after(*fabric[0], 1));
  auto value_of = [&rows](const std::string& name) -> std::uint64_t {
    for (const auto& r : rows)
      if (r.name == name) return r.value;
    ADD_FAILURE() << "missing exposition row " << name;
    return 0;
  };
  EXPECT_GE(value_of("anahy_wire_writev_total"), 1u);
  EXPECT_EQ(value_of("anahy_wire_tx_frames_total"), 1u);
  EXPECT_EQ(value_of("anahy_wire_tx_bytes_total"), 7u);  // 4 prefix + 3
  EXPECT_EQ(value_of("anahy_wire_rx_partial_reads_total"), 0u);
}

// ---------------------------------------------------------------------------
// AsyncServeClient over the event-loop fabric.

std::vector<std::uint8_t> echo(std::span<const std::uint8_t> in) {
  return {in.begin(), in.end()};
}

std::vector<std::uint8_t> sum_bytes(std::span<const std::uint8_t> in) {
  std::uint32_t sum = 0;
  for (const std::uint8_t b : in) sum += b;
  ByteWriter w;
  w.u32(sum);
  return w.take();
}

TEST(AsyncClient, ManyInFlightOverOneEndpoint) {
  auto fabric = make_epoll_fabric(2);
  Registry reg;
  reg.add("echo", echo);
  anahy::serve::ServerOptions sopts;
  sopts.runtime.num_vps = 2;
  anahy::serve::JobServer server(std::move(sopts));
  ServeFrontEnd frontend(server, *fabric[0], reg);

  AsyncServeClient client(*fabric[1], /*server_node=*/0);
  constexpr int kJobs = 64;
  std::vector<std::future<AsyncServeClient::Reply>> futures;
  futures.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i)
    futures.push_back(
        client.submit_async("echo", {static_cast<std::uint8_t>(i)}));
  for (int i = 0; i < kJobs; ++i) {
    const auto r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.error, anahy::kOk);
    ASSERT_EQ(r.payload.size(), 1u);
    EXPECT_EQ(r.payload[0], static_cast<std::uint8_t>(i)) << "cross-talk";
  }
  EXPECT_EQ(client.inflight(), 0u);
}

TEST(AsyncClient, ConcurrentSubmittersShareTheSocket) {
  auto fabric = make_epoll_fabric(2);
  Registry reg;
  reg.add("sum_bytes", sum_bytes);
  anahy::serve::ServerOptions sopts;
  sopts.runtime.num_vps = 2;
  anahy::serve::JobServer server(std::move(sopts));
  ServeFrontEnd frontend(server, *fabric[0], reg);

  AsyncServeClient client(*fabric[1], 0);
  constexpr int kThreads = 8;
  constexpr int kEach = 25;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&client, &wrong, t] {
      for (int i = 0; i < kEach; ++i) {
        // Payload of `n` ones sums to n — each caller can check its own.
        const auto n = static_cast<std::size_t>(t * kEach + i + 1);
        const auto r =
            client.call("sum_bytes", std::vector<std::uint8_t>(n, 1));
        if (r.error != anahy::kOk) {
          ++wrong;
          continue;
        }
        ByteReader reader(r.payload);
        if (reader.u32() != n) ++wrong;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(client.inflight(), 0u);
}

TEST(AsyncClient, CallbackFiresBeforeTheFutureResolves) {
  auto fabric = make_epoll_fabric(2);
  Registry reg;
  reg.add("echo", echo);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);

  AsyncServeClient client(*fabric[1], 0);
  std::atomic<int> called{0};
  std::atomic<int> cb_error{-1};
  auto fut = client.submit_async(
      "echo", {42}, {}, anahy::Priority::kNormal, -1, false,
      [&called, &cb_error](const AsyncServeClient::Reply& r) {
        cb_error = r.error;
        ++called;
      });
  const auto r = fut.get();
  EXPECT_EQ(r.error, anahy::kOk);
  EXPECT_EQ(called.load(), 1);
  EXPECT_EQ(cb_error.load(), anahy::kOk);
}

TEST(AsyncClient, UnreachableServerResolvesDefinitely) {
  auto fabric = make_epoll_fabric(2);  // nothing listening on node 0
  AsyncServeClient client(*fabric[1], 0);
  CallOptions copts;
  copts.deadline = 120'000us;
  copts.initial_backoff = 10'000us;
  const auto r = client.call("echo", {1}, copts);
  EXPECT_EQ(r.error, anahy::kUnreachable);
  EXPECT_GT(client.retries(), 0u);  // it did try again before giving up
  EXPECT_EQ(client.inflight(), 0u);
}

TEST(AsyncClient, DestructionResolvesOrphansUnreachable) {
  auto fabric = make_epoll_fabric(2);  // nothing listening on node 0
  std::future<AsyncServeClient::Reply> orphan;
  {
    AsyncServeClient client(*fabric[1], 0);
    CallOptions copts;
    copts.deadline = 60'000'000us;  // would outlive the client by far
    orphan = client.submit_async("echo", {1}, copts);
  }
  const auto r = orphan.get();  // must not hang
  EXPECT_EQ(r.error, anahy::kUnreachable);
}

TEST(AsyncClient, QueryStatsReturnsExposition) {
  auto fabric = make_epoll_fabric(2);
  Registry reg;
  reg.add("echo", echo);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);

  AsyncServeClient client(*fabric[1], 0);
  ASSERT_EQ(client.call("echo", {1}).error, anahy::kOk);
  std::string text;
  ASSERT_EQ(client.query_stats(text), anahy::kOk);
  EXPECT_NE(text.find("anahy_"), std::string::npos);
}

TEST(AsyncClient, SaturatesTheTinyIoPath) {
  // Async multiplexing composed with forced short IO: everything still
  // resolves correctly when every frame dribbles across in 16-byte slices.
  EpollOptions opts;
  opts.max_io_bytes = 16;
  auto fabric = make_epoll_fabric(2, opts);
  Registry reg;
  reg.add("echo", echo);
  anahy::serve::ServerOptions sopts;
  sopts.runtime.num_vps = 2;
  anahy::serve::JobServer server(std::move(sopts));
  ServeFrontEnd frontend(server, *fabric[0], reg);

  AsyncServeClient client(*fabric[1], 0);
  CallOptions copts;
  copts.deadline = 10'000'000us;
  std::vector<std::future<AsyncServeClient::Reply>> futures;
  constexpr int kJobs = 32;
  futures.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i)
    futures.push_back(client.submit_async(
        "echo", std::vector<std::uint8_t>(64, static_cast<std::uint8_t>(i)),
        copts));
  for (int i = 0; i < kJobs; ++i) {
    const auto r = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.error, anahy::kOk) << i;
    ASSERT_EQ(r.payload.size(), 64u);
    EXPECT_EQ(r.payload[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_GT(counters_of(*fabric[1]).rx_partial_reads, 0u);
}

}  // namespace
