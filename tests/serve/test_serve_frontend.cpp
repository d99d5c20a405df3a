// Tests of the remote serve front-end: kJobSubmit/kJobDone over the
// in-memory fabric and the TCP loopback mesh — the same submit -> reply
// contract the in-process JobHandle gives, across a transport.
#include "cluster/serve_frontend.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "compress/crc32.hpp"

namespace {

using namespace cluster;
using namespace std::chrono_literals;
using Reply = AsyncServeClient::Reply;

/// sum of u32 little-endian words in the payload -> one u32 result.
std::vector<std::uint8_t> sum_u32(std::span<const std::uint8_t> in) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 4 <= in.size(); i += 4)
    sum += static_cast<std::uint32_t>(in[i]) |
           static_cast<std::uint32_t>(in[i + 1]) << 8 |
           static_cast<std::uint32_t>(in[i + 2]) << 16 |
           static_cast<std::uint32_t>(in[i + 3]) << 24;
  ByteWriter w;
  w.u32(sum);
  return w.take();
}

std::vector<std::uint8_t> numbers_payload(std::uint32_t n) {
  ByteWriter w;
  for (std::uint32_t i = 1; i <= n; ++i) w.u32(i);
  return w.take();
}

std::uint32_t result_u32(const Reply& r) {
  ByteReader reader(r.payload);
  return reader.u32();
}

/// The deadline-only retry envelope.
CallOptions within(std::chrono::microseconds deadline) {
  CallOptions copts;
  copts.deadline = deadline;
  return copts;
}

TEST(ServeFrontend, RoundTripOverMemoryFabric) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("sum_u32", sum_u32);
  anahy::serve::ServerOptions opts;
  opts.runtime.num_vps = 2;
  anahy::serve::JobServer server(std::move(opts));
  ServeFrontEnd frontend(server, *fabric[0], reg);

  AsyncServeClient client(*fabric[1], /*server_node=*/0);
  auto fut = client.submit_async("sum_u32", numbers_payload(10));
  ASSERT_EQ(fut.wait_for(2s), std::future_status::ready);
  const Reply reply = fut.get();
  EXPECT_EQ(reply.error, anahy::kOk);
  EXPECT_EQ(result_u32(reply), 55u);
  EXPECT_EQ(frontend.submissions(), 1u);
}

TEST(ServeFrontend, UnknownFunctionRepliesInvalid) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);

  AsyncServeClient client(*fabric[1], 0);
  auto fut = client.submit_async("no_such_fn", {});
  ASSERT_EQ(fut.wait_for(2s), std::future_status::ready);
  const Reply reply = fut.get();
  EXPECT_EQ(reply.error, anahy::kInvalid);
}

TEST(ServeFrontend, InterleavedRequestsCorrelateById) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("sum_u32", sum_u32);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);

  AsyncServeClient client(*fabric[1], 0);
  auto a = client.submit_async("sum_u32", numbers_payload(3));    // 6
  auto b = client.submit_async("sum_u32", numbers_payload(100));  // 5050
  auto c = client.submit_async("sum_u32", numbers_payload(1));    // 1

  // Wait out of submission order: replies must correlate, not interleave.
  ASSERT_EQ(c.wait_for(2s), std::future_status::ready);
  ASSERT_EQ(a.wait_for(2s), std::future_status::ready);
  ASSERT_EQ(b.wait_for(2s), std::future_status::ready);
  EXPECT_EQ(result_u32(a.get()), 6u);
  EXPECT_EQ(result_u32(b.get()), 5050u);
  EXPECT_EQ(result_u32(c.get()), 1u);
}

TEST(ServeFrontend, SubmitAfterDrainRepliesPerm) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("sum_u32", sum_u32);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);
  server.drain();

  AsyncServeClient client(*fabric[1], 0);
  auto fut = client.submit_async("sum_u32", numbers_payload(4));
  ASSERT_EQ(fut.wait_for(2s), std::future_status::ready);
  const Reply reply = fut.get();
  EXPECT_EQ(reply.error, anahy::kPerm);
}

TEST(ServeFrontend, PriorityAndTimeoutTravelTheWire) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("sum_u32", sum_u32);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);

  AsyncServeClient client(*fabric[1], 0);
  auto fut = client.submit_async("sum_u32", numbers_payload(8), CallOptions{},
                                 anahy::Priority::kHigh,
                                 /*timeout_ns=*/5'000'000'000, false);
  ASSERT_EQ(fut.wait_for(2s), std::future_status::ready);
  const Reply reply = fut.get();
  EXPECT_EQ(reply.error, anahy::kOk);
  EXPECT_EQ(result_u32(reply), 36u);
  EXPECT_EQ(server.stats().of(anahy::Priority::kHigh).completed, 1u);
}

/// The exposition keys a kStatsQuery reply must carry to be useful to a
/// scraper: derived gauges, per-class queue depth, and the serve counters.
void expect_exposition(const std::string& text) {
  EXPECT_NE(text.find("anahy_observe_steal_success_ratio"),
            std::string::npos);
  EXPECT_NE(text.find("anahy_observe_idle_fraction"), std::string::npos);
  EXPECT_NE(text.find("anahy_observe_ready_tasks{class=\"high\"}"),
            std::string::npos);
  EXPECT_NE(text.find("anahy_observe_ready_tasks{class=\"batch\"}"),
            std::string::npos);
  EXPECT_NE(text.find("anahy_observe_tasks_run{vp=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("anahy_serve_jobs_pending "), std::string::npos);
  EXPECT_NE(text.find("anahy_serve_jobs_completed_total{class=\"normal\"}"),
            std::string::npos);
}

TEST(ServeFrontend, StatsQueryOverMemoryFabric) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("sum_u32", sum_u32);
  anahy::serve::ServerOptions opts;
  opts.runtime.num_vps = 2;
  anahy::serve::JobServer server(std::move(opts));
  ServeFrontEnd frontend(server, *fabric[0], reg);

  AsyncServeClient client(*fabric[1], 0);
  auto fut = client.submit_async("sum_u32", numbers_payload(10));
  ASSERT_EQ(fut.wait_for(2s), std::future_status::ready);
  const Reply reply = fut.get();

  std::string text;
  ASSERT_EQ(client.query_stats(text, within(2s)), anahy::kOk);
  expect_exposition(text);
  EXPECT_EQ(frontend.stats_queries(), 1u);
}

TEST(ServeFrontend, RejuvenateOverMemoryFabric) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("sum_u32", sum_u32);
  anahy::serve::ServerOptions opts;
  opts.runtime.num_vps = 2;
  anahy::serve::JobServer server(std::move(opts));
  ServeFrontEnd frontend(server, *fabric[0], reg);

  // The operator command: a kRejuvenate frame runs one cycle on the
  // server and the one-line report rides back on kStatsReply.
  AsyncServeClient client(*fabric[1], 0);
  std::string report;
  ASSERT_EQ(client.rejuvenate(report), anahy::kOk);
  EXPECT_NE(report.find("reaped"), std::string::npos) << report;
  EXPECT_NE(report.find("restarted 2 VP(s)"), std::string::npos) << report;
  EXPECT_EQ(frontend.rejuvenations(), 1u);
  EXPECT_EQ(server.rejuv_counters().cycles, 1u);

  // The restarted server still serves over the same wire.
  auto fut = client.submit_async("sum_u32", numbers_payload(10));
  ASSERT_EQ(fut.wait_for(2s), std::future_status::ready);
  const Reply reply = fut.get();
  EXPECT_EQ(reply.error, anahy::kOk);
  EXPECT_EQ(result_u32(reply), 55u);
}

TEST(ServeFrontend, RejuvenateUnreachableIsADefiniteOutcome) {
  auto fabric = make_memory_fabric(2);
  AsyncServeClient client(*fabric[1], 0);  // nobody serving node 0
  CallOptions copts;
  copts.deadline = 150'000us;
  copts.initial_backoff = 20'000us;
  std::string report = "untouched";
  EXPECT_EQ(client.rejuvenate(report, copts), anahy::kUnreachable);
  EXPECT_EQ(report, "untouched");
}

TEST(ServeFrontend, StatsQueryBuffersInterleavedJobReplies) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("sum_u32", sum_u32);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);

  // Submit first, then query stats immediately: the kJobDone frame may
  // arrive while query_stats waits and must still resolve the job.
  AsyncServeClient client(*fabric[1], 0);
  auto fut = client.submit_async("sum_u32", numbers_payload(100), within(5s));
  std::string text;
  ASSERT_EQ(client.query_stats(text, within(5s)), anahy::kOk);
  expect_exposition(text);

  ASSERT_EQ(fut.wait_for(5s), std::future_status::ready);
  const Reply reply = fut.get();
  EXPECT_EQ(reply.error, anahy::kOk);
  EXPECT_EQ(result_u32(reply), 5050u);
}

TEST(ServeFrontend, StatsQueryOverTcpLoopback) {
  auto fabric = make_epoll_fabric(2);
  Registry reg;
  reg.add("sum_u32", sum_u32);
  anahy::serve::ServerOptions opts;
  opts.runtime.num_vps = 2;
  anahy::serve::JobServer server(std::move(opts));
  ServeFrontEnd frontend(server, *fabric[0], reg);

  AsyncServeClient client(*fabric[1], 0);
  auto fut = client.submit_async("sum_u32", numbers_payload(20), within(5s));
  ASSERT_EQ(fut.wait_for(5s), std::future_status::ready);
  const Reply reply = fut.get();
  EXPECT_EQ(result_u32(reply), 210u);

  std::string text;
  ASSERT_EQ(client.query_stats(text, within(5s)), anahy::kOk);
  expect_exposition(text);
  // The completed job is visible in the scraped counters.
  EXPECT_NE(
      text.find("anahy_serve_jobs_completed_total{class=\"normal\"} 1"),
      std::string::npos);
}

TEST(ServeFrontend, StatsQueryUnreachableIsADefiniteOutcome) {
  // Nothing listening on node 0: the pull must come back kUnreachable
  // inside the deadline, with the same retry envelope as call() — not
  // hang, and not a bare failure that hides *why* it failed.
  auto fabric = make_memory_fabric(2);
  AsyncServeClient client(*fabric[1], 0);

  CallOptions copts;
  copts.deadline = 150'000us;
  copts.initial_backoff = 20'000us;
  std::string text = "untouched";
  EXPECT_EQ(client.query_stats(text, copts), anahy::kUnreachable);
  EXPECT_EQ(text, "untouched");
  EXPECT_GT(client.retries(), 0u) << "no retransmission before giving up";

  // A deadline-only envelope agrees.
  EXPECT_EQ(client.query_stats(text, within(100ms)), anahy::kUnreachable);
}

TEST(ServeFrontend, StatsQueryAttemptBudgetCapsRetries) {
  auto fabric = make_memory_fabric(2);
  AsyncServeClient client(*fabric[1], 0);

  CallOptions copts;
  copts.deadline = 5'000'000us;  // generous: attempts must bound us first
  copts.initial_backoff = 5'000us;
  copts.max_attempts = 3;
  std::string text;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(client.query_stats(text, copts), anahy::kUnreachable);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 2s)
      << "attempt budget did not cut the deadline short";
  EXPECT_EQ(client.retries(), 2u);  // 3 attempts = 2 retransmissions
}

TEST(ServeFrontend, LastAttemptWaitsOutItsBackoff) {
  // One attempt with a 100 ms backoff slice and a 20 ms body: the reply
  // lands inside the slice, so the request resolves kOk. The attempt
  // budget may only end a request once its last attempt's slice passed.
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("nap_echo", [](std::span<const std::uint8_t> in) {
    std::this_thread::sleep_for(20ms);
    return std::vector<std::uint8_t>(in.begin(), in.end());
  });
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);

  AsyncServeClient client(*fabric[1], 0);
  CallOptions copts;
  copts.max_attempts = 1;
  copts.initial_backoff = 100'000us;
  const auto reply = client.call("nap_echo", {3}, copts);
  EXPECT_EQ(reply.error, anahy::kOk);
  EXPECT_EQ(reply.payload, std::vector<std::uint8_t>{3});
  EXPECT_EQ(client.retries(), 0u);
}

/// Transport decorator that swallows the first `n` sends — the cheapest
/// lossy link there is, enough to force the stats retry path.
class DropFirstSends : public Transport {
 public:
  DropFirstSends(Transport& inner, int n) : inner_(inner), drop_(n) {}
  /// Called by the client's caller and pump threads at once.
  void send(int dst, std::vector<std::uint8_t> frame) override {
    int left = drop_.load();
    while (left > 0 && !drop_.compare_exchange_weak(left, left - 1)) {
    }
    if (left > 0) return;
    inner_.send(dst, std::move(frame));
  }
  bool recv(std::vector<std::uint8_t>& frame,
            std::chrono::microseconds timeout) override {
    return inner_.recv(frame, timeout);
  }
  [[nodiscard]] int node_id() const override { return inner_.node_id(); }
  [[nodiscard]] int node_count() const override {
    return inner_.node_count();
  }

 private:
  Transport& inner_;
  std::atomic<int> drop_;
};

TEST(ServeFrontend, StatsQueryRetransmitsThroughLoss) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("sum_u32", sum_u32);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);

  DropFirstSends lossy(*fabric[1], 1);  // the first kStatsQuery vanishes
  AsyncServeClient client(lossy, 0);
  CallOptions copts;
  copts.deadline = 5'000'000us;
  copts.initial_backoff = 10'000us;
  std::string text;
  ASSERT_EQ(client.query_stats(text, copts), anahy::kOk);
  expect_exposition(text);
  EXPECT_GE(client.retries(), 1u) << "reply without a retransmission?";
  EXPECT_EQ(frontend.stats_queries(), 1u);
}

// ---------------------------------------------------------------------------
// Hardened-path tests: dedup, retries, heartbeats, kFaulted, rejection.
// ---------------------------------------------------------------------------

std::atomic<int> g_counted_calls{0};

std::vector<std::uint8_t> counted_echo(std::span<const std::uint8_t> in) {
  g_counted_calls.fetch_add(1, std::memory_order_relaxed);
  return {in.begin(), in.end()};
}

std::vector<std::uint8_t> throwing_fn(std::span<const std::uint8_t>) {
  throw std::runtime_error("remote boom");
}

/// Drives the raw wire (no client object): lets tests choose request ids.
std::vector<std::uint8_t> raw_submit_frame(std::uint32_t client,
                                           std::uint64_t request_id,
                                           const std::string& fn) {
  return encode(make_job_submit(client, request_id, /*priority=*/1,
                                /*timeout_ns=*/-1, /*check=*/false, fn, {}));
}

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

/// Receives kJobDone frames until one matches `request_id` (true) or
/// `timeout` passes (false).
bool raw_wait_done(Transport& t, std::uint64_t request_id,
                   std::chrono::microseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::vector<std::uint8_t> frame;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!t.recv(frame, 10'000us)) continue;
    const auto d = decode_frame(frame);
    if (d.ok && d.msg.type == MsgType::kJobDone &&
        d.msg.job_done.request_id == request_id)
      return true;
  }
  return false;
}

TEST(ServeFrontend, RetryInsideDedupWindowIsExactlyOnce) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("counted_echo", counted_echo);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);
  g_counted_calls.store(0);

  // Submit request 7, consume its reply, then retry the same id: the
  // cached reply comes back, the body does NOT run again.
  fabric[1]->send(0, raw_submit_frame(1, 7, "counted_echo"));
  ASSERT_TRUE(raw_wait_done(*fabric[1], 7, 2'000'000us));
  EXPECT_EQ(g_counted_calls.load(), 1);

  fabric[1]->send(0, raw_submit_frame(1, 7, "counted_echo"));
  ASSERT_TRUE(raw_wait_done(*fabric[1], 7, 2'000'000us))
      << "retry must be answered from the dedup cache";
  EXPECT_EQ(g_counted_calls.load(), 1) << "retry re-executed the body";
  EXPECT_EQ(frontend.retransmits(), 1u);
  EXPECT_EQ(frontend.duplicates_suppressed(), 0u);
}

TEST(ServeFrontend, DuplicateOfInflightRequestIsSuppressed) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  std::atomic<bool> release{false};
  std::atomic<int> runs{0};
  reg.add("gate", [&](std::span<const std::uint8_t>)
                      -> std::vector<std::uint8_t> {
    runs.fetch_add(1, std::memory_order_relaxed);
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(1ms);
    return {};
  });
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);

  fabric[1]->send(0, raw_submit_frame(1, 1, "gate"));
  // Wait until the job is actually running, then send the duplicate.
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (runs.load() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  ASSERT_EQ(runs.load(), 1);

  fabric[1]->send(0, raw_submit_frame(1, 1, "gate"));
  while (frontend.duplicates_suppressed() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(frontend.duplicates_suppressed(), 1u);

  release.store(true, std::memory_order_release);
  ASSERT_TRUE(raw_wait_done(*fabric[1], 1, 2'000'000us));
  EXPECT_EQ(runs.load(), 1) << "suppressed duplicate must not re-execute";
  // Exactly one reply: no second kJobDone for the suppressed duplicate.
  EXPECT_FALSE(raw_wait_done(*fabric[1], 1, 50'000us));
}

TEST(ServeFrontend, RetryOutsideDedupWindowReExecutes) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("counted_echo", counted_echo);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  FrontEndOptions opts;
  opts.dedup_window = 1;  // only the most recent reply survives
  ServeFrontEnd frontend(server, *fabric[0], reg, opts);
  g_counted_calls.store(0);

  fabric[1]->send(0, raw_submit_frame(1, 1, "counted_echo"));
  ASSERT_TRUE(raw_wait_done(*fabric[1], 1, 2'000'000us));
  fabric[1]->send(0, raw_submit_frame(1, 2, "counted_echo"));
  ASSERT_TRUE(raw_wait_done(*fabric[1], 2, 2'000'000us));
  EXPECT_EQ(g_counted_calls.load(), 2);

  // Request 1 was evicted by request 2: its retry re-executes (the
  // documented at-least-once degradation beyond the window).
  fabric[1]->send(0, raw_submit_frame(1, 1, "counted_echo"));
  ASSERT_TRUE(raw_wait_done(*fabric[1], 1, 2'000'000us));
  EXPECT_EQ(g_counted_calls.load(), 3);
  EXPECT_EQ(frontend.retransmits(), 0u);
}

TEST(ServeFrontend, DuplicateJobDoneIsDroppedByClient) {
  // A raw "server" that answers every submit twice: the client must
  // consume the reply once and drop the duplicate.
  auto fabric = make_memory_fabric(2);
  AsyncServeClient client(*fabric[1], 0);
  auto fut = client.submit_async("anything", {1});

  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(fabric[0]->recv(frame, 2'000'000us));
  const auto d = decode_frame(frame);
  ASSERT_TRUE(d.ok);
  ASSERT_EQ(d.msg.type, MsgType::kJobSubmit);
  const auto done =
      encode(make_job_done(d.msg.job_submit.request_id, anahy::kOk, 0, {7}));
  fabric[0]->send(1, done);
  fabric[0]->send(1, done);  // duplicate delivery

  ASSERT_EQ(fut.wait_for(2s), std::future_status::ready);
  EXPECT_EQ(fut.get().error, anahy::kOk);
  // The duplicate must be classified and dropped, never resurface as a
  // phantom reply.
  const auto until = std::chrono::steady_clock::now() + 2s;
  while (client.duplicate_replies() == 0 &&
         std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(client.duplicate_replies(), 1u);
}

TEST(ServeFrontend, CallRetriesThenReportsUnreachable) {
  // Node 0 exists but runs no front-end: submissions vanish into its
  // inbox. call() must retry, then give up with kUnreachable — not hang.
  auto fabric = make_memory_fabric(2);
  AsyncServeClient client(*fabric[1], 0);
  CallOptions opts;
  opts.deadline = 150'000us;
  opts.initial_backoff = 10'000us;
  opts.max_backoff = 40'000us;
  const auto t0 = std::chrono::steady_clock::now();
  const auto reply = client.call("void", {}, opts);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(reply.error, anahy::kUnreachable);
  EXPECT_GE(client.retries(), 1u) << "backoff must actually retransmit";
  EXPECT_LT(elapsed, 2s) << "deadline must bound the call";
}

TEST(ServeFrontend, CallSurvivesAnUnansweredFirstAttempt) {
  // The first submit lands in a dead letter box (no front-end yet); the
  // front-end starts while call() is backing off, and a retry succeeds —
  // same request id, one execution.
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("counted_echo", counted_echo);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  g_counted_calls.store(0);

  std::unique_ptr<ServeFrontEnd> frontend;
  std::thread starter([&] {
    std::this_thread::sleep_for(60ms);
    frontend = std::make_unique<ServeFrontEnd>(server, *fabric[0], reg);
  });
  AsyncServeClient client(*fabric[1], 0);
  CallOptions opts;
  opts.deadline = 5'000'000us;
  opts.initial_backoff = 20'000us;
  const auto reply = client.call("counted_echo", {5}, opts);
  starter.join();
  EXPECT_EQ(reply.error, anahy::kOk);
  ASSERT_EQ(reply.payload.size(), 1u);
  EXPECT_EQ(reply.payload[0], 5u);
  // The pre-front-end submits sat in the inbox and were *all* pumped when
  // it started; dedup collapsed them into one execution.
  EXPECT_EQ(g_counted_calls.load(), 1);
}

TEST(ServeFrontend, FaultedJobCarriesMessageOverMemoryFabric) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("throwing_fn", throwing_fn);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);

  AsyncServeClient client(*fabric[1], 0);
  const auto reply = client.call("throwing_fn", {});
  EXPECT_EQ(reply.error, anahy::kFaulted);
  EXPECT_NE(reply.text().find("remote boom"), std::string::npos)
      << "exception message must cross the wire: " << reply.text();
  EXPECT_EQ(server.stats().of(anahy::Priority::kNormal).faulted, 1u);
}

TEST(ServeFrontend, FaultedJobCarriesMessageOverTcp) {
  auto fabric = make_epoll_fabric(2);
  Registry reg;
  reg.add("throwing_fn", throwing_fn);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);

  AsyncServeClient client(*fabric[1], 0);
  const auto reply = client.call("throwing_fn", {});
  EXPECT_EQ(reply.error, anahy::kFaulted);
  EXPECT_NE(reply.text().find("remote boom"), std::string::npos);
}

TEST(ServeFrontend, GarbageFramesAreCountedAndSurvived) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("sum_u32", sum_u32);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);

  // Garbage, a truncated real frame, and a bit-corrupted real frame.
  fabric[1]->send(0, {0x99, 0x01, 0x02});
  auto real = raw_submit_frame(1, 50, "sum_u32");
  auto truncated = real;
  truncated.resize(real.size() - 3);
  fabric[1]->send(0, truncated);
  auto corrupted = real;
  corrupted[corrupted.size() / 2] ^= 0x10;
  fabric[1]->send(0, corrupted);

  // The pump survives all three and still serves real traffic.
  AsyncServeClient client(*fabric[1], 0);
  auto fut = client.submit_async("sum_u32", numbers_payload(10));
  ASSERT_EQ(fut.wait_for(2s), std::future_status::ready);
  EXPECT_EQ(fut.get().error, anahy::kOk);
  EXPECT_EQ(frontend.rejected_frames(), 3u);
  EXPECT_EQ(frontend.last_reject_diagnostic().rfind("ANAHY-F00", 0), 0u)
      << frontend.last_reject_diagnostic();
}

TEST(ServeFrontend, SubmitNamingAnUnknownClientIsSurvived) {
  // A well-formed frame may name any client id. The front-end answers the
  // id it was given, so each reply to node 7 on this 2-node fabric must be
  // a lost send, not a write past the fabric's inboxes.
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("sum_u32", sum_u32);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);

  fabric[1]->send(0, raw_submit_frame(7, 1, "sum_u32"));     // job reply
  fabric[1]->send(0, raw_submit_frame(7, 2, "no_such_fn"));  // pump reply
  fabric[1]->send(0, encode(make_ping(7, 3)));               // pong

  // Frames from one sender arrive in order, so once this client is
  // answered the pump has already replied to every forged id.
  AsyncServeClient client(*fabric[1], 0);
  auto fut = client.submit_async("sum_u32", numbers_payload(10));
  ASSERT_EQ(fut.wait_for(2s), std::future_status::ready);
  EXPECT_EQ(result_u32(fut.get()), 55u);
  EXPECT_EQ(frontend.rejected_frames(), 0u);
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (server.stats().of(anahy::Priority::kNormal).completed < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(server.stats().of(anahy::Priority::kNormal).completed, 2u);
}

TEST(ServeFrontend, RetiredShutdownFrameIsRejectedNotObeyed) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("sum_u32", sum_u32);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  ServeFrontEnd frontend(server, *fabric[0], reg);

  // Any peer may send this frame; the server must keep answering.
  fabric[1]->send(0, retired_shutdown_frame());
  AsyncServeClient client(*fabric[1], 0);
  const auto reply = client.call("sum_u32", numbers_payload(10));
  EXPECT_EQ(reply.error, anahy::kOk);
  EXPECT_EQ(frontend.rejected_frames(), 1u);
  EXPECT_EQ(frontend.last_reject_diagnostic().rfind(frame_diag::kMalformed, 0),
            0u)
      << frontend.last_reject_diagnostic();
}

TEST(ServeFrontend, HeartbeatCancelsJobsOfSilentClient) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  std::atomic<bool> release{false};
  reg.add("slow_gate", [&](std::span<const std::uint8_t>)
                           -> std::vector<std::uint8_t> {
    // Slow enough for the reaper to observe the job in flight; bounded so
    // a failed reap cannot wedge the test.
    for (int i = 0; i < 500 && !release.load(std::memory_order_acquire); ++i)
      std::this_thread::sleep_for(1ms);
    return {};
  });
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  FrontEndOptions opts;
  opts.heartbeat_interval = 10'000us;
  opts.dead_after = 60'000us;
  ServeFrontEnd frontend(server, *fabric[0], reg, opts);

  // Raw client that submits and then never answers pings.
  fabric[1]->send(0, raw_submit_frame(1, 1, "slow_gate"));

  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while (frontend.clients_reaped() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(2ms);
  EXPECT_EQ(frontend.clients_reaped(), 1u) << "silent client never reaped";
  EXPECT_GT(frontend.pings_sent(), 0u);
  release.store(true, std::memory_order_release);
  server.drain();
}

TEST(ServeFrontend, PingedClientThatPongsIsNotReaped) {
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("sum_u32", sum_u32);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  FrontEndOptions opts;
  opts.heartbeat_interval = 10'000us;
  opts.dead_after = 50'000us;
  ServeFrontEnd frontend(server, *fabric[0], reg, opts);

  // The client's pump answers pings, so a client that is merely *slow* to
  // collect a long job is never declared dead.
  AsyncServeClient client(*fabric[1], 0);
  auto fut = client.submit_async("sum_u32", numbers_payload(1000), within(5s));
  ASSERT_EQ(fut.wait_for(5s), std::future_status::ready);
  const Reply reply = fut.get();
  EXPECT_EQ(reply.error, anahy::kOk);
  EXPECT_EQ(frontend.clients_reaped(), 0u);
}

TEST(ServeFrontend, MultipleClientsOverTcpLoopback) {
  auto fabric = make_epoll_fabric(3);  // node 0 serves, nodes 1-2 are clients
  Registry reg;
  reg.add("sum_u32", sum_u32);
  anahy::serve::ServerOptions opts;
  opts.runtime.num_vps = 2;
  anahy::serve::JobServer server(std::move(opts));
  ServeFrontEnd frontend(server, *fabric[0], reg);

  AsyncServeClient c1(*fabric[1], 0);
  AsyncServeClient c2(*fabric[2], 0);
  auto f1 = c1.submit_async("sum_u32", numbers_payload(10), within(5s));
  auto f2 = c2.submit_async("sum_u32", numbers_payload(20), within(5s));
  ASSERT_EQ(f1.wait_for(5s), std::future_status::ready);
  ASSERT_EQ(f2.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(result_u32(f1.get()), 55u);
  EXPECT_EQ(result_u32(f2.get()), 210u);
}

}  // namespace
