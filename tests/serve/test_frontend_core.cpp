// The serve front-end and client cores under fabricated time: each
// protocol decision (dedup answer, duplicate suppression, the silence
// clock, the reap, retries and the deadline) driven by
// FramePump::drain(now) and on_tick(now) over the memory fabric. The test
// owns no thread and never sleeps; only the JobServer's VPs run bodies.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/serve_frontend.hpp"

namespace {

using namespace cluster;
using namespace std::chrono_literals;

const TimePoint kT0 = TimePoint{} + 1h;  // an arbitrary origin

constexpr std::uint32_t kClient = 1;

std::vector<std::uint8_t> submit_frame(std::uint64_t request_id,
                                       const std::string& fn) {
  return encode(make_job_submit(kClient, request_id, /*priority=*/1,
                                /*timeout_ns=*/-1, /*check=*/false, fn, {}));
}

/// The next frame queued at `t`, waiting up to `wait` for a VP to send it.
std::optional<Message> next_msg(Transport& t, std::chrono::microseconds wait) {
  std::vector<std::uint8_t> frame;
  if (!t.recv(frame, wait)) return std::nullopt;
  return decode(frame);
}

/// The next kJobDone for `request_id` at `t`, skipping heartbeat pings.
std::optional<JobDoneMsg> next_done(Transport& t, std::uint64_t request_id) {
  while (std::optional<Message> m = next_msg(t, 5s)) {
    if (m->type == MsgType::kJobDone && m->job_done.request_id == request_id)
      return m->job_done;
  }
  return std::nullopt;
}

/// A job body that parks on a gate the test opens; bounded, so a failed
/// assertion cannot wedge the server's teardown.
struct Gate {
  std::promise<void> started;
  std::promise<void> open;
  std::shared_future<void> opened = open.get_future().share();
  std::atomic<bool> released{false};
  std::atomic<int> runs{0};

  void release() {
    if (!released.exchange(true)) open.set_value();
  }
  RemoteFn fn() {
    return [this](std::span<const std::uint8_t>) {
      if (runs.fetch_add(1) == 0) started.set_value();
      opened.wait_for(10s);
      return std::vector<std::uint8_t>{};
    };
  }
};

/// A one-VP server whose front-end core nobody pumps but the test.
struct FrontEndRig {
  std::vector<std::unique_ptr<Transport>> fabric = make_memory_fabric(2);
  Registry registry;
  std::atomic<int> echoes{0};
  Gate gate;
  std::unique_ptr<anahy::serve::JobServer> server;
  std::unique_ptr<FrontEndCore> core;

  explicit FrontEndRig(FrontEndOptions opts = {}) {
    registry.add("echo", [this](std::span<const std::uint8_t> in) {
      echoes.fetch_add(1);
      return std::vector<std::uint8_t>(in.begin(), in.end());
    });
    registry.add("gate", gate.fn());
    anahy::serve::ServerOptions so;
    so.runtime.num_vps = 1;
    so.max_active = 1;  // a second job waits in the serve queue
    server = std::make_unique<anahy::serve::JobServer>(std::move(so));
    core = std::make_unique<FrontEndCore>(*server, *fabric[0], registry, opts);
  }
  ~FrontEndRig() {
    gate.release();
    server->drain();
  }

  Transport& client() { return *fabric[kClient]; }
  /// Delivers what the client sent so far to the core at `now`.
  void deliver(TimePoint now) { core->pump().drain(now); }
};

FrontEndOptions heartbeat(std::chrono::microseconds interval,
                          std::chrono::microseconds dead_after) {
  FrontEndOptions o;
  o.heartbeat_interval = interval;
  o.dead_after = dead_after;
  return o;
}

TEST(FrontEndCore, CompletedRetryIsAnsweredFromTheCache) {
  FrontEndRig rig;
  rig.client().send(0, submit_frame(7, "echo"));
  rig.deliver(kT0);
  ASSERT_TRUE(next_done(rig.client(), 7));

  // The retry is answered inside on_frame, before drain() returns.
  rig.client().send(0, submit_frame(7, "echo"));
  rig.deliver(kT0 + 1ms);
  const std::optional<Message> replay = next_msg(rig.client(), 0us);
  ASSERT_TRUE(replay);
  EXPECT_EQ(replay->type, MsgType::kJobDone);
  EXPECT_EQ(replay->job_done.request_id, 7u);
  EXPECT_EQ(rig.echoes.load(), 1) << "the retry re-executed the body";
  EXPECT_EQ(rig.core->retransmits(), 1u);
  EXPECT_EQ(rig.core->duplicates_suppressed(), 0u);
}

TEST(FrontEndCore, RunningRetryIsSuppressed) {
  FrontEndRig rig;
  rig.client().send(0, submit_frame(1, "gate"));
  rig.client().send(0, submit_frame(1, "gate"));
  rig.deliver(kT0);
  EXPECT_EQ(rig.core->duplicates_suppressed(), 1u);
  EXPECT_EQ(rig.core->submissions(), 2u);

  rig.gate.release();
  ASSERT_TRUE(next_done(rig.client(), 1));
  rig.server->drain();
  EXPECT_EQ(rig.gate.runs.load(), 1);
  EXPECT_FALSE(next_msg(rig.client(), 0us)) << "a second reply went out";
}

TEST(FrontEndCore, FirstProbeStartsTheSilenceClock) {
  FrontEndRig rig(heartbeat(10ms, 50ms));
  // An imported job proves nothing about its client: no silence clock yet.
  JobSubmitMsg job;
  job.client = kClient;
  job.request_id = 3;
  job.function = "gate";
  rig.core->inject_submit(job);
  ASSERT_EQ(rig.gate.started.get_future().wait_for(10s),
            std::future_status::ready);
  EXPECT_EQ(rig.core->last_seen_age_us(kClient, kT0), -1);

  rig.core->on_tick(kT0);
  const std::optional<Message> ping = next_msg(rig.client(), 0us);
  ASSERT_TRUE(ping);
  EXPECT_EQ(ping->type, MsgType::kPing);
  EXPECT_EQ(rig.core->pings_sent(), 1u);
  EXPECT_EQ(rig.core->last_seen_age_us(kClient, kT0 + 5ms), 5'000);

  // The full dead_after runs from that first probe.
  rig.core->on_tick(kT0 + 50ms);
  EXPECT_EQ(rig.core->clients_reaped(), 0u);
  rig.core->on_tick(kT0 + 50ms + 1us);
  EXPECT_EQ(rig.core->clients_reaped(), 1u);
}

TEST(FrontEndCore, SilentClientIsReapedAndItsJobsCancelled) {
  FrontEndRig rig(heartbeat(10ms, 50ms));
  rig.client().send(0, submit_frame(1, "gate"));
  rig.client().send(0, submit_frame(2, "echo"));  // queued behind the gate
  rig.deliver(kT0);
  ASSERT_EQ(rig.gate.started.get_future().wait_for(10s),
            std::future_status::ready);

  rig.core->on_tick(kT0 + 10ms);
  EXPECT_EQ(rig.core->pings_sent(), 1u);
  rig.core->on_tick(kT0 + 50ms);
  EXPECT_EQ(rig.core->clients_reaped(), 0u) << "reaped at dead_after";
  EXPECT_EQ(rig.core->last_seen_age_us(kClient, kT0 + 50ms), 50'000);

  rig.core->on_tick(kT0 + 50ms + 1us);
  EXPECT_EQ(rig.core->clients_reaped(), 1u);
  EXPECT_EQ(rig.core->last_seen_age_us(kClient, kT0 + 60ms), -1)
      << "a reaped client is forgotten";

  rig.gate.release();
  const std::optional<JobDoneMsg> queued = next_done(rig.client(), 2);
  ASSERT_TRUE(queued);
  EXPECT_EQ(queued->error, static_cast<std::uint32_t>(anahy::kAborted));
  EXPECT_EQ(rig.echoes.load(), 0) << "the cancelled job ran";
}

TEST(FrontEndCore, LastSeenAgeCountsFromTheLastSignOfLife) {
  FrontEndRig rig;
  EXPECT_EQ(rig.core->last_seen_age_us(kClient, kT0), -1);

  rig.client().send(0, encode(make_pong(kClient, 1)));
  rig.deliver(kT0);
  EXPECT_EQ(rig.core->last_seen_age_us(kClient, kT0 + 3ms), 3'000);
  // A caller whose clock read predates the stamp sees zero, not "never".
  EXPECT_EQ(rig.core->last_seen_age_us(kClient, kT0 - 1ms), 0);

  // A ping is answered and refreshes the stamp too.
  rig.client().send(0, encode(make_ping(kClient, 9)));
  rig.deliver(kT0 + 20ms);
  const std::optional<Message> pong = next_msg(rig.client(), 0us);
  ASSERT_TRUE(pong);
  EXPECT_EQ(pong->type, MsgType::kPong);
  EXPECT_EQ(pong->ping.token, 9u);
  EXPECT_EQ(rig.core->last_seen_age_us(kClient, kT0 + 21ms), 1'000);
}

TEST(FrontEndCore, CorruptFrameIsCountedByThePump) {
  FrontEndRig rig;
  rig.client().send(0, {0x99, 0x01, 0x02});
  rig.deliver(kT0);
  EXPECT_EQ(rig.core->rejected_frames(), 1u);
  EXPECT_EQ(rig.core->last_reject_diagnostic().rfind("ANAHY-F00", 0), 0u)
      << rig.core->last_reject_diagnostic();
}

// ------------------------------------------------------------- client --

/// A client core on node 1 of a 2-node fabric; node 0 is the test's raw
/// server endpoint.
struct ClientRig {
  std::vector<std::unique_ptr<Transport>> fabric = make_memory_fabric(2);
  ServeClientCore client{*fabric[1], /*server_node=*/0, /*seed=*/42};

  Transport& server() { return *fabric[0]; }

  /// submit_async stamped at `now`.
  std::future<ServeClientCore::Reply> submit(TimePoint now,
                                             const CallOptions& copts = {}) {
    return client.submit_async("fn", {}, copts, anahy::Priority::kNormal, -1,
                               false, nullptr, now);
  }

  /// kJobSubmit attempts queued at the server endpoint, by request id.
  std::vector<std::uint64_t> attempts() {
    std::vector<std::uint64_t> ids;
    while (std::optional<Message> m = next_msg(server(), 0us))
      if (m->type == MsgType::kJobSubmit)
        ids.push_back(m->job_submit.request_id);
    return ids;
  }
};

TEST(ServeClientCore, RetriesThenResolvesUnreachableAtTheDeadline) {
  ClientRig rig;
  CallOptions copts;
  copts.initial_backoff = 10ms;
  copts.max_backoff = 40ms;
  copts.deadline = 100ms;
  auto fut = rig.submit(kT0, copts);
  const std::vector<std::uint64_t> first = rig.attempts();
  ASSERT_EQ(first.size(), 1u);

  // The first slice is 10 ms plus up to a quarter of jitter.
  rig.client.on_tick(kT0 + 9ms);
  EXPECT_TRUE(rig.attempts().empty());
  rig.client.on_tick(kT0 + 13ms);
  EXPECT_EQ(rig.attempts(), first) << "a retry keeps its request id";
  EXPECT_EQ(rig.client.retries(), 1u);

  rig.client.on_tick(kT0 + 100ms - 1us);
  EXPECT_EQ(fut.wait_for(0s), std::future_status::timeout);
  rig.client.on_tick(kT0 + 100ms);
  ASSERT_EQ(fut.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(fut.get().error, anahy::kUnreachable);
  EXPECT_EQ(rig.client.inflight(), 0u);
}

TEST(ServeClientCore, DuplicateReplyIsCounted) {
  ClientRig rig;
  auto fut = rig.submit(kT0);
  const std::vector<std::uint64_t> ids = rig.attempts();
  ASSERT_EQ(ids.size(), 1u);
  const auto done = encode(make_job_done(ids[0], anahy::kOk, 0, {7}));
  rig.server().send(1, done);
  rig.server().send(1, done);
  rig.client.pump().drain(kT0 + 1ms);

  ASSERT_EQ(fut.wait_for(0s), std::future_status::ready);
  const ServeClientCore::Reply reply = fut.get();
  EXPECT_EQ(reply.error, anahy::kOk);
  EXPECT_EQ(reply.payload, std::vector<std::uint8_t>{7});
  EXPECT_EQ(rig.client.duplicate_replies(), 1u);
}

}  // namespace
