// cluster::RequestTable under fabricated time: the retry and deadline
// decisions AsyncServeClient and MeshRouter share, exercised with no
// thread, no transport and no sleep.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/request_table.hpp"

namespace {

using namespace cluster;
using namespace std::chrono_literals;

using TimePoint = std::chrono::steady_clock::time_point;
using Table = RequestTable<int, TimePoint>;

const TimePoint kT0{};  // an arbitrary origin: the table never reads a clock

CallOptions envelope(std::chrono::microseconds initial,
                     std::chrono::microseconds cap,
                     std::chrono::microseconds deadline, int attempts = 0) {
  CallOptions o;
  o.initial_backoff = initial;
  o.max_backoff = cap;
  o.deadline = deadline;
  o.max_attempts = attempts;
  return o;
}

/// What ticking a table every microsecond over [from, until] produced.
struct Trace {
  std::vector<TimePoint> resends;
  std::optional<TimePoint> expired;
};

Trace drive(Table& table, TimePoint from, TimePoint until) {
  Trace run;
  for (TimePoint now = from; now <= until && !run.expired; now += 1us) {
    const auto due = table.tick(now);
    for (std::size_t i = 0; i < due.resend.size(); ++i)
      run.resends.push_back(now);
    if (!due.expired.empty()) run.expired = now;
  }
  return run;
}

/// Gaps between consecutive sends, the first one sent at kT0.
std::vector<std::chrono::microseconds> gaps(const Trace& run) {
  std::vector<std::chrono::microseconds> out;
  TimePoint prev = kT0;
  for (TimePoint t : run.resends) {
    out.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
        t - prev));
    prev = t;
  }
  return out;
}

TEST(RequestTable, BackoffDoublesUpToTheCapWithBoundedJitter) {
  Table table(7);
  table.add(1, {0xAB}, MsgType::kJobDone, envelope(1000us, 8000us, 60ms),
            kT0, 0);
  const Trace run = drive(table, kT0, kT0 + 59ms);
  ASSERT_GE(run.resends.size(), 8u);
  EXPECT_FALSE(run.expired);
  std::chrono::microseconds slice = 1000us;
  for (const auto gap : gaps(run)) {
    // Each wait is its slice plus jitter uniform in [0, slice/4].
    EXPECT_GE(gap, slice);
    EXPECT_LE(gap, slice + slice / 4);
    slice = std::min(slice * 2, std::chrono::microseconds{8000});
  }
}

TEST(RequestTable, JitterIsSeedDeterministic) {
  auto gaps_for = [](std::uint64_t seed) {
    Table table(seed);
    table.add(1, {}, MsgType::kJobDone, envelope(4000us, 4000us, 200ms), kT0,
              0);
    return gaps(drive(table, kT0, kT0 + 199ms));
  };
  const auto a = gaps_for(42);
  EXPECT_EQ(a, gaps_for(42));
  EXPECT_NE(a, gaps_for(43));
  // At a fixed slice the jitter actually varies.
  bool varied = false;
  for (const auto gap : a) varied = varied || gap != a.front();
  EXPECT_TRUE(varied);
}

TEST(RequestTable, AttemptBudgetExpiresOnlyAfterTheLastSlice) {
  Table table(1);
  table.add(1, {}, MsgType::kJobDone, envelope(1000us, 1000us, 1s, 2), kT0,
            5);
  // Attempt 1 waits its slice, then attempt 2 is sent.
  Trace run = drive(table, kT0, kT0 + 1250us);
  ASSERT_EQ(run.resends.size(), 1u);
  const TimePoint last_sent = run.resends.front();
  // The budget is spent, but the last attempt still waits out its slice:
  // a reply landing inside it resolves the request.
  EXPECT_TRUE(table.tick(last_sent + 999us).expired.empty());
  EXPECT_TRUE(table.contains(1));
  run = drive(table, last_sent + 1ms, last_sent + 2ms);
  EXPECT_TRUE(run.resends.empty());
  ASSERT_TRUE(run.expired);
  EXPECT_LE(*run.expired, last_sent + 1250us);
  EXPECT_FALSE(table.contains(1));
}

TEST(RequestTable, SingleAttemptIsAnsweredInsideItsSlice) {
  Table table(1);
  table.add(9, {}, MsgType::kJobDone, envelope(100ms, 100ms, 2s, 1), kT0, 3);
  const auto due = table.tick(kT0 + 99ms);
  EXPECT_TRUE(due.resend.empty());
  EXPECT_TRUE(due.expired.empty());
  EXPECT_EQ(table.take(9, MsgType::kJobDone), 3);
}

TEST(RequestTable, DeadlineExpiresBeforeTheBudget) {
  Table table(1);
  table.add(1, {}, MsgType::kStatsReply, envelope(1000us, 1000us, 5ms, 100),
            kT0, 11);
  const Trace run = drive(table, kT0, kT0 + 10ms);
  ASSERT_TRUE(run.expired);
  EXPECT_EQ(*run.expired, kT0 + 5ms);
  EXPECT_GE(run.resends.size(), 3u);
  EXPECT_LE(run.resends.size(), 4u);
}

TEST(RequestTable, TakeRefusesTheWrongReplyType) {
  Table table(1);
  table.add(4, {}, MsgType::kJobDone, CallOptions{}, kT0, 40);
  EXPECT_EQ(table.take(4, MsgType::kStatsReply), std::nullopt);
  EXPECT_EQ(table.find(4, MsgType::kStatsReply), nullptr);
  ASSERT_NE(table.find(4, MsgType::kJobDone), nullptr);
  EXPECT_EQ(*table.find(4, MsgType::kJobDone), 40);
  EXPECT_EQ(table.take(4, MsgType::kJobDone), 40);
  // A second reply for the id is a duplicate.
  EXPECT_EQ(table.take(4, MsgType::kJobDone), std::nullopt);
  EXPECT_EQ(table.take(5, MsgType::kJobDone), std::nullopt);
}

TEST(RequestTable, RearmRestartsAtTheInitialBackoff) {
  Table table(3);
  table.add(1, {1, 2, 3}, MsgType::kJobDone, envelope(1000us, 8000us, 1s),
            kT0, 0);
  // Back off to the cap: four resends take at most 1.25 * (1+2+4+8) ms.
  const Trace grown = drive(table, kT0, kT0 + 19ms);
  ASSERT_GE(grown.resends.size(), 4u);
  const TimePoint t = kT0 + 20ms;
  EXPECT_EQ(table.rearm(1, t), (std::vector<std::uint8_t>{1, 2, 3}));
  const Trace run = drive(table, t, t + 1250us);
  ASSERT_EQ(run.resends.size(), 1u);
  EXPECT_GE(run.resends.front(), t + 1000us);
}

TEST(RequestTable, TakeAllReturnsEveryEntry) {
  Table table(1);
  for (int id = 1; id <= 3; ++id)
    table.add(static_cast<std::uint64_t>(id), {}, MsgType::kJobDone,
              CallOptions{}, kT0, id * 10);
  const auto all = table.take_all();
  ASSERT_EQ(all.size(), 3u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].first, i + 1);
    EXPECT_EQ(all[i].second, static_cast<int>(i + 1) * 10);
  }
  EXPECT_EQ(table.size(), 0u);
  const auto due = table.tick(kT0 + 10s);
  EXPECT_TRUE(due.resend.empty());
  EXPECT_TRUE(due.expired.empty());
}

}  // namespace
