// The eventcount protocol (eventcount.hpp). Its notify reads the state
// word after a fence and skips everything else when no registered waiter
// is left uncovered, so a missing fence shows up as a sleeper that a
// notify never saw. The stress tests make every handoff race a notify
// against a prepare_wait / re-check / commit_wait sequence, and a watchdog
// turns a lost wakeup into a failure instead of a hang. The single-thread
// tests pin the skip rule: a waiter a notify has covered is not woken
// again, and a waiter that cancels takes back its own share.
#include "anahy/eventcount.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <thread>
#include <vector>

namespace {

using anahy::EventCount;
using namespace std::chrono_literals;

constexpr auto kWatchdog = 30s;

/// Sleeps on `ec` until `ready()` or `abort`; the two-phase wait of
/// eventcount.hpp with its mandatory re-check. Before each prepare_wait it
/// polls `ready()` a pseudo-random 0..1023 times, so its announcement lands
/// at scattered offsets from the other side's publish-then-notify: a
/// waiter that is already asleep when the notify comes cannot lose it, and
/// without the jitter the lost-wakeup window is almost never hit.
void await(EventCount& ec, const std::function<bool()>& ready,
           const std::atomic<bool>& abort) {
  thread_local std::uint32_t lcg = 12345;
  while (!ready() && !abort.load(std::memory_order_acquire)) {
    lcg = lcg * 1103515245u + 12345u;
    for (std::uint32_t k = (lcg >> 16) % 1024; k > 0; --k)
      if (ready()) return;
    const EventCount::Epoch e = ec.prepare_wait();
    if (ready() || abort.load(std::memory_order_acquire)) {
      ec.cancel_wait();
      return;
    }
    ec.commit_wait(e);
  }
}

/// Polls `done()` until the watchdog fires. On expiry it raises `abort`
/// and wakes every eventcount (a stranded sleeper is a waiter no notify
/// has covered, so these notifies take the slow path), letting lost-wakeup
/// victims exit.
bool within_watchdog(const std::function<bool()>& done,
                     std::atomic<bool>& abort,
                     std::initializer_list<EventCount*> ecs) {
  const auto deadline = std::chrono::steady_clock::now() + kWatchdog;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      abort.store(true, std::memory_order_release);
      for (EventCount* ec : ecs) ec->notify_all();
      return false;
    }
    std::this_thread::sleep_for(100us);
  }
  return true;
}

TEST(EventCountSkip, CoveredWaiterIsNotWokenAgain) {
  EventCount ec;
  const EventCount::Epoch e = ec.prepare_wait();
  ec.notify_one();  // covers the waiter
  ec.notify_one();  // nothing left to wake
  ec.notify_all();
  // ASSERT before each commit_wait: without the wake it would sleep.
  ASSERT_EQ(ec.wakeups(), 1u);
  EXPECT_EQ(ec.wakeups_skipped(), 2u);
  ec.commit_wait(e);  // the epoch moved: returns without sleeping

  // Registered again, it is uncovered again.
  const EventCount::Epoch e2 = ec.prepare_wait();
  ec.notify_all();
  ASSERT_EQ(ec.wakeups(), 2u);
  ec.commit_wait(e2);
  ec.notify_one();  // nobody registered
  EXPECT_EQ(ec.wakeups(), 2u);
  EXPECT_EQ(ec.wakeups_skipped(), 3u);
}

TEST(EventCountSkip, CancelWithdrawsOnlyItsOwnShare) {
  EventCount ec;
  const EventCount::Epoch a = ec.prepare_wait();
  const EventCount::Epoch b = ec.prepare_wait();
  ec.cancel_wait(b);  // one waiter left uncovered
  ec.notify_one();
  ec.notify_one();
  EXPECT_EQ(ec.wakeups(), 1u);
  EXPECT_EQ(ec.wakeups_skipped(), 1u);

  // A waiter cancelling after a notify covered it leaves the others' share:
  // c registers uncovered, then a (covered) cancels.
  const EventCount::Epoch c = ec.prepare_wait();
  ec.cancel_wait(a);
  ec.notify_one();  // c still needs it
  ASSERT_EQ(ec.wakeups(), 2u);
  ec.commit_wait(c);
}

TEST(EventCountStress, HandoffsAcrossTwoThreadsLoseNoWakeup) {
  // Strict ping-pong over one slot: the producer may only publish item i
  // once the consumer took item i-1, so each side sleeps whenever it runs
  // ahead and every handoff is a wake race in each direction.
  constexpr int kHandoffs = 100'000;
  EventCount to_consumer;
  EventCount to_producer;
  std::atomic<int> slot{0};  // the item waiting for the consumer, 0 = none
  std::atomic<int> taken{0};
  std::atomic<bool> abort{false};

  std::thread consumer([&] {
    for (int i = 1; i <= kHandoffs; ++i) {
      await(
          to_consumer,
          [&] { return slot.load(std::memory_order_acquire) == i; }, abort);
      if (abort.load(std::memory_order_acquire)) return;
      slot.store(0, std::memory_order_release);
      taken.store(i, std::memory_order_release);
      to_producer.notify_one();
    }
  });
  std::thread producer([&] {
    for (int i = 1; i <= kHandoffs; ++i) {
      await(
          to_producer,
          [&] { return taken.load(std::memory_order_acquire) == i - 1; },
          abort);
      if (abort.load(std::memory_order_acquire)) return;
      slot.store(i, std::memory_order_release);
      to_consumer.notify_one();
    }
  });

  const bool finished = within_watchdog(
      [&] { return taken.load(std::memory_order_acquire) == kHandoffs; },
      abort, {&to_consumer, &to_producer});
  producer.join();
  consumer.join();
  EXPECT_TRUE(finished) << "lost wakeup: stalled after "
                        << taken.load() << " of " << kHandoffs
                        << " handoffs";
  EXPECT_EQ(taken.load(), kHandoffs);
}

TEST(EventCountStress, NotifyAllWakesTheWholeHerd) {
  // Four sleepers per round, one notify_all per round: each must see the
  // new round. A notify that reads a stale state (no uncovered waiter)
  // strands the whole herd.
  constexpr int kSleepers = 4;
  constexpr int kRounds = 2'000;
  EventCount ec;
  std::atomic<int> round{0};
  std::atomic<int> acks{0};
  std::atomic<bool> abort{false};

  std::vector<std::thread> herd;
  for (int t = 0; t < kSleepers; ++t) {
    herd.emplace_back([&] {
      for (int r = 1; r <= kRounds; ++r) {
        await(
            ec, [&] { return round.load(std::memory_order_acquire) >= r; },
            abort);
        if (abort.load(std::memory_order_acquire)) return;
        acks.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  bool finished = true;
  for (int r = 1; r <= kRounds && finished; ++r) {
    // Let the herd go back to sleep before the next round.
    finished = within_watchdog(
        [&] {
          return acks.load(std::memory_order_acquire) ==
                 kSleepers * (r - 1);
        },
        abort, {&ec});
    if (!finished) break;
    round.store(r, std::memory_order_release);
    ec.notify_all();
  }
  if (finished)
    finished = within_watchdog(
        [&] {
          return acks.load(std::memory_order_acquire) ==
                 kSleepers * kRounds;
        },
        abort, {&ec});
  for (auto& t : herd) t.join();
  EXPECT_TRUE(finished) << "lost wakeup: " << acks.load() << " of "
                        << kSleepers * kRounds << " acknowledgements";
  EXPECT_GT(ec.wakeups(), 0u) << "no notify ever found a sleeper";
}

}  // namespace
