// Eventcount: a wait/notify primitive whose notify path writes no shared
// cache line when nobody needs waking.
//
// The seed scheduler did `notify_one` + `notify_all` on every spawn, i.e. a
// potential syscall on the hot path even with all VPs busy. An eventcount
// splits the protocol: consumers announce themselves (prepare_wait),
// re-check their condition, and only then commit to sleeping; producers
// read the waiter state and touch it, the mutex and the condvar only when
// some waiter still lacks a wake. The skipping notify is a fence, a load of
// a line nobody writes while everyone is busy, and a bump of the caller's
// own skipped-notify stripe (the Vyukov / Eigen EventCount shape).
//
// State: one word holding W, the waiters between prepare_wait and their
// exit; U <= W, those no notify has covered yet; and the epoch, bumped by
// each notify that wakes. A waiter registers with W and U up by one and
// sleeps until the epoch moves past the value it registered at. A waking
// notify bumps the epoch (which covers every waiter that has not blocked
// yet: it will not block), drops U by one (notify_one, which also wakes one
// blocked waiter through the condvar) or to zero (notify_all, which wakes
// them all). A waiter leaving with the epoch unmoved drops its own U, and
// U is capped at W, so the last one out zeroes it. A notify that finds U == 0 has nothing to add:
// every registered waiter is covered and will return. So once a sleeper
// has been woken, the notifies that follow before it registers again take
// the skipping path instead of queueing on the mutex, and the notifier's
// cost does not grow with how long the woken thread takes to be scheduled.
//
// Lost-wakeup argument (store-buffering / Dekker shape, closed by the
// seq_cst fence rule of [atomics.fences] on both sides):
//   waiter:   register (RMW on the state); fence(seq_cst) F_w; re-check
//             the condition; sleep until the epoch moves
//   notifier: publish work; fence(seq_cst) F_n; load the state
// F_w and F_n are ordered in the single total order S of seq_cst
// operations. For an atomic M modified by A sequenced before one fence and
// read by B sequenced after the other, [atomics.fences] makes B observe A
// (or a later modification of M) whenever the first fence precedes the
// second in S. So either F_n precedes F_w, and the waiter's re-check
// observes the published work, which is an atomic store sequenced before
// F_n; or F_w precedes F_n, and the notifier's load sees the waiter
// registered. Then either U > 0 and the notifier bumps the epoch and wakes
// the condvar under the mutex, which closes the window between the
// waiter's epoch check under the mutex and its actual sleep; or U == 0,
// and the waiter was covered by an earlier notify, returns, and re-checks
// behind a fresh prepare_wait: its new registration is later in the
// state's modification order than the value the notifier read, so that
// fence follows F_n and the re-check sees the work. Callers always loop
// back to prepare_wait and a re-check after a wait returns.
//
// U never undercounts the waiters still to be covered: a notify_one covers
// at least one (the blocked waiter the condvar wakes, or every waiter not
// yet blocked) for the one it subtracts, and a waiter subtracts its own
// only while no notify has covered it.
//
// ThreadSanitizer does not model std::atomic_thread_fence (gcc warns with
// -Wtsan), so under TSan both sides reach the state word with a seq_cst
// RMW instead: the notifier's fetch_add(0) either reads the waiter's
// registration or precedes it in the word's modification order, and then
// the waiter's RMW reads from its release sequence, so the published work
// happens before the waiter's re-check. That variant writes the line on
// every notify, so it is confined to sanitizer builds (as the deque's
// ANAHY_DEQUE_TSAN is).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stop_token>

#include "anahy/task_pool.hpp"
#include "anahy/types.hpp"

#if defined(__SANITIZE_THREAD__)
#define ANAHY_EVENTCOUNT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ANAHY_EVENTCOUNT_TSAN 1
#endif
#endif

namespace anahy {

class alignas(kCacheLine) EventCount {
 public:
  /// The epoch a waiter registered at; commit_wait sleeps until it moves.
  using Epoch = std::uint64_t;

  /// Step 1 of waiting: announce intent and snapshot the epoch. The caller
  /// MUST re-check its wait condition between prepare_wait and
  /// commit_wait, and call cancel_wait instead when the condition turned
  /// true.
  Epoch prepare_wait() {
    const std::uint64_t s =
        state_.fetch_add(kWaiter + kUncovered, std::memory_order_seq_cst);
#if !defined(ANAHY_EVENTCOUNT_TSAN)
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
    return epoch(s);
  }

  /// Withdraws the registration of prepare_wait's `e`.
  void cancel_wait(Epoch e) { leave(e); }
  /// The same without the epoch: this waiter's U share is left until the
  /// cap at W clears it, so a notify before then may wake needlessly.
  void cancel_wait() { leave(kUnknownEpoch); }

  /// Step 2: sleep until the epoch moves past the snapshot.
  void commit_wait(Epoch e) {
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [&] { return moved(e); });
    }
    leave(e);
  }

  /// Stop-token-aware variant; returns false when woken by the stop request
  /// with the epoch unchanged.
  bool commit_wait(Epoch e, const std::stop_token& st) {
    bool woke = false;
    {
      std::unique_lock lock(mu_);
      woke = cv_.wait(lock, st, [&] { return moved(e); });
    }
    leave(e);
    return woke;
  }

  void notify_one() { notify(false); }
  void notify_all() { notify(true); }

  /// Notifications that woke / that skipped the slow path because no
  /// registered waiter was left uncovered (monitoring). Skipped ones are
  /// summed over the per-thread stripes. Both are exact once the notifiers
  /// are quiescent.
  [[nodiscard]] std::uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t wakeups_skipped() const {
    std::uint64_t n = 0;
    for (const SkipStripe& s : skipped_)
      n += s.n.load(std::memory_order_relaxed);
    return n;
  }

 private:
  // State word: W in bits 0..15, U in bits 16..31, the epoch in 32..63.
  static constexpr std::uint64_t kWaiter = 1;
  static constexpr std::uint64_t kUncovered = std::uint64_t{1} << 16;
  static constexpr std::uint64_t kEpoch = std::uint64_t{1} << 32;
  static constexpr std::uint64_t kCountMask = 0xffff;
  static constexpr Epoch kUnknownEpoch = ~Epoch{0};
  static std::uint64_t waiters(std::uint64_t s) { return s & kCountMask; }
  static std::uint64_t uncovered(std::uint64_t s) {
    return (s >> 16) & kCountMask;
  }
  static Epoch epoch(std::uint64_t s) { return s >> 32; }

  bool moved(Epoch e) const {
    return epoch(state_.load(std::memory_order_acquire)) != e;
  }

  /// A waiter's exit, woken or cancelled: W drops by one and U by this
  /// waiter's own share while no notify has covered it. U is then capped
  /// at W (only registered waiters can be uncovered), which zeroes it with
  /// the last waiter out and keeps a share left behind by a spurious
  /// wakeup or an epoch-less cancel from outliving the waiters.
  void leave(Epoch e) {
    std::uint64_t s = state_.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t w = waiters(s) - 1;
      std::uint64_t u = uncovered(s);
      if (epoch(s) == e && u != 0) --u;
      const std::uint64_t next =
          (s & ~(kEpoch - 1)) |
          std::min(u, w) * kUncovered | w;
      if (state_.compare_exchange_weak(s, next, std::memory_order_relaxed))
        return;
    }
  }

  void notify(bool all) {
#if defined(ANAHY_EVENTCOUNT_TSAN)
    std::uint64_t s = state_.fetch_add(0, std::memory_order_seq_cst);
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::uint64_t s = state_.load(std::memory_order_relaxed);
#endif
    for (;;) {
      if (uncovered(s) == 0) {
        // Counted on the caller's pool stripe (task_pool.hpp), so the
        // skipping path writes only a line this thread owns.
        const pool_detail::StripeRef lease = pool_detail::my_stripe();
        pool_detail::bump(skipped_[lease.index].n, std::uint64_t{1},
                          lease.exclusive);
        return;
      }
      const std::uint64_t next =
          (all ? s & ~(kCountMask * kUncovered) : s - kUncovered) + kEpoch;
      if (state_.compare_exchange_weak(s, next, std::memory_order_release,
                                       std::memory_order_relaxed))
        break;
    }
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    {
      // Taking the mutex serializes with a waiter between its epoch
      // re-check and its cv wait, so the notify below cannot be lost.
      std::lock_guard lock(mu_);
    }
    if (all) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
  }

  /// One thread's count of skipped notifies (single writer while its pool
  /// stripe lease is exclusive; the overflow stripe is fetch_add-shared).
  struct alignas(kCacheLine) SkipStripe {
    std::atomic<std::uint64_t> n{0};
  };

  std::atomic<std::uint64_t> state_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::mutex mu_;
  std::condition_variable_any cv_;
  std::array<SkipStripe, pool_detail::kStatShards + 1> skipped_;
};

}  // namespace anahy
