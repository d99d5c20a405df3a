// Eventcount: a wait/notify primitive whose notify path is two atomic
// operations when nobody is sleeping.
//
// The seed scheduler did `notify_one` + `notify_all` on every spawn, i.e. a
// potential syscall on the hot path even with all VPs busy. An eventcount
// splits the protocol: producers always bump an epoch (one uncontended RMW)
// and only touch the mutex/condvar when the waiter count is non-zero;
// consumers announce themselves (prepare_wait), re-check their condition,
// and only then commit to sleeping.
//
// Lost-wakeup argument (store-buffering / Dekker shape):
//   waiter:   waiters_.fetch_add (seq_cst); e = epoch_.load (seq_cst);
//             re-check work; sleep until epoch_ != e
//   notifier: publish work; epoch_.fetch_add (seq_cst); read waiters_
// In the seq_cst total order either the notifier's epoch bump precedes the
// waiter's epoch load — then the waiter reads the bumped epoch, the RMW
// read synchronizes-with it, and the re-check is guaranteed to observe the
// published work — or the waiter's waiters_ increment precedes the
// notifier's waiters_ read, so the notifier sees a sleeper and notifies
// through the mutex; the epoch re-check under the mutex closes the window
// between the waiter's re-check and its actual sleep.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stop_token>

namespace anahy {

class EventCount {
 public:
  using Epoch = std::uint64_t;

  /// Step 1 of waiting: announce intent and snapshot the epoch. The caller
  /// MUST re-check its wait condition between prepare_wait and
  /// commit_wait, and call cancel_wait instead when the condition turned
  /// true.
  Epoch prepare_wait() {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_seq_cst);
  }

  void cancel_wait() { waiters_.fetch_sub(1, std::memory_order_relaxed); }

  /// Step 2: sleep until the epoch moves past the snapshot.
  void commit_wait(Epoch e) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] {
      return epoch_.load(std::memory_order_acquire) != e;
    });
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Stop-token-aware variant; returns false when woken by the stop request
  /// with the epoch unchanged.
  bool commit_wait(Epoch e, const std::stop_token& st) {
    std::unique_lock lock(mu_);
    const bool moved = cv_.wait(lock, st, [&] {
      return epoch_.load(std::memory_order_acquire) != e;
    });
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    return moved;
  }

  void notify_one() { notify(false); }
  void notify_all() { notify(true); }

  /// Notifications that found a sleeper / that skipped the slow path
  /// entirely (monitoring). Every notify bumps the epoch exactly once, so
  /// the skipped ones are the epoch minus the wakeups. wakeups_ is read
  /// first, with acquire: each wakeup's release increment follows its own
  /// epoch bump, so the epoch read after it is at least as large and the
  /// difference cannot underflow.
  [[nodiscard]] std::uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t wakeups_skipped() const {
    const std::uint64_t woke = wakeups_.load(std::memory_order_acquire);
    return epoch_.load(std::memory_order_relaxed) - woke;
  }

 private:
  void notify(bool all) {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    wakeups_.fetch_add(1, std::memory_order_release);
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

  std::atomic<Epoch> epoch_{0};
  std::atomic<std::int64_t> waiters_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::mutex mu_;
  std::condition_variable_any cv_;
};

}  // namespace anahy
