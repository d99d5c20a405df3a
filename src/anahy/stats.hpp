// Runtime counters: always-on, lock-free, cheap.
//
// The hot event counters (one to eight increments per task on the fork/join
// path) are striped: each thread owns one cache-line-aligned stripe of the
// counter bank, so an increment is a plain relaxed load + store on a
// thread-private line instead of a locked read-modify-write on a shared
// one — roughly 3x cheaper per event, and never a point of contention.
// Totals are exact: `snapshot` sums the stripes, and every stripe has a
// single writer (threads beyond the stripe count share the overflow stripe
// and fall back to fetch_add there, keeping single-writer stripes intact).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace anahy {

/// Aggregated executive-kernel counters. A plain-struct `Snapshot` can be
/// taken at any time; counters are monotonic within one Runtime lifetime.
class RuntimeStats {
 public:
  struct Snapshot {
    std::uint64_t tasks_created = 0;
    std::uint64_t tasks_executed = 0;
    /// Joins that consumed their target. Each one also counts in exactly
    /// one of the four categories below (docs/SCHEDULER.md).
    std::uint64_t joins_total = 0;
    std::uint64_t joins_immediate = 0;  ///< finished before the flow split
    std::uint64_t joins_inlined = 0;    ///< joiner ran the target itself
    std::uint64_t joins_helped = 0;     ///< ran other tasks while it waited
    std::uint64_t joins_slept = 0;      ///< waited and ran nothing meanwhile
    std::uint64_t continuations = 0;    ///< logical T_i -> T_{i+1} splits
    std::uint64_t steals = 0;           ///< successful steals (steal policy)
    std::uint64_t steal_attempts = 0;
    std::uint64_t tasks_run_by_main = 0;
    std::uint64_t ready_peak = 0;       ///< high-water mark of the ready list
    std::uint64_t wakeups = 0;          ///< eventcount notifies with sleepers
    std::uint64_t wakeups_skipped = 0;  ///< notifies skipped (nobody asleep)

    [[nodiscard]] std::string to_string() const;
  };

  RuntimeStats();

  void on_task_created() { bump(kTasksCreated); }
  void on_task_executed(bool by_main) {
    bump(kTasksExecuted);
    if (by_main) bump(kTasksRunByMain);
  }
  /// The category of a join that consumed its target.
  enum class JoinKind : unsigned { kImmediate, kInlined, kHelped, kSlept };
  void on_join(JoinKind kind) {
    bump(kJoinsTotal);
    bump(static_cast<HotCounter>(kJoinsImmediate +
                                 static_cast<unsigned>(kind)));
  }
  void on_continuation() { bump(kContinuations); }
  void record_ready_len(std::uint64_t len) {
    std::uint64_t peak = ready_peak_.load(relaxed);
    while (len > peak &&
           !ready_peak_.compare_exchange_weak(peak, len, relaxed, relaxed)) {
    }
  }
  void record_steals(std::uint64_t steals, std::uint64_t attempts) {
    steals_.store(steals, relaxed);
    steal_attempts_.store(attempts, relaxed);
  }
  void record_wakeups(std::uint64_t sent, std::uint64_t skipped) {
    wakeups_.store(sent, relaxed);
    wakeups_skipped_.store(skipped, relaxed);
  }

  [[nodiscard]] Snapshot snapshot() const;

 private:
  static constexpr auto relaxed = std::memory_order_relaxed;

  enum HotCounter : unsigned {
    kTasksCreated,
    kTasksExecuted,
    kJoinsTotal,
    kJoinsImmediate,
    kJoinsInlined,
    kJoinsHelped,
    kJoinsSlept,
    kContinuations,
    kTasksRunByMain,
    kNumHotCounters,
  };

  /// One thread's stripe: atomics so cross-thread snapshot reads are
  /// race-free, but written by exactly one thread (plain load + store).
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, kNumHotCounters> c{};
  };
  /// Stripe count: enough for every VP plus external threads in normal use;
  /// the last stripe doubles as the shared overflow stripe when more
  /// threads than stripes ever touch this instance.
  static constexpr unsigned kStripes = 32;

  void bump(HotCounter which) {
    Stripe& s = stripe();
    std::atomic<std::uint64_t>& v = s.c[which];
    if (&s == &stripes_[kStripes - 1]) {
      // Overflow stripe: potentially shared, needs the real RMW.
      v.fetch_add(1, relaxed);
    } else {
      v.store(v.load(relaxed) + 1, relaxed);
    }
  }

  /// The calling thread's stripe of this instance (claimed on first use;
  /// instance-checked TLS, same idiom as the scheduler's VP binding).
  [[nodiscard]] Stripe& stripe();

  const std::uint64_t instance_id_;
  std::array<Stripe, kStripes> stripes_;
  std::atomic<unsigned> stripes_used_{0};

  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> steal_attempts_{0};
  std::atomic<std::uint64_t> ready_peak_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> wakeups_skipped_{0};
};

}  // namespace anahy
