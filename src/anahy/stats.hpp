// Executive-kernel totals: the plain result type of Runtime::stats().
//
// The counters themselves live in the scheduler's one counter bank,
// observe::Telemetry (per-VP single-writer slots); Scheduler::stats_snapshot
// folds the bank's totals, the ready-list high-water mark and the
// eventcount wakeups into this struct. The bank's list-exit counters
// (tasks_retired, flows_unblocked, flows_resumed) are not repeated here:
// Scheduler::lists() turns them into the paper's list sizes.
#pragma once

#include <cstdint>
#include <string>

namespace anahy {

struct RuntimeStats {
  /// Counters are monotonic within one Runtime lifetime.
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
    /// High-water mark of the ready list, read on a thread's first fork
    /// and then on one in 16 (SchedulingPolicy::kDepthSampleStride).
    std::uint64_t ready_peak = 0;
    std::uint64_t wakeups = 0;          ///< eventcount notifies that woke
    /// Notifies skipped: nobody waiting, or every waiter already woken.
    std::uint64_t wakeups_skipped = 0;

    [[nodiscard]] std::string to_string() const;
  };
};

}  // namespace anahy
