// anahy::observe — the executive kernel's one counter bank.
//
// Telemetry keeps one cache-line-padded counter slot per virtual processor
// (plus one shared slot for external threads), fed directly from the
// scheduling hot paths:
//
//   - fork / run / continuation events and joins by category (scheduler),
//   - steal attempts and successes per thief (work-stealing policy),
//   - idle spins and parks, with parked nanoseconds (VP wait loop),
//   - ready-deque depth samples at push time (policy),
//   - exits from the paper's FINISHED, BLOCKED and UNBLOCKED lists
//     (scheduler), so those list sizes are differences of monotonic
//     counters and no list gauge is a shared line written per task.
//
// Its totals are Runtime::stats(); its per-VP slots answer what an operator
// of a serving deployment asks: *which VP* is starving, how much of the
// fleet's time is idle, whether steals are succeeding or spinning.
//
// Every worker slot has exactly one writing thread, so an increment is a
// relaxed load + store on a private line; only the shared external slot
// pays a real fetch_add. Reading never stops the workers: snapshot() is
// wait-free, sums the slots, stamps a monotonically increasing epoch, and
// computes the derived gauges (steal success ratio, idle fraction, average
// deque depth) operators alert on. Counters are monotonic within one
// runtime lifetime, so two snapshots can be subtracted (delta) to rate
// them over an interval.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "anahy/types.hpp"

namespace anahy::observe {

/// The category of a join that consumed its target (docs/SCHEDULER.md).
enum class JoinKind : unsigned {
  kImmediate,  ///< target finished before the flow split
  kInlined,    ///< joiner ran the target itself
  kHelped,     ///< joiner ran other tasks while it waited
  kSlept,      ///< joiner waited and ran nothing meanwhile
};

/// One slot's counter values (also used for aggregated totals).
struct VpCounters {
  std::uint64_t forks = 0;
  /// Joins that consumed their target: the sum of the four categories
  /// below, so the categories partition it by construction.
  std::uint64_t joins = 0;
  std::uint64_t joins_immediate = 0;
  std::uint64_t joins_inlined = 0;
  std::uint64_t joins_helped = 0;
  std::uint64_t joins_slept = 0;
  std::uint64_t continuations = 0;  ///< logical T_i -> T_{i+1} flow splits
  std::uint64_t tasks_run = 0;       ///< counted before the body runs
  std::uint64_t tasks_finished = 0;  ///< counted after the body returned
  /// Tasks that left the FINISHED list: a joinable task when its last join
  /// consumed it, a detached one as it finished. tasks_finished minus this
  /// is the FINISHED list.
  std::uint64_t tasks_retired = 0;
  /// Blocked flows whose join target finished (or whose budget raced
  /// away). continuations minus this is the BLOCKED list.
  std::uint64_t flows_unblocked = 0;
  /// Unblocked flows that consumed their target and resumed.
  /// flows_unblocked minus this is the UNBLOCKED list.
  std::uint64_t flows_resumed = 0;
  /// Runs by a thread that is not a worker VP (main or a foreign helper).
  std::uint64_t tasks_run_by_main = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_successes = 0;
  std::uint64_t idle_spins = 0;   ///< wait-loop passes that found no task
  std::uint64_t idle_parks = 0;   ///< waits that committed to sleeping
  std::uint64_t idle_park_ns = 0; ///< total parked time
  std::uint64_t deque_depth_sum = 0;     ///< sum of sampled ready depths
  std::uint64_t deque_depth_samples = 0; ///< number of depth samples
  std::uint64_t deque_depth_peak = 0;    ///< high-water sampled depth

  VpCounters& operator+=(const VpCounters& o);
  [[nodiscard]] VpCounters minus(const VpCounters& earlier) const;
};

/// Wait-free aggregate view. `per_vp` holds one entry per worker VP slot
/// followed by one entry for all external (non-VP) threads combined.
struct Snapshot {
  std::uint64_t epoch = 0;      ///< snapshot generation (1-based, monotonic)
  std::int64_t elapsed_ns = 0;  ///< since telemetry start
  int num_vps = 0;
  std::vector<VpCounters> per_vp;  ///< size num_vps + 1 (last = external)
  VpCounters total;
  /// Ready-task gauge per priority class at snapshot time (filled by the
  /// scheduler from its policy; zero when the policy keeps no classes).
  std::array<std::uint64_t, kNumPriorities> ready_by_class{};

  /// steal_successes / steal_attempts (1.0 when no attempt was made: a
  /// thief that never had to try is not starving).
  [[nodiscard]] double steal_success_ratio() const;

  /// Parked time as a fraction of the fleet's wall time
  /// (idle_park_ns / (elapsed_ns * num_vps)); spin time is not counted,
  /// so this is a lower bound on true idleness.
  [[nodiscard]] double idle_fraction() const;

  /// Mean sampled ready-deque depth (0 when never sampled).
  [[nodiscard]] double avg_deque_depth() const;

  /// Counter-wise difference vs an `earlier` snapshot of the same
  /// telemetry instance; gauges and elapsed are re-derived.
  [[nodiscard]] Snapshot delta(const Snapshot& earlier) const;
};

/// The per-VP counter bank. One instance per Scheduler; thread-safe.
class Telemetry {
 public:
  explicit Telemetry(int num_vps);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Number of worker slots (the external slot is extra).
  [[nodiscard]] int num_vps() const { return num_vps_; }

  // Hot-path feeds. `vp` may be any value the scheduler uses for a caller
  // identity: out-of-range ids (kExternalVp, the policy's external slot
  // index) land on the shared external slot.
  void on_fork(int vp) { add(vp, kForks, 1); }
  void on_join(int vp, JoinKind kind) {
    add(vp, static_cast<Counter>(kJoinsImmediate + static_cast<unsigned>(kind)),
        1);
  }
  void on_continuation(int vp) { add(vp, kContinuations, 1); }
  void on_task_run(int vp, bool by_main) {
    add(vp, kTasksRun, 1);
    if (by_main) add(vp, kTasksRunByMain, 1);
  }
  void on_task_finished(int vp) { add(vp, kTasksFinished, 1); }
  void on_task_retired(int vp) { add(vp, kTasksRetired, 1); }
  void on_flow_unblocked(int vp) { add(vp, kFlowsUnblocked, 1); }
  void on_flow_resumed(int vp) { add(vp, kFlowsResumed, 1); }
  void on_steal_attempt(int vp) { add(vp, kStealAttempts, 1); }
  void on_steal_success(int vp) { add(vp, kStealSuccesses, 1); }
  void on_idle_spin(int vp) { add(vp, kIdleSpins, 1); }
  void on_idle_park(int vp, std::int64_t ns) {
    add(vp, kIdleParks, 1);
    if (ns > 0) add(vp, kIdleParkNs, static_cast<std::uint64_t>(ns));
  }
  void sample_deque_depth(int vp, std::size_t depth);

  /// Wait-free aggregate: sums every slot without stopping writers.
  /// Cross-slot skew is bounded by in-flight increments; every counter is
  /// individually exact (monotonic, single-writer per worker slot).
  [[nodiscard]] Snapshot snapshot() const;

  /// Counter totals over every slot: what snapshot() reports as `total`,
  /// without the per-VP vector or the epoch (cheap enough to poll).
  [[nodiscard]] VpCounters totals() const;

 private:
  /// Slot counters, in the order of kSlotFields (telemetry.cpp).
  enum Counter : unsigned {
    kForks,
    kJoinsImmediate,  // the four join categories, in JoinKind order
    kJoinsInlined,
    kJoinsHelped,
    kJoinsSlept,
    kContinuations,
    kTasksRun,
    kTasksFinished,
    kTasksRetired,
    kFlowsUnblocked,
    kFlowsResumed,
    kTasksRunByMain,
    kStealAttempts,
    kStealSuccesses,
    kIdleSpins,
    kIdleParks,
    kIdleParkNs,
    kDepthSum,
    kDepthSamples,
    kDepthPeak,
    kNumCounters,
  };

  /// One VP's padded counter bank. Atomics so snapshot reads are race-free;
  /// worker slots are written by exactly one thread (plain load + store).
  struct alignas(64) Slot {
    std::array<std::atomic<std::uint64_t>, kNumCounters> c{};
  };

  /// One slot's counters (joins derived from the categories).
  [[nodiscard]] static VpCounters load(const Slot& slot);

  [[nodiscard]] std::size_t slot_of(int vp) const {
    return vp >= 0 && vp < num_vps_ ? static_cast<std::size_t>(vp)
                                    : static_cast<std::size_t>(num_vps_);
  }

  void add(int vp, Counter which, std::uint64_t n) {
    const std::size_t s = slot_of(vp);
    std::atomic<std::uint64_t>& v = slots_[s].c[which];
    if (s == static_cast<std::size_t>(num_vps_)) {
      // External slot: any number of foreign threads share it.
      v.fetch_add(n, std::memory_order_relaxed);
    } else {
      v.store(v.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
    }
  }

  const int num_vps_;
  std::vector<Slot> slots_;  // num_vps_ + 1; never resized after ctor
  mutable std::atomic<std::uint64_t> snapshot_epoch_{0};
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

}  // namespace anahy::observe
