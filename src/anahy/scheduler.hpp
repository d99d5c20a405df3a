// The executive kernel: task creation, the four task lists, and join.
//
// Paper §2.2.1: the scheduling algorithm manages four task lists — READY
// (runnable), FINISHED (done, result not yet joined), BLOCKED (flows split
// at a join whose target has not finished) and UNBLOCKED (flows whose join
// target finished, pending resumption). The ready list lives inside the
// pluggable SchedulingPolicy; the other three are bookkeeping owned here.
//
// Join semantics follow the paper's mono-processor description: a flow that
// joins an unfinished task is split — the code after the join is a new
// continuation task T_{i+1}, blocked on the target (T_j < T_{i+1}). In this
// implementation the continuation is the native stack frame of the joining
// virtual processor: while "blocked" the VP keeps the machine busy by
// (1) pulling the join target itself out of the ready list and running it
// inline, or (2) running any other ready task, and only (3) sleeps when the
// target is running on another VP and nothing else is ready.
//
// Concurrency design (docs/SCHEDULER.md): there is no global scheduler
// mutex. The fork/join hot path is lock-free —
//  - task state transitions (kReady -> kRunning -> kFinished -> kJoined)
//    and the join budget are an atomic state machine on Task, so join's
//    fast path acquire-reads the state and CAS-consumes the budget;
//  - the live-task registry is sharded (kRegistryShards buckets keyed by
//    TaskId, each with its own small mutex), so create/find/retire of
//    different tasks never contend;
//  - sleeping uses eventcounts: spawn and finish read a state word and
//    only bump an epoch and touch a condvar when some VP/joiner waits
//    and has not been woken yet;
//  - the FINISHED/BLOCKED/UNBLOCKED list sizes are differences of per-VP
//    telemetry counters, and each atomic the fork/join path still writes
//    (the id counter, the ready-peak mark, the eventcounts, the registry
//    shards) owns its cache line, so two busy VPs share no written line.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "anahy/eventcount.hpp"
#include "anahy/observe/profiler.hpp"
#include "anahy/observe/telemetry.hpp"
#include "anahy/policy.hpp"
#include "anahy/stats.hpp"
#include "anahy/task.hpp"
#include "anahy/trace.hpp"
#include "anahy/types.hpp"

namespace anahy {

namespace check {
class Detector;
}  // namespace check

class Scheduler {
 public:
  struct Options {
    int num_vps = 4;
    PolicyKind policy = PolicyKind::kWorkStealing;
    bool trace = false;
    /// Whether external (non-VP) threads blocked in a join may execute
    /// ready tasks while waiting. When false they only sleep, so the task
    /// concurrency bound is exactly the number of worker VPs.
    bool external_helps = true;
    /// Run the determinacy-race detector (anahy::check). Zero cost when
    /// off: the fork/join hot path only tests one pointer.
    bool check = false;
    /// Span profiling: record every task's execution interval + VP into
    /// per-VP buffers for Chrome-trace export (tools/anahy-profile) and
    /// work/span analysis. Implies `trace`.
    bool profile = false;
  };

  /// Sizes of the four task lists (monitoring/tests). Each is summed from
  /// per-VP counters, so a snapshot racing running tasks may be off by the
  /// in-flight transitions; once the runtime is quiescent it is exact.
  struct ListSnapshot {
    std::size_t ready = 0;
    std::size_t finished = 0;
    std::size_t blocked = 0;
    std::size_t unblocked = 0;
  };

  /// Number of buckets of the sharded live-task registry (power of two;
  /// tasks map to buckets by id, so concurrent create/find/retire of
  /// distinct tasks rarely touch the same bucket mutex).
  static constexpr std::size_t kRegistryShards = 64;

  explicit Scheduler(const Options& opts);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Fork: creates a task in the READY list. `label` is kept in the trace.
  /// The task inherits the forking task's execution context (job identity,
  /// priority class, cancellation/deadline; task_context.hpp) when one is
  /// attached; top-level forks carry none. An explicit `ctx` makes it a
  /// serve job's root: descendants inherit `ctx`, it is exempt from
  /// cancellation skipping (ctx->root_task is set here) and it forks from a
  /// fresh main-flow frame (flow T0, level 1) whatever thread dispatches it.
  TaskPtr create_task(TaskBody body, void* input, const TaskAttributes& attr,
                      std::string label = {}, TaskContextPtr ctx = nullptr);

  /// Runs queued tasks on the calling thread until every created task has
  /// executed (service-mode teardown; Options::drain_on_exit). Tasks
  /// forked while draining are drained too. Safe to call while worker VPs
  /// are still running: they keep consuming tasks concurrently and the
  /// call returns once the created == executed fixpoint is reached.
  void drain();

  /// Join: synchronizes with `task`'s completion and retrieves its result.
  /// `vp` identifies the calling virtual processor (kExternalVp for the
  /// program main flow). Returns an `Error` code (kOk on success).
  int join(const TaskPtr& task, void** result, int vp);

  /// Join by id (the athread_t path). Fails with kNotFound when the id was
  /// never created or its join budget is exhausted.
  int join_by_id(TaskId id, void** result, int vp);

  /// Non-blocking join: consumes the result when `task` already finished,
  /// otherwise returns kBusy without waiting (and without helping).
  int try_join(const TaskPtr& task, void** result);

  /// Looks up a live task by id (nullptr if unknown/already reclaimed).
  [[nodiscard]] TaskPtr find(TaskId id) const;

  /// What reap_orphans() released: how many stranded tasks it retired and
  /// the pool bytes their control blocks were charged for.
  struct ReapResult {
    std::size_t tasks = 0;
    std::uint64_t bytes = 0;
  };

  /// Rejuvenation reaper (docs/REJUV.md): retires every registry entry that
  /// is kFinished *and* belongs to a context whose job already resolved.
  /// Such a task exists only because its join budget was never consumed —
  /// the classic serve-layer leak ANAHY-A001/A004 flag — and after
  /// resolution nobody joins it by id anymore (a later join_by_id sees
  /// kNotFound, same as any reclaimed task; joins through a still-held
  /// TaskPtr are unaffected, retire() being idempotent). Ready/running
  /// strays and context-free tasks are left alone.
  ReapResult reap_orphans();

  /// Worker-loop entry: blocks until a ready task is available or stop is
  /// requested; returns nullptr on stop.
  TaskPtr wait_for_task(int vp, const std::stop_token& st);

  /// Executes `task` on the calling thread acting as VP `vp`.
  void run_task(const TaskPtr& task, int vp);

  /// Wakes all sleeping VPs/joiners (used at shutdown).
  void notify_all();

  /// Id of the flow executing on the calling thread (kRootTaskId for the
  /// main flow outside any task).
  [[nodiscard]] static TaskId current_flow_id();

  /// Id of the *task* executing on the calling thread (kRootTaskId for the
  /// main flow). Unlike current_flow_id it never advances to continuation
  /// ids; the race detector keys its graph by task identity.
  [[nodiscard]] static TaskId current_task_id();

  /// Nesting depth of task frames on the calling thread (0 = main flow).
  [[nodiscard]] static std::size_t current_stack_depth();

  /// VP slot the calling thread owns *in this scheduler* (kExternalVp for
  /// foreign threads, or when the thread's binding belongs to another
  /// scheduler instance). Forks and helping joins from a bound thread use
  /// its own lock-free deque; everything else goes through the external
  /// overflow queue.
  [[nodiscard]] int bound_vp() const;

  [[nodiscard]] ListSnapshot lists() const;

  /// Kernel totals: the counter bank's totals plus the ready-list
  /// high-water mark and the eventcount wakeups.
  [[nodiscard]] RuntimeStats::Snapshot stats_snapshot() const;

  /// Approximate ready tasks per priority class, from the active policy
  /// (monitoring only).
  [[nodiscard]] std::array<std::size_t, kNumPriorities> ready_by_class()
      const;

  /// Per-VP telemetry snapshot with the ready-task gauge per priority
  /// class filled in from ready_by_class(). Wait-free with respect to the
  /// worker VPs.
  [[nodiscard]] observe::Snapshot observe_snapshot() const;

  /// Drains buffered profiler spans into the trace graph (no-op unless
  /// Options::profile). Idempotent; called before saving the trace.
  void flush_profile();

  /// Binds the calling thread to VP slot `vp` of this scheduler: its forks
  /// then push to its own deque (Chase-Lev single-owner discipline).
  /// Called by VirtualProcessor at thread start with worker=true, and by
  /// Runtime for the main thread (main_participates) with worker=false so
  /// main's executions still count as tasks_run_by_main. The binding is
  /// instance-checked: a stale binding from a dead or different scheduler
  /// falls back to the external slot instead of racing a deque owner.
  void bind_thread_to_vp(int vp, bool worker = true);
  [[nodiscard]] TraceGraph& trace() { return trace_; }
  [[nodiscard]] const Options& options() const { return opts_; }

  /// The determinacy-race detector (null unless Options::check was set).
  [[nodiscard]] check::Detector* detector() { return detector_.get(); }

 private:
  /// Per-thread execution frame: which task this thread is running and the
  /// current flow id (updated when a blocking join splits the flow).
  struct Frame {
    Task* task = nullptr;  // nullptr for the root/main flow
    TaskId flow_id = kRootTaskId;
    std::uint32_t level = 0;
  };

  /// Tiny test-and-set spinlock guarding one registry shard. The critical
  /// sections are a handful of pointer writes (or a short list walk in
  /// find), and 64 shards keep contention rare, so a spinlock beats a
  /// mutex: uncontended acquire is one atomic exchange and release is a
  /// plain store, where pthread mutexes pay a locked RMW on both ends.
  class ShardLock {
   public:
    void lock() {
      while (flag_.exchange(true, std::memory_order_acquire)) {
        while (flag_.load(std::memory_order_relaxed))
          std::this_thread::yield();  // single-core friendly
      }
    }
    void unlock() { flag_.store(false, std::memory_order_release); }

   private:
    std::atomic<bool> flag_{false};
  };

  /// One bucket of the live-task registry: an intrusive doubly-linked list
  /// threaded through the tasks themselves (Task::reg_prev_/reg_next_,
  /// kept alive by Task::registry_guard_). Insert and unlink are O(1) and
  /// allocation-free — a map node per task costs ~10% of a fine-grained
  /// task — while find() (the by-id join path only) walks the bucket.
  struct alignas(kCacheLine) Shard {
    mutable ShardLock mu;
    Task* head = nullptr;
  };

  [[nodiscard]] Shard& shard(TaskId id) {
    return shards_[static_cast<std::size_t>(id) & (kRegistryShards - 1)];
  }
  [[nodiscard]] const Shard& shard(TaskId id) const {
    return shards_[static_cast<std::size_t>(id) & (kRegistryShards - 1)];
  }

  /// Registers a freshly created task in its shard (O(1), no allocation).
  void register_task(const TaskPtr& task);

  /// Removes a retired (kJoined) task from the registry.
  void retire(Task* task);

  /// Consumes one join on `task` after the caller observed kFinished and
  /// counts it in `kind`. Returns kOk, or kNotFound when the budget raced
  /// away.
  int try_consume(const TaskPtr& task, void** result, observe::JoinKind kind);

  /// Raises the ready-list high-water mark to `len` if it is higher.
  void record_ready_len(std::uint64_t len) {
    std::atomic<std::uint64_t>& mark = ready_peak_.value;
    std::uint64_t peak = mark.load(std::memory_order_relaxed);
    while (len > peak &&
           !mark.compare_exchange_weak(peak, len, std::memory_order_relaxed)) {
    }
  }

  /// join() body; the public wrapper adds the ANAHY-W002 anomaly record
  /// when a join fails because the budget was already exhausted.
  /// Records the ANAHY-W002 anomaly for a join past the budget (cold path).
  void record_double_join(const Task& task);

  /// True when `task` appears in the calling thread's frame stack.
  static bool on_current_stack(const Task* task);

  /// Current frame of the calling thread (the root frame outside any
  /// task). The root frame is lazily re-initialized when the thread last
  /// touched a *different* scheduler instance, so continuation flow ids
  /// never leak across Runtime lifetimes.
  Frame& current_frame();
  Frame& root_frame();

  /// True when the calling thread is a worker VP of this scheduler bound
  /// via bind_thread_to_vp(vp, /*worker=*/true).
  [[nodiscard]] bool is_bound_worker() const;

  static thread_local std::vector<Frame> tls_frames_;
  static thread_local Frame tls_root_;
  static thread_local std::uint64_t tls_root_owner_;
  static thread_local int tls_vp_;
  static thread_local std::uint64_t tls_vp_owner_;
  static thread_local bool tls_worker_;
  /// Forks by the calling thread; ready_peak is sampled on one in
  /// SchedulingPolicy::kDepthSampleStride of them.
  static thread_local std::uint32_t tls_fork_tick_;

  const std::uint64_t instance_id_;

  Options opts_;
  observe::Telemetry tele_;  // the kernel's counter bank; policy_ feeds it
  std::unique_ptr<SchedulingPolicy> policy_;
  TraceGraph trace_;
  std::unique_ptr<check::Detector> detector_;
  std::unique_ptr<observe::SpanProfiler> profiler_;  // null = profiling off

  // Every member below is written from the fork/join path of any VP, so
  // each owns its cache line (the static_assert below fails the build
  // otherwise).
  std::array<Shard, kRegistryShards> shards_;
  EventCount ready_ec_;  // workers waiting for ready tasks
  EventCount join_ec_;   // joiners waiting for a finish (or for help work)
  OwnLine<std::atomic<TaskId>> next_id_{1};  // 0 is the root flow
  OwnLine<std::atomic<std::uint64_t>> ready_peak_{0};

  static_assert(kOwnsLine<Shard> && kOwnsLine<EventCount> &&
                    kOwnsLine<decltype(next_id_)> &&
                    kOwnsLine<decltype(ready_peak_)>,
                "a hot scheduler atomic shares a cache line");
};

}  // namespace anahy
