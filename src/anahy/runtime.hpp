// Public entry point: the Anahy runtime (executive kernel + VPs).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "anahy/scheduler.hpp"
#include "anahy/vp.hpp"

namespace anahy {

/// Runtime construction options.
struct Options {
  /// Number of virtual processors. When `main_participates` is true the
  /// program main flow counts as one of them — it is bound to the last VP
  /// slot and `num_vps - 1` worker threads are spawned (slots 0..n-2), so
  /// main's forks use its own lock-free ready deque; `num_vps == 1` then
  /// creates **no** system thread at all, which is the configuration behind
  /// the paper's "no thread is created, no execution overhead" observation
  /// (Tables 3 and 7).
  int num_vps = 4;  // the paper's library default

  /// Ready-list policy of the executive kernel.
  PolicyKind policy = PolicyKind::kWorkStealing;

  /// Record the execution graph (fork/join/continuation edges).
  bool trace = false;

  /// Whether the thread that constructed the runtime helps execute tasks
  /// while it is blocked in a join (the paper's model, where the main flow
  /// T0 is itself a task executed by a VP).
  bool main_participates = true;

  /// Run the determinacy-race detector (anahy::check; docs/CHECKING.md).
  /// Canonical with num_vps == 1 (serial elision), best-effort otherwise.
  /// Zero fork/join overhead when off.
  bool check = false;

  /// Execute every still-queued task before the runtime destructor stops
  /// the VPs. The historical behaviour (false) silently drops forked tasks
  /// that were never joined — acceptable for a batch program exiting, but
  /// a correctness bug for service-style users (anahy::serve relies on
  /// this being true so drain() means "all admitted work ran").
  bool drain_on_exit = false;

  /// Span profiling: record each task's execution interval and VP for
  /// Chrome-trace export (tools/anahy-profile) and per-job work/span
  /// analysis. Implies `trace`.
  bool profile = false;

  /// Reads ANAHY_NUM_VPS / ANAHY_POLICY / ANAHY_TRACE / ANAHY_CHECK /
  /// ANAHY_DRAIN_ON_EXIT / ANAHY_PROFILE from the environment, falling
  /// back to the defaults above.
  static Options from_env();
};

/// RAII runtime: starts the VPs on construction, stops and joins them on
/// destruction. All forked tasks should be joined before destruction;
/// tasks still queued at shutdown are simply never run (like a process
/// exiting with live POSIX threads) unless Options::drain_on_exit asks the
/// destructor to finish them first.
class Runtime {
 public:
  explicit Runtime(const Options& opts = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Fork: creates a ready task executing `body(input)`.
  TaskPtr fork(TaskBody body, void* input,
               const TaskAttributes& attr = TaskAttributes{},
               std::string label = {});

  /// Join: waits for `task` and stores its result pointer in `*result`
  /// (result may be null to discard). Returns an Error code.
  int join(const TaskPtr& task, void** result);

  /// Join by athread-style id.
  int join_by_id(TaskId id, void** result);

  /// Non-blocking join: kOk with the result when finished, kBusy when the
  /// task is still pending/running, kNotFound on a bad id or spent budget.
  int try_join(const TaskPtr& task, void** result);

  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] int num_vps() const { return opts_.num_vps; }
  [[nodiscard]] int worker_threads() const {
    return static_cast<int>(vps_.size());
  }

  /// Rejuvenation primitive (docs/REJUV.md): stops, joins and replaces the
  /// worker thread in VP slot `slot`. The old thread's exit flushes its
  /// per-thread pool cache back to the system (FreeCache teardown), which
  /// is the arena-recycle half of a rejuvenation cycle; ready tasks queued
  /// on the slot's deque survive — the deque belongs to the slot, not the
  /// thread — so the replacement picks them up where the old thread left
  /// off. Blocks until the old thread has exited; callers restart one VP at
  /// a time so the server stays live. Returns false for an out-of-range
  /// slot (e.g. the main-participates slot, which has no worker thread).
  bool restart_vp(int slot);

  [[nodiscard]] Scheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] RuntimeStats::Snapshot stats() const {
    return scheduler_->stats_snapshot();
  }
  [[nodiscard]] Scheduler::ListSnapshot lists() const {
    return scheduler_->lists();
  }
  /// Per-VP telemetry snapshot (docs/OBSERVE.md); stats() reads the same
  /// counter bank.
  [[nodiscard]] observe::Snapshot observe_snapshot() const {
    return scheduler_->observe_snapshot();
  }
  /// The trace graph, with any buffered profiler spans flushed in first so
  /// callers always see complete execution intervals.
  [[nodiscard]] TraceGraph& trace() {
    scheduler_->flush_profile();
    return scheduler_->trace();
  }

  /// Global runtime used by the C-style athread API. Null until
  /// athread_init (or set_global) is called.
  static Runtime* global();
  static void set_global(std::unique_ptr<Runtime> rt);
  static void clear_global();

 private:
  Options opts_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<std::unique_ptr<VirtualProcessor>> vps_;
};

}  // namespace anahy
