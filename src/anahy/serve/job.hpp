// anahy::serve jobs: what clients submit and the handle they get back.
//
// A *job* is one unit of client work: a root task body plus scheduling
// metadata (priority class, optional timeout, per-job race checking). The
// server forks the body as a detached root task carrying a TaskContext, so
// every descendant fork inherits the job's identity, class and
// cancellation state without the client threading anything through.
//
// The submit() -> JobHandle contract is the subsystem's core invariant:
// every admitted handle resolves exactly once — with the body's result, or
// with kOverloaded / kTimedOut / kAborted / kPerm — no matter how the
// server goes down (drain, deadline shutdown, or plain destruction).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "anahy/check/check.hpp"
#include "anahy/task.hpp"
#include "anahy/task_context.hpp"
#include "anahy/types.hpp"

namespace anahy::serve {

/// Server-scoped job identifier (1-based; 0 means "no job" everywhere the
/// runtime records job ids — traces, race reports, contexts).
using JobId = std::uint64_t;

/// Lifecycle of a job inside the server.
enum class JobState : std::uint8_t {
  kQueued,   ///< admitted, waiting in the pending queue
  kRunning,  ///< root task dispatched into the runtime
  kDone,     ///< resolved; JobResult is final
};

[[nodiscard]] constexpr const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
  }
  return "?";
}

/// Per-job accounting, filled at completion from the job's TaskContext.
struct JobStats {
  std::int64_t queue_wait_ns = 0;  ///< admission -> root task start
  std::int64_t exec_ns = 0;        ///< root task start -> completion (span)
  std::uint64_t tasks_created = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_cancelled = 0;  ///< bodies skipped (timeout/abort)
  std::uint64_t steals = 0;           ///< job tasks migrated between VPs
  // Task-pool memory charged to the job (anahy::aging; docs/AGING.md).
  std::uint64_t pool_allocs = 0;      ///< pool blocks allocated for the job
  std::uint64_t pool_peak_bytes = 0;  ///< peak concurrent pool bytes (bound)
  /// Pool bytes still live when the job resolved. Non-zero is normal while
  /// descendants finish publishing, but a job whose blocks never return is
  /// exactly what ANAHY-A001/A004 flag.
  std::uint64_t pool_live_bytes = 0;
};

/// Final outcome of a job. `error` uses the anahy::Error numbering:
/// kOk, kOverloaded (rejected at admission), kTimedOut (deadline elapsed),
/// kAborted (cancelled or server shut down), kPerm (submitted after
/// drain), kInvalid (malformed spec), kFaulted (a task body of the job
/// threw — the process survives and `message` carries the exception text).
struct JobResult {
  JobId id = 0;
  int error = kOk;
  void* value = nullptr;  ///< the root body's return value (kOk only)
  std::string message;    ///< diagnostic detail (kFaulted: exception text)
  JobStats stats;
  /// Determinacy races attributed to this job (JobSpec::check; the stable
  /// ANAHY-R001 reports of the anahy::check detector).
  std::vector<check::RaceReport> races;
};

/// What a client submits.
struct JobSpec {
  TaskBody body;          ///< root task body (required)
  void* input = nullptr;  ///< argument passed to the body
  Priority priority = Priority::kNormal;
  /// Relative timeout from admission; negative = none. On expiry the job's
  /// not-yet-started descendants are cancelled and the job resolves with
  /// kTimedOut.
  std::int64_t timeout_ns = -1;
  /// Run the determinacy-race detector over this job's tasks and attach
  /// the reports to the JobResult. Requires a server built with
  /// ServerOptions::check (rejected with kInvalid otherwise).
  bool check = false;
  std::string label;  ///< trace/debug label of the root task
  /// The job can leave this server while still queued: its body is
  /// rebuildable elsewhere from (function name, payload) — true only for
  /// wire-submitted jobs, set by the serve front-end. An exported job
  /// resolves locally with kMigrated (the body never ran here) and the
  /// mesh layer re-ships it (JobServer::export_queued, docs/MESH.md).
  bool exportable = false;
  /// Invoked exactly once when the job resolves, from the completing
  /// thread (a VP, or the shutting-down thread for aborted jobs). Must not
  /// block on the server.
  std::function<void(const JobResult&)> on_complete;
};

/// Internal control block shared by the server and every JobHandle copy.
/// Clients only touch it through JobHandle.
class Job {
 public:
  Job(JobId id, JobSpec spec, std::int64_t submit_ns);

  [[nodiscard]] JobId id() const { return id_; }
  [[nodiscard]] Priority priority() const { return ctx_->priority; }
  [[nodiscard]] const TaskContextPtr& context() const { return ctx_; }
  [[nodiscard]] std::int64_t submit_ns() const { return submit_ns_; }

  [[nodiscard]] JobState state() const;

  /// Blocks until the job resolves; returns JobResult::error.
  int wait();

  /// Bounded wait; false on timeout (job unresolved).
  bool wait_for_ns(std::int64_t timeout_ns);

  /// Requests cancellation: queued jobs resolve kAborted without running,
  /// running jobs stop starting descendant tasks and resolve kAborted.
  void cancel() { ctx_->cancel(); }

  /// Final result; only meaningful once state() == kDone.
  [[nodiscard]] const JobResult& result() const { return result_; }

  // --- server-side hooks -------------------------------------------------

  /// Stamps the root task's start (dispatch -> execution transition).
  void mark_running();

  /// Resolves the job exactly once: fills the result (stats snapshot from
  /// the context, races as given), flips state to kDone, wakes waiters and
  /// fires on_complete. Later calls are no-ops (first resolution wins),
  /// which is what makes shutdown racing normal completion safe.
  /// Equivalent to `if (resolve(...)) publish();`.
  void complete(int error, void* value, std::vector<check::RaceReport> races,
                std::string message = {});

  /// First half of complete(): fills the result and flips state to kDone
  /// WITHOUT waking waiters or firing on_complete. The server accounts the
  /// result between resolve() and publish(), so no observer — a completion
  /// callback shipping a reply over the wire, or a scraper racing that
  /// reply — can see a resolved job the stats don't know about yet.
  /// Returns false when the job was already resolved (the winner
  /// publishes).
  [[nodiscard]] bool resolve(int error, void* value,
                             std::vector<check::RaceReport> races,
                             std::string message = {});

  /// Second half of complete(): wakes waiters and fires on_complete.
  /// Idempotent; a no-op until a resolve() has won.
  void publish();

  /// Moves the user body out for dispatch (server only, called once).
  [[nodiscard]] TaskBody take_body() { return std::move(spec_.body); }
  [[nodiscard]] void* input() const { return spec_.input; }
  [[nodiscard]] const std::string& label() const { return spec_.label; }
  [[nodiscard]] bool checked() const { return spec_.check; }
  [[nodiscard]] bool exportable() const { return spec_.exportable; }

  /// Rejuvenation deferral (docs/REJUV.md): a batch job admitted while the
  /// memory budget was over is *held* in the pending queue — dispatch
  /// skips it — until the pressure clears or this deadline passes
  /// (negative = never deferred). Written once at submit, under the server
  /// lock; read by dispatch under the same lock.
  void set_defer_deadline(std::int64_t ns) { defer_deadline_ns_ = ns; }
  [[nodiscard]] std::int64_t defer_deadline() const {
    return defer_deadline_ns_;
  }

 private:
  const JobId id_;
  JobSpec spec_;
  const std::int64_t submit_ns_;
  std::int64_t start_ns_ = -1;
  std::int64_t defer_deadline_ns_ = -1;
  TaskContextPtr ctx_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  JobState state_ = JobState::kQueued;
  bool published_ = false;  ///< resolution announced (waiters, on_complete)
  JobResult result_;
};

using JobPtr = std::shared_ptr<Job>;

/// Client-side view of a submitted job. Cheap to copy; all copies observe
/// the same resolution. A default-constructed handle is invalid.
class JobHandle {
 public:
  JobHandle() = default;
  explicit JobHandle(JobPtr job) : job_(std::move(job)) {}

  [[nodiscard]] bool valid() const { return job_ != nullptr; }
  [[nodiscard]] JobId id() const { return job_->id(); }
  [[nodiscard]] JobState state() const { return job_->state(); }
  [[nodiscard]] bool done() const { return state() == JobState::kDone; }

  /// Blocks until resolution; returns the job's error code (kOk, ...).
  int wait() { return job_->wait(); }

  /// Bounded wait; false when the job is still unresolved after `ns`.
  bool wait_for_ns(std::int64_t ns) { return job_->wait_for_ns(ns); }

  /// Requests cancellation (resolves the job with kAborted; idempotent,
  /// loses against an already-completed job).
  void cancel() { job_->cancel(); }

  /// Final result; call only after wait()/done().
  [[nodiscard]] const JobResult& result() const { return job_->result(); }

 private:
  JobPtr job_;
};

}  // namespace anahy::serve
