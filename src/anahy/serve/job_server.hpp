// anahy::serve::JobServer — a persistent multi-client job service on top
// of one Anahy runtime.
//
// The classic Anahy process model is one program, one DAG, one exit. A
// long-lived service inverts that: many clients submit independent job
// DAGs into one resident runtime, and the process only goes down on
// operator request. The JobServer supplies the missing service layer:
//
//  * Admission control — a bounded pending queue with a block-or-reject
//    policy, so a burst of clients degrades into back-pressure (or fast
//    kOverloaded failures), never into unbounded memory growth.
//  * Priority classes — each job's tasks are scheduled under its class
//    (high / normal / batch) by the work-stealing policy's per-class
//    deques, so latency-sensitive jobs overtake batch work at every pop
//    and steal, not just at admission.
//  * Lifecycle — drain() (stop admitting, finish everything), bounded
//    shutdown(deadline) (abort what cannot finish in time), and a
//    destructor that always resolves outstanding handles with kAborted
//    instead of leaving clients blocked forever.
//
// Threading: submit() is safe from any thread. A job that may start at
// once is forked as a detached root task carrying the job's TaskContext on
// the submitting thread; a starting or finishing root forks the next queued
// job onto its own VP, where completion runs too. See docs/SERVE.md.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "anahy/aging/analyze.hpp"
#include "anahy/aging/recorder.hpp"
#include "anahy/observe/exposition.hpp"
#include "anahy/rejuv/controller.hpp"
#include "anahy/rejuv/engine.hpp"
#include "anahy/rejuv/policy.hpp"
#include "anahy/runtime.hpp"
#include "anahy/serve/job.hpp"
#include "anahy/serve/stats.hpp"

namespace anahy::serve {

/// ANAHY-P003 deadline-risk detection over a server snapshot: the queue
/// latency threatens job deadlines when jobs already timed out, or the
/// pending backlog reached kDeadlineRiskPendingFraction of `max_pending`.
/// Split out from JobServer so tests can drive it with synthetic stats.
inline constexpr double kDeadlineRiskPendingFraction = 0.8;
[[nodiscard]] std::vector<observe::Anomaly> deadline_risk_anomalies(
    const ServerStats& s, std::size_t max_pending);

struct ServerOptions {
  /// Options of the owned runtime. `drain_on_exit` is forced on: a job
  /// service must never silently drop forked tasks at teardown.
  Options runtime;

  /// Admission bound: jobs admitted but not yet dispatched. Submitting
  /// past it blocks or rejects per `admission`. Must be >= 1.
  std::size_t max_pending = 1024;

  /// Jobs concurrently dispatched into the runtime (0 = unbounded). A
  /// bound keeps one job's wide DAG from monopolizing the ready deques.
  std::size_t max_active = 0;

  /// What happens to a submit() when the pending queue is full.
  enum class Admission : std::uint8_t {
    kBlock,   ///< back-pressure: block the submitter until space frees
    kReject,  ///< fail fast: resolve the handle with kOverloaded
  };
  Admission admission = Admission::kBlock;

  /// Enable per-job determinacy-race checking (JobSpec::check). Turns the
  /// runtime's anahy::check detector on; jobs that do not opt in still
  /// skip instrumentation via their context.
  bool check = false;

  /// Ring capacity of the aging memory-state series the server records
  /// (record_aging_sample(); 0 = unbounded, never for a resident server).
  std::size_t aging_capacity = 512;

  // --- rejuvenation (docs/REJUV.md) --------------------------------------

  /// Memory-aware admission: budget.total_bytes == 0 (the default) keeps
  /// the controller off entirely — submit() then pays one null test. With
  /// a budget set, over-budget batch submits are deferred or rejected and
  /// normal-class submits rejected kOverloaded, while high-class traffic
  /// keeps flowing (rejuv::AdmissionController).
  rejuv::ControllerOptions rejuv_admission;

  /// When to trip an automatic rejuvenation cycle from the rolling aging
  /// window (evaluated by the policy thread below).
  rejuv::PolicyOptions rejuv_policy;

  /// Cadence of the online policy thread: every period it records an
  /// aging sample, re-runs the A001/A002/A003 detectors over the rolling
  /// window and rejuvenates on a trip. 0 (default) = no policy tick;
  /// rejuvenate() stays available as an operator command (kRejuvenate
  /// cluster frame, `anahy-aging --rejuvenate`).
  std::int64_t rejuv_period_ns = 0;
};

class JobServer {
 public:
  explicit JobServer(ServerOptions opts = {});

  /// Resolves every outstanding handle (kAborted for jobs that could not
  /// finish), then tears the runtime down, draining stragglers.
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Submits a job. Always returns a handle that will resolve:
  ///  - kInvalid   — no body, or check requested without ServerOptions::check
  ///  - kPerm      — the server is draining / shut down
  ///  - kOverloaded— pending queue full under the kReject policy
  ///  - otherwise the job's real outcome (kOk / kTimedOut / kAborted).
  /// Under the kBlock policy a full queue blocks the caller instead.
  JobHandle submit(JobSpec spec);

  /// Stops admitting (later submits resolve kPerm) and waits until every
  /// admitted job resolved. Queued jobs still run — drain means "finish
  /// the work", not "discard it".
  void drain();

  /// Mesh export (docs/MESH.md): removes up to `max` queued — never
  /// dispatched — exportable jobs of class `cls` from the pending queue,
  /// newest-first, and resolves each with kMigrated (on_complete fires;
  /// the serve front-end's completion hook re-ships the job from its
  /// captured function/payload). Jobs whose cancellation was requested,
  /// non-exportable jobs (local closures) and everything while draining
  /// are never exported, so started bodies can never run twice. `eligible`
  /// (optional) further filters, e.g. by queue age. Returns the count.
  std::size_t export_queued(
      Priority cls, std::size_t max,
      const std::function<bool(const Job&)>& eligible = {});

  /// Drain with a deadline: stops admitting, aborts still-queued jobs
  /// (kAborted), cancels running jobs' descendants, and waits up to
  /// `deadline_ns` (relative; negative = unbounded) for active jobs to
  /// resolve. Returns true when everything resolved in time.
  bool shutdown(std::int64_t deadline_ns = -1);

  [[nodiscard]] ServerStats stats() const;

  /// Prometheus-style text dump of stats() (ServerStats::to_metrics_text).
  [[nodiscard]] std::string metrics_text() const;

  /// Full observability exposition: the runtime's per-VP telemetry
  /// (observe::render_text with P001/P002 plus this server's P003
  /// deadline-risk flags) followed by metrics_text(). This is the payload
  /// the cluster kStatsQuery frame returns (docs/OBSERVE.md).
  [[nodiscard]] std::string observe_text() const;

  /// The owned runtime (e.g. for trace access in tests/tools).
  [[nodiscard]] Runtime& runtime() { return *rt_; }

  [[nodiscard]] const ServerOptions& options() const { return opts_; }

  // --- aging (docs/AGING.md) ---------------------------------------------

  /// Appends one memory-state sample (pool snapshot, RSS, served-job
  /// counters, ready depth) to the server's aging series. Call it on
  /// whatever cadence suits the deployment — a scraper tick, a timer
  /// thread, a bench loop. Safe from any thread.
  void record_aging_sample();

  /// Copy of the recorded series (save it with Series::save, feed it to
  /// the anahy-aging CLI, or analyze in-process via aging_report()).
  [[nodiscard]] aging::Series aging_series() const;

  /// Runs the ANAHY-A001..A006 detectors over the recorded series.
  [[nodiscard]] aging::Analysis aging_report(
      const aging::AnalyzeOptions& opt = {}) const;

  // --- rejuvenation (docs/REJUV.md) --------------------------------------

  /// Runs one online rejuvenation cycle: reap resolved jobs' stranded
  /// tasks, trim the pool cache, rolling-restart the worker VPs. The
  /// server stays live throughout (jobs keep being admitted, dispatched
  /// and resolved) and every in-flight handle still resolves exactly
  /// once. Stamps an ANAHY-A007 annotation on the aging series and bumps
  /// the anahy_rejuv_* counters. Safe from any non-VP thread; concurrent
  /// calls serialize.
  rejuv::CycleReport rejuvenate();

  /// Lifetime totals of the rejuvenation subsystem (also exposed as
  /// observe ExtraCounter rows in observe_text()).
  struct RejuvCounters {
    std::uint64_t cycles = 0;           ///< rejuvenation cycles performed
    std::uint64_t deferred = 0;         ///< batch jobs admitted-but-held
    std::uint64_t shed = 0;             ///< submits rejected kOverloaded
    std::uint64_t reaped_tasks = 0;     ///< stranded tasks retired
    std::uint64_t reclaimed_bytes = 0;  ///< pool bytes freed by cycles
  };
  [[nodiscard]] RejuvCounters rejuv_counters() const;

  /// The admission controller (null when no budget is configured).
  [[nodiscard]] const rejuv::AdmissionController* admission() const {
    return admission_.get();
  }

 private:
  /// The one background thread (policy period or admission on): runs the
  /// policy tick and releases held batch jobs at their defer deadlines.
  void housekeeping_loop();

  /// Pops the pending job that may start now, if any (mu_ held); called
  /// wherever that answer can change.
  JobPtr take_dispatchable_locked(std::int64_t now);

  /// Releases `lock` (on mu_), then forks `job`'s root task (if any).
  void dispatch(JobPtr job, std::unique_lock<std::mutex>& lock);

  /// Re-scores admission and dispatches the held work it releases.
  void refresh_admission(const PoolSnapshot& pool);

  /// Root-task wrapper: dispatches the next job, runs the user body unless
  /// the context says skip, resolves the job and releases its active slot.
  void run_root(const JobPtr& job);

  /// Releases a published job's active slot, dispatches its successor and
  /// wakes drain()/shutdown() waiters; stats were accounted before publish.
  void finish_job(const JobPtr& job);

  /// Folds a resolved job's result into `agg_` (mu_ held).
  void account_locked(const JobResult& r, Priority cls);

  /// Immediately-resolved handle for jobs that were never admitted.
  static JobHandle rejected_handle(JobId id, JobSpec spec, int error);

  ServerOptions opts_;
  std::unique_ptr<Runtime> rt_;

  mutable std::mutex mu_;
  std::condition_variable admit_cv_;  // submitters blocked on a full queue
  std::condition_variable idle_cv_;   // drain/shutdown waiting for empty

  std::array<std::deque<JobPtr>, kNumPriorities> pending_;
  std::size_t pending_count_ = 0;
  std::unordered_map<JobId, JobPtr> active_;
  bool draining_ = false;
  bool root_waiting_ = false;  // a dispatched root has not started yet
  JobId next_id_ = 1;
  ServerStats agg_;

  /// Guards aging_. Lock order: mu_ before aging_mu_ (record_aging_sample
  /// reads counters under mu_, releases it, then folds under aging_mu_).
  mutable std::mutex aging_mu_;
  aging::Recorder aging_;

  // Rejuvenation (docs/REJUV.md). The engine serializes cycles itself and
  // never touches mu_; the controller is all atomics past construction.
  std::unique_ptr<rejuv::AdmissionController> admission_;  // null = off
  std::unique_ptr<rejuv::RejuvEngine> engine_;
  rejuv::RejuvPolicy policy_;
  std::atomic<std::uint64_t> rejuv_deferred_{0};
  std::atomic<std::uint64_t> rejuv_shed_{0};
  std::atomic<std::uint64_t> rejuv_reaped_tasks_{0};
  std::atomic<std::uint64_t> rejuv_reclaimed_bytes_{0};

  std::condition_variable housekeeping_cv_;  // housekeeper sleep (mu_)
  bool housekeeping_stop_ = false;
  std::thread housekeeper_;
};

}  // namespace anahy::serve
