#include "anahy/serve/job_server.hpp"

#include <algorithm>
#include <chrono>

#include "anahy/check/detector.hpp"

namespace anahy::serve {

JobServer::JobServer(ServerOptions opts)
    : opts_(std::move(opts)), aging_(opts_.aging_capacity) {
  if (opts_.max_pending == 0) opts_.max_pending = 1;
  // A service must never drop admitted work at teardown, and the thread
  // constructing the server is a client, not a VP — it waits on handles,
  // not joins, so binding it to a VP slot would leave that slot idle.
  opts_.runtime.drain_on_exit = true;
  opts_.runtime.main_participates = false;
  if (opts_.check) opts_.runtime.check = true;
  rt_ = std::make_unique<Runtime>(opts_.runtime);
  if (opts_.rejuv_admission.budget.total_bytes > 0)
    admission_ =
        std::make_unique<rejuv::AdmissionController>(opts_.rejuv_admission);
  engine_ = std::make_unique<rejuv::RejuvEngine>(*rt_);
  policy_ = rejuv::RejuvPolicy(opts_.rejuv_policy);
  if (opts_.rejuv_period_ns > 0 || admission_ != nullptr)
    housekeeper_ = std::thread([this] { housekeeping_loop(); });
}

JobServer::~JobServer() {
  // The housekeeper goes first: it calls rejuvenate(), which restarts
  // VPs, and must never race the runtime teardown below.
  if (housekeeper_.joinable()) {
    std::unique_lock lock(mu_);
    housekeeping_stop_ = true;
    housekeeping_cv_.notify_all();
    lock.unlock();
    housekeeper_.join();
  }
  // Unbounded shutdown: every admitted handle resolves (actives are
  // cancelled, so their descendants skip and the roots finish fast).
  shutdown(/*deadline_ns=*/-1);
  rt_.reset();  // drain_on_exit runs any straggler tasks before VP stop
}

JobHandle JobServer::rejected_handle(JobId id, JobSpec spec, int error) {
  auto job = std::make_shared<Job>(id, std::move(spec), TaskContext::now_ns());
  job->complete(error, nullptr, {});
  return JobHandle(std::move(job));
}

JobHandle JobServer::submit(JobSpec spec) {
  const Priority cls = spec.priority;
  if (!spec.body || (spec.check && !opts_.check))
    return rejected_handle(0, std::move(spec), kInvalid);

  // Memory-aware admission (docs/REJUV.md). The fast path is one null
  // test plus one relaxed load of the controller's cached verdict — the
  // snapshot-and-score work happens at refresh points, never here.
  rejuv::Decision decision = rejuv::Decision::kAdmit;
  if (admission_ != nullptr) {
    decision = admission_->admit(cls);
    if (decision == rejuv::Decision::kReject) {
      rejuv_shed_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard lock(mu_);
      ++agg_.of(cls).rejected;
      return rejected_handle(0, std::move(spec), kOverloaded);
    }
  }

  std::unique_lock lock(mu_);
  if (opts_.admission == ServerOptions::Admission::kBlock)
    admit_cv_.wait(lock, [&] {
      return draining_ || pending_count_ < opts_.max_pending;
    });
  if (draining_) {
    ++agg_.of(cls).rejected;
    lock.unlock();
    return rejected_handle(0, std::move(spec), kPerm);
  }
  if (pending_count_ >= opts_.max_pending) {
    ++agg_.of(cls).rejected;
    lock.unlock();
    return rejected_handle(0, std::move(spec), kOverloaded);
  }

  const JobId id = next_id_++;
  const std::int64_t now = TaskContext::now_ns();
  auto job = std::make_shared<Job>(id, std::move(spec), now);
  if (decision == rejuv::Decision::kDefer) {
    // Admitted but held: dispatch skips this batch job while the budget
    // stays over, up to a bounded deadline. The job's own timeout
    // caps the hold first — deferral respects deadlines, a job is never
    // parked past the point where it could still finish in time.
    std::int64_t until = now + admission_->options().max_defer_ns;
    if (job->context()->deadline_ns >= 0)
      until = std::min(until, job->context()->deadline_ns);
    job->set_defer_deadline(until);
    rejuv_deferred_.fetch_add(1, std::memory_order_relaxed);
    housekeeping_cv_.notify_one();  // it sleeps until the next deadline
  }
  pending_[static_cast<std::size_t>(cls)].push_back(job);
  ++pending_count_;
  ++agg_.of(cls).submitted;
  dispatch(take_dispatchable_locked(now), lock);
  return JobHandle(std::move(job));
}

JobPtr JobServer::take_dispatchable_locked(std::int64_t now) {
  // One dispatched root at a time waits for a VP; while it waits no VP is
  // free for another, so the next job stays in the class-ordered pending
  // queue and that root forks it when it starts. Forking each job at once
  // costs the submitter (a front-end's one decode thread) a VP wake-up.
  if (root_waiting_ ||
      (opts_.max_active != 0 && active_.size() >= opts_.max_active))
    return nullptr;
  // Highest class first; FIFO within a class (admission order). A batch
  // head admitted under deferral (docs/REJUV.md) is *held* — skipped, not
  // popped — while the memory budget stays over and its defer deadline has
  // not passed; draining cancels all holds (drain means "finish the work",
  // pressure or not).
  for (std::size_t c = 0; c < pending_.size(); ++c) {
    auto& q = pending_[c];
    if (q.empty()) continue;
    if (static_cast<Priority>(c) == Priority::kBatch &&
        admission_ != nullptr && !draining_ &&
        admission_->over(Priority::kBatch) &&
        q.front()->defer_deadline() > now)
      continue;
    JobPtr job = std::move(q.front());
    q.pop_front();
    --pending_count_;
    active_.emplace(job->id(), job);
    root_waiting_ = true;
    admit_cv_.notify_one();
    return job;
  }
  return nullptr;
}

void JobServer::dispatch(JobPtr job, std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  if (job == nullptr) return;
  TaskAttributes attr;
  attr.set_join_number(0);  // detached: completion flows through the handle
  attr.set_checked(job->checked());
  rt_->scheduler().create_task(
      [this, job](void*) -> void* {
        run_root(job);
        return nullptr;
      },
      job->input(), attr, job->label(), job->context());
}

void JobServer::run_root(const JobPtr& job) {
  {
    std::unique_lock lock(mu_);
    root_waiting_ = false;
    dispatch(take_dispatchable_locked(TaskContext::now_ns()), lock);
  }
  job->mark_running();
  const TaskContextPtr& ctx = job->context();
  int err = kOk;
  void* out = nullptr;
  if (ctx->cancel_requested()) {
    err = kAborted;
  } else if (ctx->expired()) {
    err = kTimedOut;
  } else {
    TaskBody body = job->take_body();
    // Containment: the root body runs inside this wrapper, not under the
    // scheduler's catch, so a throw here must be swallowed the same way a
    // descendant's is — the process survives and the job reports kFaulted.
    try {
      out = body(job->input());
    } catch (const std::exception& e) {
      ctx->note_fault(e.what());
    } catch (...) {
      ctx->note_fault("non-standard exception");
    }
    // A fault anywhere in the DAG (root above, or a descendant contained
    // by Scheduler::run_task) outranks the cancel it implies; otherwise
    // cancellation/expiry may have landed mid-run, descendants were then
    // skipped, and the partial result must not report kOk.
    if (ctx->faulted()) err = kFaulted;
    else if (ctx->cancel_requested()) err = kAborted;
    else if (ctx->expired()) err = kTimedOut;
  }

  std::vector<check::RaceReport> races;
  if (job->checked()) {
    if (check::Detector* d = rt_->scheduler().detector())
      races = d->reports_for_job(job->id());
  }
  // Resolve, account, publish, free the slot — in that order. The reply
  // on_complete ships must find the job already counted (a stats scrape
  // can synchronize with it), and drain()/shutdown() promise that every
  // callback has finished, so the active_ erase (what idle_cv_ gates on)
  // comes last.
  const bool first =
      job->resolve(err, err == kOk ? out : nullptr, std::move(races),
                   err == kFaulted ? ctx->fault_message() : std::string{});
  {
    std::lock_guard lock(mu_);
    account_locked(job->result(), job->priority());
  }
  if (first) job->publish();
  finish_job(job);
}

void JobServer::finish_job(const JobPtr& job) {
  // Refresh the admission verdicts at the moment pressure just moved
  // (this job's pool blocks were credited back). Outside mu_: the
  // controller is its own synchronization domain.
  if (admission_ != nullptr) admission_->refresh(pool_snapshot());
  std::unique_lock lock(mu_);
  active_.erase(job->id());
  idle_cv_.notify_all();
  // On a VP the successor lands on this VP's own deque: popped, not stolen.
  dispatch(take_dispatchable_locked(TaskContext::now_ns()), lock);
}

void JobServer::account_locked(const JobResult& r, Priority cls) {
  ServerStats::ClassStats& c = agg_.of(cls);
  switch (r.error) {
    case kOk: ++c.completed; break;
    case kTimedOut: ++c.timed_out; break;
    case kFaulted: ++c.faulted; break;
    case kMigrated: ++c.migrated; break;
    default: ++c.aborted; break;
  }
  c.queue_wait_ns_sum += r.stats.queue_wait_ns;
  c.queue_wait_ns_max = std::max(c.queue_wait_ns_max, r.stats.queue_wait_ns);
  c.exec_ns_sum += r.stats.exec_ns;
  c.tasks += r.stats.tasks_executed;
  c.steals += r.stats.steals;
  c.pool_allocs += r.stats.pool_allocs;
  c.pool_peak_bytes = std::max(c.pool_peak_bytes, r.stats.pool_peak_bytes);
  c.pool_leaked_bytes += r.stats.pool_live_bytes;
  // Feed the observed peak into the admission budget's per-class history
  // (EWMA, leaf lock — safe under mu_).
  if (admission_ != nullptr)
    admission_->note_job_peak(cls, r.stats.pool_peak_bytes);
}

std::size_t JobServer::export_queued(
    Priority cls, std::size_t max,
    const std::function<bool(const Job&)>& eligible) {
  std::vector<JobPtr> out;
  {
    std::unique_lock lock(mu_);
    if (draining_ || max == 0) return 0;
    auto& q = pending_[static_cast<std::size_t>(cls)];
    // Newest-first: the back of the FIFO is farthest from local dispatch,
    // so migrating it takes the work with the longest expected local wait.
    for (std::size_t i = q.size(); i-- > 0 && out.size() < max;) {
      const JobPtr& j = q[i];
      if (!j->exportable() || j->context()->cancel_requested()) continue;
      if (eligible && !eligible(*j)) continue;
      out.push_back(j);
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
    }
    pending_count_ -= out.size();
    // An exported held batch head may uncover a job that can start.
    dispatch(take_dispatchable_locked(TaskContext::now_ns()), lock);
  }
  if (out.empty()) return 0;
  // Same resolve -> account -> publish order as run_root: the on_complete
  // that re-ships the job must find it already counted as migrated.
  for (const JobPtr& j : out) {
    const bool first = j->resolve(kMigrated, nullptr, {});
    {
      std::lock_guard lock(mu_);
      account_locked(j->result(), j->priority());
    }
    if (first) j->publish();
  }
  admit_cv_.notify_all();   // queue space freed
  idle_cv_.notify_all();    // a racing drain()'s predicate may now hold
  return out.size();
}

void JobServer::drain() {
  std::unique_lock lock(mu_);
  draining_ = true;
  admit_cv_.notify_all();  // blocked submitters resolve kPerm
  dispatch(take_dispatchable_locked(TaskContext::now_ns()), lock);
  lock.lock();
  idle_cv_.wait(lock, [&] { return pending_count_ == 0 && active_.empty(); });
}

bool JobServer::shutdown(std::int64_t deadline_ns) {
  std::vector<JobPtr> doomed;
  {
    std::lock_guard lock(mu_);
    draining_ = true;
    admit_cv_.notify_all();
    for (auto& q : pending_) {
      for (JobPtr& j : q) doomed.push_back(std::move(j));
      q.clear();
    }
    pending_count_ = 0;
    // Running jobs: stop their not-yet-started descendants; the roots
    // observe the cancel and resolve kAborted (or finish first — fine).
    for (auto& [id, j] : active_) j->cancel();
  }
  // Resolve never-dispatched jobs outside the server lock, account them,
  // then publish — the on_complete callbacks (which may call back into the
  // server) and released waiters must observe stats that already include
  // the abort.
  for (const JobPtr& j : doomed) {
    j->cancel();
    (void)j->resolve(kAborted, nullptr, {});
  }
  {
    std::lock_guard lock(mu_);
    for (const JobPtr& j : doomed) account_locked(j->result(), j->priority());
  }
  for (const JobPtr& j : doomed) j->publish();

  // A concurrent drain() may already be parked on idle_cv_ with active_
  // empty: clearing the pending queues made its predicate true, but the
  // doomed path above never notified it — without this wake it hangs
  // forever (regression test: tests/serve/test_serve_races.cpp). Notify
  // only after the doomed handles published, so drain's "every callback
  // finished" promise still holds.
  idle_cv_.notify_all();

  std::unique_lock lock(mu_);
  const auto idle = [&] { return pending_count_ == 0 && active_.empty(); };
  if (deadline_ns < 0) {
    idle_cv_.wait(lock, idle);
    return true;
  }
  return idle_cv_.wait_for(lock, std::chrono::nanoseconds{deadline_ns}, idle);
}

ServerStats JobServer::stats() const {
  const PoolSnapshot pool = pool_snapshot();
  std::lock_guard lock(mu_);
  ServerStats s = agg_;
  s.pending = pending_count_;
  s.active = active_.size();
  for (std::size_t c = 0; c < kNumPriorities; ++c)
    s.by_class[c].pending = pending_[c].size();
  s.pool_live_bytes = pool.live_bytes;
  s.pool_arena_bytes = pool.arena_bytes;
  for (std::size_t c = 0; c < pool_detail::kNumClasses; ++c)
    s.pool_class_outstanding[c] = pool.classes[c].outstanding;
  return s;
}

void JobServer::record_aging_sample() {
  const PoolSnapshot pool = pool_snapshot();

  aging::Cumulative cum;
  cum.t_ns = TaskContext::now_ns();
  cum.heap_bytes = pool.live_bytes;
  cum.arena_bytes = pool.arena_bytes;
  cum.rss_bytes = aging::rss_bytes_now();
  // Only the ready gauge: a full observe_snapshot() would copy every VP
  // slot's counters to sum it.
  for (const std::size_t r : rt_->scheduler().ready_by_class())
    cum.ready_tasks += r;
  for (std::size_t c = 0; c < pool_detail::kNumClasses; ++c)
    cum.class_outstanding[c] = pool.classes[c].outstanding;
  {
    std::lock_guard lock(mu_);
    for (const ServerStats::ClassStats& c : agg_.by_class) {
      cum.jobs_resolved +=
          c.completed + c.timed_out + c.aborted + c.faulted + c.migrated;
      cum.queue_wait_ns_sum += c.queue_wait_ns_sum;
      cum.exec_ns_sum += c.exec_ns_sum;
    }
  }
  {
    std::lock_guard lock(aging_mu_);
    aging_.sample(cum);
  }
  // An aging sample is a natural admission refresh point (the scrape
  // cadence bounds how stale the cached verdicts can get even on an idle
  // server with no completions).
  if (admission_ != nullptr) refresh_admission(pool);
}

void JobServer::refresh_admission(const PoolSnapshot& pool) {
  admission_->refresh(pool);
  std::unique_lock lock(mu_);
  dispatch(take_dispatchable_locked(TaskContext::now_ns()), lock);
}

aging::Series JobServer::aging_series() const {
  std::lock_guard lock(aging_mu_);
  return aging_.series();
}

aging::Analysis JobServer::aging_report(const aging::AnalyzeOptions& opt) const {
  return aging::analyze(aging_series(), opt);
}

rejuv::CycleReport JobServer::rejuvenate() {
  const rejuv::CycleReport rep = engine_->cycle();
  rejuv_reaped_tasks_.fetch_add(rep.tasks_reaped, std::memory_order_relaxed);
  rejuv_reclaimed_bytes_.fetch_add(rep.arena_reclaimed(),
                                   std::memory_order_relaxed);
  {
    // ANAHY-A007: make the cycle visible on the series timeline so an
    // offline analyst can line the heap sawtooth up with its cause.
    std::lock_guard lock(aging_mu_);
    aging_.annotate(TaskContext::now_ns(), aging::code::kRejuvenation,
                    "rejuvenation performed: " + rep.summary());
  }
  // The cycle just moved a lot of memory; re-score admissions now rather
  // than waiting for the next completion.
  if (admission_ != nullptr) refresh_admission(pool_snapshot());
  return rep;
}

JobServer::RejuvCounters JobServer::rejuv_counters() const {
  RejuvCounters c;
  c.cycles = engine_->cycles();
  c.deferred = rejuv_deferred_.load(std::memory_order_relaxed);
  c.shed = rejuv_shed_.load(std::memory_order_relaxed);
  c.reaped_tasks = rejuv_reaped_tasks_.load(std::memory_order_relaxed);
  c.reclaimed_bytes = rejuv_reclaimed_bytes_.load(std::memory_order_relaxed);
  return c;
}

void JobServer::housekeeping_loop() {
  const std::int64_t period = opts_.rejuv_period_ns;
  std::int64_t next_tick = period > 0 ? TaskContext::now_ns() + period
                                      : INT64_MAX;
  std::unique_lock lock(mu_);
  while (!housekeeping_stop_) {
    const std::int64_t now = TaskContext::now_ns();
    dispatch(take_dispatchable_locked(now), lock);
    if (now >= next_tick) {
      // Sample first so the window the policy sees includes the present.
      record_aging_sample();
      const aging::Analysis a = aging_report(opts_.rejuv_policy.analyze);
      if (policy_.evaluate(a, TaskContext::now_ns()).trip) (void)rejuvenate();
      next_tick = TaskContext::now_ns() + period;
    }
    lock.lock();
    if (housekeeping_stop_) break;
    // Sleep to the next tick or defer deadline; a deferred submit wakes us.
    std::int64_t wake = next_tick;
    for (const JobPtr& j : pending_[static_cast<std::size_t>(Priority::kBatch)])
      if (j->defer_deadline() > now) wake = std::min(wake, j->defer_deadline());
    housekeeping_cv_.wait_until(
        lock, std::chrono::steady_clock::time_point{
                  std::chrono::nanoseconds{wake}});
  }
}

std::string JobServer::metrics_text() const {
  return stats().to_metrics_text();
}

std::vector<observe::Anomaly> deadline_risk_anomalies(
    const ServerStats& s, std::size_t max_pending) {
  std::vector<observe::Anomaly> out;
  std::uint64_t timed_out = 0;
  for (const auto& c : s.by_class) timed_out += c.timed_out;
  if (timed_out > 0) {
    out.push_back({observe::anomaly_code::kDeadlineRisk,
                   "deadline-risk: " + std::to_string(timed_out) +
                       " job(s) already timed out"});
  }
  const auto threshold = static_cast<std::uint64_t>(
      kDeadlineRiskPendingFraction * static_cast<double>(max_pending));
  if (max_pending > 0 && threshold > 0 && s.pending >= threshold) {
    out.push_back({observe::anomaly_code::kDeadlineRisk,
                   "deadline-risk: pending backlog " +
                       std::to_string(s.pending) + " >= 80% of max_pending " +
                       std::to_string(max_pending)});
  }
  return out;
}

std::string JobServer::observe_text() const {
  const observe::Snapshot snap = rt_->observe_snapshot();
  const std::vector<observe::Anomaly> extra =
      deadline_risk_anomalies(stats(), opts_.max_pending);
  std::vector<observe::ExtraCounter> pool =
      aging::pool_extra_counters(pool_snapshot());
  // Rejuvenation transitions as counter rows (docs/REJUV.md): cycles,
  // load shedding and reclaimed memory, scrapeable next to the pool
  // gauges they act on.
  const RejuvCounters rc = rejuv_counters();
  pool.push_back({"anahy_rejuv_cycles_total", "", rc.cycles});
  pool.push_back({"anahy_rejuv_deferred_total", "", rc.deferred});
  pool.push_back({"anahy_rejuv_shed_total", "", rc.shed});
  pool.push_back({"anahy_rejuv_reaped_tasks_total", "", rc.reaped_tasks});
  pool.push_back(
      {"anahy_rejuv_reclaimed_bytes_total", "", rc.reclaimed_bytes});
  // Per-class admission verdicts (docs/MESH.md): a mesh router parses
  // these rows out of the kStatsReply snapshot and shrinks the routing
  // weight of a node whose budget says a class is over — "budget verdicts
  // feed routing weight". The score is scaled to milli-units so the row
  // stays an integer counter like every other exposition line.
  if (admission_ != nullptr) {
    for (std::size_t c = 0; c < kNumPriorities; ++c) {
      const auto cls = static_cast<Priority>(c);
      pool.push_back({"anahy_admission_over",
                      std::string("class=\"") + to_string(cls) + "\"",
                      admission_->over(cls) ? 1u : 0u});
      pool.push_back({"anahy_admission_score_milli",
                      std::string("class=\"") + to_string(cls) + "\"",
                      static_cast<std::uint64_t>(
                          std::max(0.0, admission_->last_score(cls)) * 1000.0)});
    }
  }
  return observe::render_text(snap, extra, pool) + metrics_text();
}

}  // namespace anahy::serve
