#include "cluster/mesh/mesh_node.hpp"

#include <algorithm>
#include <utility>


namespace cluster::mesh {

MeshNode::MeshNode(Transport& transport, const Registry& registry,
                   MeshNodeOptions opts)
    : transport_(transport), opts_(std::move(opts)) {
  if (opts_.server.max_active == 0) {
    // Unbounded dispatch would drain the serve-layer pending queue into
    // the runtime's ready deques instantly — and only *pending* jobs can
    // migrate (export_queued). Keep one job per VP running plus one
    // prefetched; the rest of the backlog stays where a thief can take it.
    const int vps = opts_.server.runtime.num_vps;
    opts_.server.max_active = vps > 0 ? 2 * static_cast<std::size_t>(vps) : 8;
  }
  server_ = std::make_unique<anahy::serve::JobServer>(opts_.server);
  // Locality order: this thief's stable rendezvous ranking of its peers.
  // Every node probes a *different* primary victim, so a hot node is not
  // stampeded by every idle peer at once.
  std::vector<WeightedNode> peers;
  peers.reserve(opts_.peers.size());
  for (std::uint32_t p : opts_.peers) peers.push_back({p, 1.0});
  if (!peers.empty())
    victim_order_ = rendezvous_rank(splitmix64(opts_.self), peers);
  opts_.frontend.mesh = this;
  frontend_ = std::make_unique<FrontEndCore>(*server_, transport, registry,
                                             opts_.frontend);
  // Last: the hooks may fire from here on, and the node is whole.
  frontend_->pump().start();
}

MeshNode::~MeshNode() { stop(); }

void MeshNode::stop() {
  if (stopped_.exchange(true)) return;
  // Pump first (no new frames), then drain the server: the completion
  // callbacks that call back into this object all fire before shutdown
  // returns, so the hooks outlive every caller.
  frontend_->stop();
  server_->shutdown();
}

MeshNodeCounters MeshNode::counters() const {
  std::lock_guard lock(mu_);
  MeshNodeCounters c = counters_;
  c.replica_entries = replica_.size();
  c.migrated_entries = migrated_.size();
  return c;
}

bool MeshNode::is_router(std::uint32_t client) const {
  return std::find(opts_.routers.begin(), opts_.routers.end(), client) !=
         opts_.routers.end();
}

void MeshNode::send_to(std::uint32_t dst, const Message& m) {
  // A severed TCP peer throws; mesh traffic is all retried or advisory,
  // so a lost frame degrades to "probe again later", never to wrongness.
  send_soft(transport_, static_cast<int>(dst), encode(m));
}

// ------------------------------------------------------------- frames --

void MeshNode::on_mesh_frame(TimePoint now, Message msg) {
  switch (msg.type) {
    case MsgType::kJobSteal:
      handle_steal(now, msg.job_steal);
      break;
    case MsgType::kJobMigrate:
      handle_migrate(std::move(msg.job_migrate));
      break;
    case MsgType::kMeshGossip:
      handle_gossip(std::move(msg.gossip));
      break;
    default:
      break;  // kJobStarted is router-bound; ignore stray frames
  }
}

void MeshNode::handle_steal(TimePoint now, const JobStealMsg& msg) {
  const auto cls =
      msg.priority < anahy::kNumPriorities
          ? static_cast<anahy::Priority>(msg.priority)
          : anahy::Priority::kBatch;
  std::size_t budget = 0;
  if (opts_.steal_enabled && !stopped_.load(std::memory_order_relaxed)) {
    const anahy::serve::ServerStats stats = server_->stats();
    const auto& cs = stats.by_class[static_cast<std::size_t>(cls)];
    const std::uint64_t backlog = cs.pending;
    // Latency-derived threshold: how many queued jobs can this node burn
    // through within the wait budget? Everything beyond that line waits
    // longer here than a migration costs — share it.
    std::uint64_t keep = opts_.steal_min_backlog;
    if (cs.completed > 0 && cs.exec_ns_sum > 0) {
      const std::int64_t mean_exec =
          cs.exec_ns_sum / static_cast<std::int64_t>(cs.completed);
      if (mean_exec > 0) {
        const auto fit = static_cast<std::uint64_t>(
            opts_.steal_wait_budget_ns / mean_exec);
        keep = fit > 0 ? fit : 1;
      }
    }
    if (backlog > keep) {
      budget = std::min<std::size_t>(
          {backlog - keep, msg.max_jobs, opts_.max_export_per_grant});
    }
  }

  if (budget > 0) {
    // Never migrate a job that has already waited past max_defer_ns: the
    // network hop would land on top of a wait that already blew the
    // latency budget (docs/REJUV.md uses the same cutoff for deferral).
    // Job::submit_ns() is steady-clock nanoseconds, the scale of `now`.
    const std::int64_t now_ns =
        std::chrono::nanoseconds(now.time_since_epoch()).count();
    const std::int64_t max_defer = opts_.max_defer_ns;
    server_->export_queued(
        cls, budget, [now_ns, max_defer](const anahy::serve::Job& j) {
          return max_defer <= 0 || now_ns - j.submit_ns() < max_defer;
        });
  }

  // Collect what on_export staged and fence the keys *before* the grant
  // frame leaves: the pump thread is the only submit path, so no retry
  // can interleave between the export and the migrated-set insert.
  JobMigrateMsg grant;
  grant.from = opts_.self;
  grant.token = msg.token;
  {
    std::lock_guard lock(mu_);
    grant.jobs = std::move(export_staged_);
    export_staged_.clear();
    ++counters_.steal_probes_received;
    counters_.jobs_exported += grant.jobs.size();
    if (!grant.jobs.empty()) ++counters_.steal_grants;
    for (const JobSubmitMsg& j : grant.jobs) {
      const Key key{j.client, j.request_id};
      if (migrated_.insert(key).second) migrated_order_.push_back(key);
      while (migrated_order_.size() > opts_.migrated_cap) {
        migrated_.erase(migrated_order_.front());
        migrated_order_.pop_front();
      }
    }
  }
  // Always answer, even with zero jobs: the thief bounds outstanding
  // probes by counting grants, not by timers.
  Message m;
  m.type = MsgType::kJobMigrate;
  m.job_migrate = std::move(grant);
  send_to(msg.thief, m);
}

void MeshNode::handle_migrate(JobMigrateMsg msg) {
  {
    std::lock_guard lock(mu_);
    counters_.jobs_imported += msg.jobs.size();
  }
  for (JobSubmitMsg& job : msg.jobs) {
    // Same dedup, fence and reply path as a fresh wire submit — the
    // original (client, request_id) rides along, so the submitting
    // router sees exactly one reply no matter where the job ran.
    frontend_->inject_submit(std::move(job));
  }
}

void MeshNode::handle_gossip(MeshGossipMsg msg) {
  std::lock_guard lock(mu_);
  for (MeshGossipEntry& e : msg.entries) {
    const Key key{e.client, e.request_id};
    ++counters_.gossip_rx;
    // The peer's completion supersedes our suppression: if we exported
    // this key, its outcome has now arrived and retries can be answered
    // from the replica.
    migrated_.erase(key);
    auto [it, fresh] = replica_.emplace(key, std::move(e.frame));
    if (!fresh) continue;
    replica_order_.push_back(key);
    while (replica_order_.size() > opts_.replica_cap) {
      replica_.erase(replica_order_.front());
      replica_order_.pop_front();
    }
  }
}

// -------------------------------------------------------------- hooks --

MeshHooks::SubmitIntercept MeshNode::intercept_submit(
    std::uint32_t client, std::uint64_t request_id,
    std::vector<std::uint8_t>& replay) {
  const Key key{client, request_id};
  std::lock_guard lock(mu_);
  auto it = replica_.find(key);
  if (it != replica_.end()) {
    replay = it->second;  // a peer already executed this key
    return SubmitIntercept::kReplay;
  }
  if (migrated_.count(key) != 0) {
    // Exported, thief outcome not yet gossiped back: executing now could
    // double-run the key. Suppress; the client's retry loop covers us.
    return SubmitIntercept::kSuppress;
  }
  return SubmitIntercept::kProceed;
}

bool MeshNode::allow_start(std::uint32_t client, std::uint64_t request_id) {
  const auto refuse = [this] {
    std::lock_guard lock(mu_);
    ++counters_.fence_refusals;
    return false;
  };
  if (opts_.fence_us > 0) {
    const std::int64_t age = frontend_->last_seen_age_us(client, Clock::now());
    // age < 0 = never heard from the client here — a migrated job whose
    // router has not talked to this node yet. Let it run: the router
    // only re-routes keys it reaped from a node it *stopped* hearing
    // from, and it marks those; an unknown-age start is not one of them.
    if (age > opts_.fence_us) return refuse();
  }
  if (is_router(client)) {
    // Start-mark: entitles the router to re-route only unmarked keys
    // after reaping this node. Sent before the body so the mark can
    // never lose a race with the work it covers.
    try {
      transport_.send(static_cast<int>(client),
                      encode(make_job_started(opts_.self, request_id)));
    } catch (...) {
      // Cannot prove the start to a severed router — withdrawing is the
      // only safe option (the router may re-route this key any moment).
      return refuse();
    }
  }
  return true;
}

void MeshNode::on_done(std::uint32_t client, std::uint64_t request_id,
                       const std::vector<std::uint8_t>& frame) {
  if (opts_.peers.empty()) return;
  std::vector<MeshGossipEntry> flush;
  {
    std::lock_guard lock(mu_);
    gossip_staged_.push_back({client, request_id, frame});
    if (gossip_staged_.size() < opts_.gossip_batch) return;
    flush = take_gossip_locked();
  }
  flush_gossip(flush);
}

void MeshNode::on_export(JobSubmitMsg job) {
  std::lock_guard lock(mu_);
  export_staged_.push_back(std::move(job));
}

void MeshNode::on_tick(TimePoint /*now*/) {
  // Ship whatever gossip the eager path has not flushed yet.
  std::vector<MeshGossipEntry> flush;
  {
    std::lock_guard lock(mu_);
    flush = take_gossip_locked();
  }
  if (!flush.empty()) flush_gossip(flush);

  // Steal probe: only while our own queues are dry.
  if (!opts_.steal_enabled || victim_order_.empty()) return;
  if (++ticks_since_probe_ < opts_.steal_probe_ticks) return;
  const anahy::serve::ServerStats stats = server_->stats();
  if (stats.pending != 0) {
    ticks_since_probe_ = 0;
    return;  // we have queued work of our own
  }
  ticks_since_probe_ = 0;
  const std::uint32_t victim =
      opts_.peers[victim_order_[next_victim_ % victim_order_.size()]];
  ++next_victim_;
  // Batch jobs migrate best (longest queue waits, loosest deadlines);
  // alternate with normal so a batch-free victim still sheds load.
  const std::uint8_t cls = next_steal_class_;
  next_steal_class_ = next_steal_class_ == 2 ? 1 : 2;
  {
    std::lock_guard lock(mu_);
    ++counters_.steal_probes_sent;
  }
  send_to(victim, make_job_steal(opts_.self, ++steal_token_, cls,
                                 opts_.max_export_per_grant));
}

std::vector<MeshGossipEntry> MeshNode::take_gossip_locked() {
  counters_.gossip_tx += gossip_staged_.size() * opts_.peers.size();
  return std::exchange(gossip_staged_, {});
}

void MeshNode::flush_gossip(std::vector<MeshGossipEntry>& staged) {
  Message m = make_mesh_gossip(opts_.self, std::move(staged));
  for (std::uint32_t p : opts_.peers) send_to(p, m);
}

std::vector<anahy::observe::ExtraCounter> MeshNode::extra_counters() {
  const MeshNodeCounters c = counters();
  return {
      {"anahy_mesh_steal_probes_sent_total", "", c.steal_probes_sent},
      {"anahy_mesh_steal_probes_received_total", "",
       c.steal_probes_received},
      {"anahy_mesh_steal_grants_total", "", c.steal_grants},
      {"anahy_mesh_jobs_exported_total", "", c.jobs_exported},
      {"anahy_mesh_jobs_imported_total", "", c.jobs_imported},
      {"anahy_mesh_gossip_tx_total", "", c.gossip_tx},
      {"anahy_mesh_gossip_rx_total", "", c.gossip_rx},
      {"anahy_mesh_fence_refusals_total", "", c.fence_refusals},
      {"anahy_mesh_replica_entries", "", c.replica_entries},
      {"anahy_mesh_migrated_entries", "", c.migrated_entries},
  };
}

}  // namespace cluster::mesh
