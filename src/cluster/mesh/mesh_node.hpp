// One mesh node: a JobServer + ServeFrontEnd pair with the mesh protocol
// glued on through the MeshHooks extension points (docs/MESH.md).
//
// The node adds three behaviours to a plain serve front-end:
//
//  * Job stealing. When its own ready queues run dry the node probes
//    loaded peers (kJobSteal) in its locality order; a victim whose
//    per-class backlog exceeds a latency-derived threshold exports
//    queued-never-started wire jobs (JobServer::export_queued → resolve
//    kMigrated → kJobMigrate grant). The thief re-injects each job
//    through its own front-end under the original (client, request_id),
//    so the submitting router sees one reply from wherever the job ran.
//
//  * Replicated done-cache. Completions gossip to every peer — eagerly
//    in small batches and on each heartbeat tick — so a retried or
//    re-routed submit for a finished key is answered from the replica
//    (SubmitIntercept::kReplay) instead of executed again. Withdrawn
//    completions are deliberately NOT gossiped: a replicated "withdrawn"
//    would block the node the router re-routes that key to.
//
//  * Start fence. Before any wire job body runs, allow_start() checks how
//    long the submitting client has been silent. Past `fence` the router
//    may already have reaped this node and re-routed the key, so the body
//    is withdrawn (kJobDoneWithdrawn, body never runs) rather than risk a
//    second execution. Known routers get a kJobStarted mark just before
//    the body, which is what entitles the router to re-route *unmarked*
//    keys of a reaped node immediately.
//
// Threading: the node drives its front-end core with the one FramePump
// it starts last in its constructor, so no frame reaches a hook before the
// node is whole. on_mesh_frame/on_tick run on that pump thread;
// intercept_submit/on_done run under the front-end's link lock (leaf work
// only — the node's own mutex nests inside, never the other way around);
// allow_start runs on a worker VP and reads the clock for the fence.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "anahy/serve/job_server.hpp"
#include "cluster/mesh/hash.hpp"
#include "cluster/registry.hpp"
#include "cluster/serve_frontend.hpp"
#include "cluster/transport.hpp"

namespace cluster::mesh {

struct MeshNodeOptions {
  /// This node's transport rank (frames carry it as thief/from ids).
  std::uint32_t self = 0;

  /// Transport ranks of the other mesh nodes (steal victims and gossip
  /// recipients). Empty = single-node mesh; stealing and gossip idle.
  std::vector<std::uint32_t> peers;

  /// Transport ranks that speak the mesh router protocol: they receive
  /// kJobStarted marks and are expected to answer liveness. Clients not
  /// listed here are plain serve clients — the fence still applies to
  /// them, but no start-marks are sent (an AsyncServeClient would drop
  /// the unknown frame on the floor at best).
  std::vector<std::uint32_t> routers;

  /// Forwarded to the owned JobServer.
  anahy::serve::ServerOptions server;

  /// Forwarded to the owned ServeFrontEnd (mesh hook installed on top).
  /// The default heartbeat is lowered to 5ms — gossip and steal probes
  /// ride on it, and mesh failover wants sub-100ms reaction times.
  FrontEndOptions frontend{std::chrono::microseconds{5'000},
                           std::chrono::microseconds{2'500'000}, 1024,
                           nullptr};

  /// Router silence (microseconds) past which the start fence withdraws
  /// instead of running a wire job body. Must be shorter than the
  /// router's reap window R, so a node always stops starting work before
  /// the router starts re-routing it. 0 disables the fence.
  std::int64_t fence_us = 50'000;

  /// Queue-wait budget a victim is allowed to burn before it must share:
  /// a steal probe for class c is granted when backlog_c * mean_exec_c
  /// exceeds this. Defaults to 20ms — roughly one scheduling quantum of
  /// patience before latency is traded for a migration.
  std::int64_t steal_wait_budget_ns = 20'000'000;

  /// Backlog floor when the victim has no execution history yet for the
  /// class (mean_exec unknown): grant only above this depth.
  std::uint64_t steal_min_backlog = 2;

  /// Upper bound on jobs per kJobMigrate grant.
  std::uint32_t max_export_per_grant = 4;

  /// A queued job older than this (ns) is never migrated — it is about
  /// to time out or be rejected, and paying a network hop on top of the
  /// wait it already served only makes its tail worse. Mirrors the
  /// admission controller's max_defer_ns default (docs/REJUV.md).
  std::int64_t max_defer_ns = 500'000'000;

  /// Ticks between steal probes while idle (probes ride the heartbeat:
  /// with the 5ms default, 1 = probe every 5ms).
  std::uint32_t steal_probe_ticks = 1;

  /// Eager gossip: staged completions are flushed to peers once this
  /// many accumulate (heartbeat ticks flush the remainder).
  std::size_t gossip_batch = 8;

  /// Bounded replica done-cache (entries from peers, FIFO eviction) —
  /// same at-least-once-beyond-the-window caveat as the local dedup
  /// window.
  std::size_t replica_cap = 4096;

  /// Bounded migrated-key set (keys exported, thief outcome not yet
  /// gossiped back).
  std::size_t migrated_cap = 1024;

  /// Master switch for stealing (benchmarks compare on/off).
  bool steal_enabled = true;
};

/// Counters a MeshNode exposes (also rendered as anahy_mesh_* rows in
/// every kStatsReply through MeshHooks::extra_counters).
struct MeshNodeCounters {
  std::uint64_t steal_probes_sent = 0;
  std::uint64_t steal_probes_received = 0;
  std::uint64_t steal_grants = 0;    ///< non-empty kJobMigrate sent
  std::uint64_t jobs_exported = 0;   ///< jobs shipped inside grants
  std::uint64_t jobs_imported = 0;   ///< jobs re-injected from grants
  std::uint64_t gossip_tx = 0;       ///< entries sent to peers
  std::uint64_t gossip_rx = 0;       ///< entries accepted from peers
  std::uint64_t fence_refusals = 0;  ///< allow_start said no
  std::uint64_t replica_entries = 0;   ///< gauge
  std::uint64_t migrated_entries = 0;  ///< gauge
};

class MeshNode final : public MeshHooks {
 public:
  /// Starts the node: constructs the JobServer, then the front-end core
  /// with this object installed as its mesh hook, and starts the core's
  /// pump last. `transport` and `registry` must outlive the node.
  MeshNode(Transport& transport, const Registry& registry,
           MeshNodeOptions opts);
  ~MeshNode() override;

  MeshNode(const MeshNode&) = delete;
  MeshNode& operator=(const MeshNode&) = delete;

  /// Stops the front-end pump, then shuts the server down (draining).
  /// Idempotent. After stop() no hook can fire: the completion callbacks
  /// that reference this object have all resolved.
  void stop();

  [[nodiscard]] anahy::serve::JobServer& server() { return *server_; }
  [[nodiscard]] FrontEndCore& frontend() { return *frontend_; }
  [[nodiscard]] const MeshNodeOptions& options() const { return opts_; }
  [[nodiscard]] MeshNodeCounters counters() const;

  // MeshHooks ------------------------------------------------------------
  void on_mesh_frame(TimePoint now, Message msg) override;
  void on_tick(TimePoint now) override;
  SubmitIntercept intercept_submit(std::uint32_t client,
                                   std::uint64_t request_id,
                                   std::vector<std::uint8_t>& replay) override;
  bool allow_start(std::uint32_t client, std::uint64_t request_id) override;
  void on_done(std::uint32_t client, std::uint64_t request_id,
               const std::vector<std::uint8_t>& frame) override;
  void on_export(JobSubmitMsg job) override;
  std::vector<anahy::observe::ExtraCounter> extra_counters() override;

 private:
  using Key = std::pair<std::uint32_t, std::uint64_t>;

  void handle_steal(TimePoint now, const JobStealMsg& msg);  // pump thread
  void handle_migrate(JobMigrateMsg msg);                    // pump thread
  void handle_gossip(MeshGossipMsg msg);                     // pump thread
  /// Empties the gossip stage, counting the entries it sends to peers.
  std::vector<MeshGossipEntry> take_gossip_locked();
  void flush_gossip(std::vector<MeshGossipEntry>& staged);
  void send_to(std::uint32_t dst, const Message& m);
  [[nodiscard]] bool is_router(std::uint32_t client) const;

  Transport& transport_;
  MeshNodeOptions opts_;
  std::unique_ptr<anahy::serve::JobServer> server_;
  std::unique_ptr<FrontEndCore> frontend_;
  std::atomic<bool> stopped_{false};

  /// Guards the mesh maps below. Leaf lock: acquired inside the
  /// front-end's link lock (intercept_submit/on_done) and on the pump
  /// thread; code holding it must never call into the front-end.
  mutable std::mutex mu_;
  std::map<Key, std::vector<std::uint8_t>> replica_;  ///< peer done frames
  std::deque<Key> replica_order_;                     ///< FIFO eviction
  std::set<Key> migrated_;                            ///< exported, pending
  std::deque<Key> migrated_order_;
  std::vector<MeshGossipEntry> gossip_staged_;
  std::vector<JobSubmitMsg> export_staged_;  ///< filled by on_export

  // Pump-thread state (no lock needed).
  std::uint64_t steal_token_ = 0;
  std::uint32_t ticks_since_probe_ = 0;
  std::size_t next_victim_ = 0;
  std::uint8_t next_steal_class_ = 2;  ///< alternates batch/normal
  std::vector<std::size_t> victim_order_;  ///< locality-ranked peer indices

  MeshNodeCounters counters_;  ///< under mu_; the gauges are filled on read
};

}  // namespace cluster::mesh
