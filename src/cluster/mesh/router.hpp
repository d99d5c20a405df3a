// MeshRouter: the client-facing shard router of an anahy mesh
// (docs/MESH.md).
//
// One router fronts N mesh nodes. Every submit is assigned a shard key;
// weighted rendezvous hashing over the live nodes — weights derived from
// each node's latest kStatsReply health snapshot — picks the executor.
// Submits, health polls and control calls in flight share one
// RequestTable, the retry core of AsyncServeClient too (request_table.hpp;
// jitter seeded by the transport rank). The router is the failure
// authority of the mesh:
//
//  * Liveness. Health polls (kStatsQuery) every `health_interval` double
//    as the traffic that keeps each node's start fence open. A node
//    silent past `reap_after` is reaped: its UNSTARTED keys re-route to
//    the next rendezvous choice, its started keys keep waiting (the
//    victim's done-cache or the gossip replica answers after heal, or
//    the per-call deadline resolves them kUnreachable).
//
//  * Start-marks. Nodes send kJobStarted immediately before running a
//    body; the router never re-routes a marked key to another node —
//    that is the exactly-once half the fence cannot give alone.
//
//  * Withdrawals. A kJobDone flagged kJobDoneWithdrawn means the node
//    refused the start and sealed the key locally; the router excludes
//    that node for the key and re-routes immediately.
//
// The reap window must dominate the node fence: reap_after > fence so a
// node always stops *starting* keys before the router starts *re-routing*
// them, with margin for one body execution plus gossip propagation (the
// chaos suite pins this ordering).
//
// Threading: RouterCore decides at the `now` it is given (entry points
// default to the current time); MeshRouter runs it under a FramePump
// (frame_pump.hpp). submit/wait/rejuvenate/stats_text: any thread.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/frame_pump.hpp"
#include "cluster/mesh/health.hpp"
#include "cluster/message.hpp"
#include "cluster/request_table.hpp"
#include "cluster/serve_frontend.hpp"
#include "cluster/transport.hpp"

namespace cluster::mesh {

struct MeshRouterOptions {
  /// Transport ranks of the mesh nodes this router shards over.
  std::vector<std::uint32_t> nodes;

  /// kStatsQuery cadence per node. This is also the traffic that keeps
  /// each node's start fence open — it must be well under the node's
  /// fence_us.
  std::chrono::microseconds health_interval{5'000};

  /// Node silence before the router reaps it and re-routes its unstarted
  /// keys. Must exceed the node fence by at least one job execution plus
  /// a gossip hop (see file comment).
  std::chrono::microseconds reap_after{150'000};

  /// First retransmission of an unanswered submit; doubles per retry,
  /// capped at 8x, plus jitter of up to a quarter. Dedup on the nodes makes
  /// retries exactly-once inside their window.
  std::chrono::microseconds retry_backoff{20'000};

  /// Default per-call deadline when SubmitOptions.deadline is zero.
  std::chrono::microseconds default_deadline{2'000'000};
};

/// Per-submit knobs.
struct RouterSubmitOptions {
  /// Shard key: equal keys route to the same node (locality). 0 = derive
  /// from the request id (uniform spread).
  std::uint64_t key = 0;
  std::uint8_t priority = 1;  ///< anahy::Priority value
  std::int64_t timeout_ns = -1;
  bool check = false;
  std::chrono::microseconds deadline{0};  ///< 0 = options default
};

/// Aggregate router counters (tests and the scaling bench read these).
struct RouterCounters {
  std::uint64_t submitted = 0;
  std::uint64_t replies = 0;        ///< real kJobDone resolutions
  std::uint64_t reroutes = 0;       ///< keys moved to another node
  std::uint64_t reaps = 0;          ///< nodes declared dead
  std::uint64_t heals = 0;          ///< reaped nodes heard from again
  std::uint64_t withdrawals = 0;    ///< kJobDoneWithdrawn replies seen
  std::uint64_t started_marks = 0;  ///< kJobStarted frames accepted
  std::uint64_t retries = 0;        ///< submit retransmissions
  std::uint64_t unreachable = 0;    ///< handles resolved at deadline
  std::uint64_t rejected_frames = 0;  ///< malformed frames dropped
};

/// The router's protocol core: routing, liveness, start-marks and
/// withdrawals as decisions at a given `now`.
class RouterCore : public FrameRole {
 public:
  using Reply = ServeClientCore::Reply;

  /// `transport` must outlive the router; its node_id() is the client
  /// rank every node replies to.
  RouterCore(Transport& transport, MeshRouterOptions opts);
  ~RouterCore() override;

  void on_frame(TimePoint now, Message msg) override;
  /// Timers: health polls, reaps, deadlines and retransmissions (the pump
  /// ticks after every receive).
  void on_tick(TimePoint now) override;

  /// Stops the pump and resolves every outstanding handle kUnreachable.
  void stop();

  /// Routes one job; returns the handle id to pass to wait(). Never
  /// blocks on the network (if no node is live the key parks until one
  /// heals or the deadline passes).
  std::uint64_t submit(const std::string& function,
                       std::vector<std::uint8_t> payload,
                       RouterSubmitOptions o = {},
                       TimePoint now = Clock::now());

  /// Blocks until the handle resolves, returns the reply and forgets the
  /// handle. Every handle resolves exactly once — a real kJobDone or
  /// kUnreachable at its deadline, never both, never silence.
  Reply wait(std::uint64_t id);

  /// Non-blocking: true once wait(id) would not block.
  [[nodiscard]] bool done(std::uint64_t id);

  /// Runs a rejuvenation cycle on one node (kRejuvenate routed straight
  /// to `node_rank`); returns the cycle report text, empty on timeout.
  std::string rejuvenate(
      std::uint32_t node_rank,
      std::chrono::microseconds timeout = std::chrono::microseconds{2'000'000},
      TimePoint now = Clock::now());

  /// Fetches one node's exposition page, empty on timeout.
  std::string stats_text(
      std::uint32_t node_rank,
      std::chrono::microseconds timeout = std::chrono::microseconds{2'000'000},
      TimePoint now = Clock::now());

  [[nodiscard]] RouterCounters counters() const;
  [[nodiscard]] std::vector<std::uint32_t> live_nodes() const;
  [[nodiscard]] NodeHealth health(std::uint32_t node_rank) const;

 private:
  static constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;

  /// Routing state of a table entry. A job routes by (key, cls); a health
  /// poll or control call is pinned to `node` and sent once.
  struct Route {
    enum class Kind : std::uint8_t { kJob, kPoll, kControl };
    Kind kind = Kind::kJob;
    std::uint64_t key = 0;
    std::uint8_t cls = 1;
    std::uint32_t node = kNoNode;  ///< current assignment
    bool started = false;          ///< kJobStarted seen from `node`
    std::set<std::uint32_t> excluded{};  ///< withdrew/reaped while unstarted
  };

  struct NodeState {
    bool alive = true;
    /// Last sign of life; a node's silence clock starts at the first tick.
    std::optional<TimePoint> last_seen;
    std::optional<TimePoint> last_poll;  ///< none: poll on the next tick
    NodeHealth health;
  };

  void handle_done(TimePoint now, JobDoneMsg msg);
  void handle_started(TimePoint now, const JobStartedMsg& msg);
  void handle_stats_reply(TimePoint now, StatsReplyMsg msg);
  /// Picks a live, non-excluded node for (key, cls); kNoNode if none.
  [[nodiscard]] std::uint32_t pick_locked(std::uint64_t key, std::uint8_t cls,
                                          const std::set<std::uint32_t>& ex);
  void route_locked(std::uint64_t rid, Route& r, TimePoint now);
  void mark_seen_locked(std::uint32_t node, TimePoint now);
  /// Sends one kStatsQuery (or kRejuvenate) to `node` as a one-shot table
  /// entry that expires after `timeout`; returns its request id.
  std::uint64_t query_locked(std::uint32_t node, Route::Kind kind,
                             bool rejuvenate, std::chrono::microseconds timeout,
                             TimePoint now);
  /// `r` left the table unanswered: its waiter gets kUnreachable.
  void expire_locked(std::uint64_t rid, const Route& r);
  /// Blocks until `rid` leaves the table, then takes its outcome.
  Reply collect(std::unique_lock<std::mutex>& lock, std::uint64_t rid);
  /// Sends `node` a kRejuvenate (or kStatsQuery) at `now` and blocks for
  /// the reply text; empty on timeout or once stopped.
  std::string control_call(std::uint32_t node_rank, bool rejuvenate,
                           std::chrono::microseconds timeout, TimePoint now);

  Transport& transport_;
  MeshRouterOptions opts_;
  const std::uint32_t self_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  RequestTable<Route, TimePoint> table_;  ///< everything in flight
  std::map<std::uint64_t, Reply> resolved_;  ///< outcomes not yet collected
  std::map<std::uint32_t, NodeState> nodes_;
  std::uint64_t next_rid_ = 0;
  bool stopped_ = false;
  RouterCounters counters_;  ///< rejected_frames aside (the pump counts it)
};

/// The router with its pump running from construction to stop().
using MeshRouter = Pumped<RouterCore>;

}  // namespace cluster::mesh
