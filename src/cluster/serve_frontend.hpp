// Remote front-end of anahy::serve::JobServer over the cluster transport.
//
// The JobServer itself only takes in-process submissions. This layer makes
// it reachable from other processes/nodes with the machinery the cluster
// prototype already has: functions cross address spaces *by name*
// (Registry), payloads are opaque byte vectors, and frames travel over any
// Transport (in-memory fabric, TCP loopback mesh, or the multi-process
// coordinator/worker bootstrap).
//
//   server node                         client node
//   ServeFrontEnd(server, tp, reg) <--- AsyncServeClient(tp, server_node)
//        kJobSubmit {fn, payload, priority, timeout, check}
//        kJobDone   {error, races, result bytes}
//        kStatsQuery {}                 kStatsReply {exposition text}
//        kPing {token}                  kPong {token}
//
// The pair is hardened against an imperfect network (docs/FAULT.md):
//
//  * Every frame carries the magic/length/CRC envelope; malformed input is
//    dropped with an ANAHY-F00x count, never parsed into garbage.
//  * AsyncServeClient retries lost requests through a RequestTable
//    (request_table.hpp, the retry core mesh::MeshRouter shares): capped
//    exponential backoff with seeded jitter under a per-request deadline;
//    exhausted retries yield kUnreachable instead of a hang.
//  * The front-end keeps a dedup window of completed replies keyed by
//    (client, request id), so a retried request is answered from cache
//    (exactly-once execution) instead of running twice; a retry of a
//    still-running request is suppressed.
//  * Clients with work in flight are pinged; a client that stops answering
//    is declared dead and its jobs are cancelled (no abandoned work).
//
// Each role is a core with no thread and no clock (FrontEndCore,
// ServeClientCore) driven by one FramePump (frame_pump.hpp), which owns the
// receive thread and hands every frame and timer pass the time it happens
// at. Replies are sent from whichever VP completes the job
// (Transport::send is thread-safe).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "anahy/serve/job_server.hpp"
#include "cluster/frame_pump.hpp"
#include "cluster/message.hpp"
#include "cluster/registry.hpp"
#include "cluster/request_table.hpp"
#include "cluster/transport.hpp"

namespace cluster {

/// Mesh extension points of a front-end (docs/MESH.md). A front-end
/// with hooks installed becomes one node of an anahy::mesh deployment:
/// mesh frames are forwarded here, remote job bodies pass the start fence,
/// completions feed the replicated done-cache, and queued jobs can leave
/// for a peer. Implemented by mesh::MeshNode; a plain front-end (hooks ==
/// nullptr) pays one null test per site.
///
/// Threading: on_mesh_frame / on_tick run on the front-end pump thread.
/// intercept_submit runs on the pump thread UNDER the front-end's link
/// lock — it must not call back into the front-end. allow_start runs on
/// the executing VP; on_done runs on the completing thread under the link
/// lock; on_export runs synchronously inside JobServer::export_queued on
/// whatever thread called it. extra_counters runs on the pump thread with
/// no front-end lock held.
class MeshHooks {
 public:
  virtual ~MeshHooks() = default;

  /// A mesh frame (kJobSteal / kJobMigrate / kMeshGossip) arrived at `now`.
  virtual void on_mesh_frame(TimePoint now, Message msg) = 0;

  /// Heartbeat-cadence tick (requires heartbeat_interval > 0): gossip
  /// batches go out, idle nodes probe victims, backoffs advance.
  virtual void on_tick(TimePoint now) = 0;

  /// What to do with a fresh (not locally cached, not in flight) submit.
  enum class SubmitIntercept : std::uint8_t {
    kProceed,   ///< execute locally, business as usual
    kReplay,    ///< replicated done-cache hit: send `replay_frame` instead
    kSuppress,  ///< key was migrated and its outcome is still in flight
                ///< elsewhere — answer nothing (the retry path covers it)
  };
  virtual SubmitIntercept intercept_submit(
      std::uint32_t client, std::uint64_t request_id,
      std::vector<std::uint8_t>& replay_frame) = 0;

  /// Start fence: called right before a remote job's body runs. Returning
  /// false *withdraws* the job — the body is never executed and the reply
  /// carries kJobDoneWithdrawn, certifying the router may re-route the key
  /// with no double-execution risk.
  virtual bool allow_start(std::uint32_t client, std::uint64_t request_id) = 0;

  /// A remote job resolved for real (never called for withdrawn jobs) and
  /// `frame` — the encoded kJobDone — just entered the dedup window.
  virtual void on_done(std::uint32_t client, std::uint64_t request_id,
                       const std::vector<std::uint8_t>& frame) = 0;

  /// A queued job left this server (JobServer::export_queued resolved it
  /// kMigrated); `job` carries everything a peer needs to run it under the
  /// same (client, request_id) key.
  virtual void on_export(JobSubmitMsg job) = 0;

  /// anahy_mesh_* rows appended to this node's kStatsReply exposition.
  virtual std::vector<anahy::observe::ExtraCounter> extra_counters() = 0;
};

/// Tuning of the server-side hardening. The defaults are benign for tests
/// and demos: heartbeats only go to clients that still owe the server a
/// pong while having jobs in flight, so an idle or finished client is
/// never bothered.
struct FrontEndOptions {
  /// Cadence of kPing probes to clients with jobs in flight. Zero disables
  /// heartbeats (and therefore dead-peer reaping).
  std::chrono::microseconds heartbeat_interval{500'000};

  /// A client with jobs in flight that has been silent (no submit, no
  /// pong) for this long is declared dead: its jobs are cancelled and its
  /// pending replies dropped.
  std::chrono::microseconds dead_after{2'500'000};

  /// Completed replies remembered for retransmission, across all clients.
  /// Retries inside the window are exactly-once; a duplicate arriving
  /// after eviction re-executes the job (at-least-once beyond the window).
  std::size_t dedup_window = 1024;

  /// Mesh extension points (docs/MESH.md); null for a plain front-end.
  /// Must outlive the front-end AND the server (completion callbacks call
  /// into it) — mesh::MeshNode owns all three in the right order.
  MeshHooks* mesh = nullptr;
};

/// Server side: turns kJobSubmit frames into JobServer::submit calls and
/// answers each with exactly one kJobDone per execution (including
/// rejections: a client that was turned away sees kOverloaded/kPerm/
/// kInvalid, never silence). Duplicate submissions inside the dedup window
/// are answered from cache.
///
/// The core: every decision (dedup, suppression, liveness, reap) takes
/// `now` from its caller, and its pump receives nothing until started.
class FrontEndCore : public FrameRole {
 public:
  /// The server, transport and registry references must outlive this
  /// object (or its stop()).
  FrontEndCore(anahy::serve::JobServer& server, Transport& transport,
               const Registry& registry, FrontEndOptions opts = {});
  ~FrontEndCore() override;

  /// Stops the pump thread and detaches the transport (idempotent). After
  /// stop() returns, no completion callback will touch the transport again
  /// — in-flight jobs still resolve, but their replies are dropped. This
  /// is what makes "stop the front-end, destroy the transport, let the
  /// server drain" a safe teardown order.
  void stop();

  void on_frame(TimePoint now, Message msg) override;
  /// Heartbeat pass, at the heartbeat cadence: pings clients with jobs
  /// in flight, reaps the silent ones, then ticks the mesh hooks.
  void on_tick(TimePoint now) override;

  /// kJobSubmit frames seen so far, including duplicates (tests/monitoring).
  [[nodiscard]] std::uint64_t submissions() const {
    return submissions_.load(std::memory_order_relaxed);
  }

  /// kStatsQuery frames answered so far.
  [[nodiscard]] std::uint64_t stats_queries() const {
    return stats_queries_.load(std::memory_order_relaxed);
  }

  /// kRejuvenate commands executed so far (docs/REJUV.md).
  [[nodiscard]] std::uint64_t rejuvenations() const {
    return rejuvenations_.load(std::memory_order_relaxed);
  }

  /// Duplicate submissions answered from the dedup cache.
  [[nodiscard]] std::uint64_t retransmits() const {
    return retransmits_.load(std::memory_order_relaxed);
  }

  /// Duplicate submissions of still-running jobs that were suppressed.
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_.load(std::memory_order_relaxed);
  }

  /// kPing probes sent to clients with jobs in flight.
  [[nodiscard]] std::uint64_t pings_sent() const {
    return pings_sent_.load(std::memory_order_relaxed);
  }

  /// Clients declared dead (their in-flight jobs were cancelled).
  [[nodiscard]] std::uint64_t clients_reaped() const {
    return clients_reaped_.load(std::memory_order_relaxed);
  }

  /// Replies replayed from the mesh's replicated done-cache (a peer
  /// executed the key; this node answered without running anything).
  [[nodiscard]] std::uint64_t replica_hits() const {
    return replica_hits_.load(std::memory_order_relaxed);
  }

  /// kRejuvenate frames forwarded to the node they address (docs/MESH.md).
  [[nodiscard]] std::uint64_t rejuv_forwards() const {
    return rejuv_forwards_.load(std::memory_order_relaxed);
  }

  /// Microseconds from the last time `client` proved liveness here
  /// (submit, pong, stats query, rejuvenate or ping) to `now`, never
  /// negative; -1 when never heard from. The mesh start fence reads this
  /// to decide whether the submitting router is still listening
  /// (docs/MESH.md).
  [[nodiscard]] std::int64_t last_seen_age_us(std::uint32_t client,
                                              TimePoint now) const;

  /// The front-end's own hardening state as exposition rows — heartbeat
  /// and reap totals, retransmit/duplicate counts, dedup-window and
  /// in-flight occupancy — appended to every kStatsReply so mesh failover
  /// is observable (render via observe::render_counters).
  [[nodiscard]] std::vector<anahy::observe::ExtraCounter> extra_counters()
      const;

  /// Injects a migrated job as if its kJobSubmit frame had just arrived
  /// (same dedup, same reply path — the original client answers it), but
  /// never exportable again: a job migrates at most once, so it cannot
  /// bounce back to a victim whose migrated set would suppress it. The
  /// import proves nothing about the client, so its silence clock is left
  /// alone. Pump thread only (mesh::MeshNode calls it while handling a
  /// kJobMigrate grant).
  void inject_submit(JobSubmitMsg msg) {
    handle_submit(std::move(msg), /*from=*/std::nullopt);
  }

 private:
  using Key = std::pair<std::uint32_t, std::uint64_t>;  // client, request id

  /// State shared between this object and the per-job completion
  /// callbacks, which may outlive it (a job can resolve after stop()).
  /// Everything behind `mu`; `transport` is null once stop() detached it.
  struct Link {
    std::mutex mu;
    Transport* transport = nullptr;
    std::size_t dedup_window = 1024;
    std::map<Key, std::vector<std::uint8_t>> done_cache;  ///< encoded replies
    std::deque<Key> done_order;                           ///< FIFO eviction
    std::map<Key, anahy::serve::JobHandle> inflight;
    std::map<std::uint32_t, TimePoint> last_seen;  ///< per client
    std::uint64_t send_failures = 0;
    std::uint64_t withdrawn = 0;  ///< start-fence refusals (kJobDoneWithdrawn)

    /// Sends under `mu`, swallowing transport errors (a severed TCP peer
    /// throws; the reply is then simply lost and the client's retry path
    /// handles it).
    void send_locked(int dst, const std::vector<std::uint8_t>& frame);

    /// Records a completed reply in the dedup cache (evicting FIFO past
    /// the window) and drops the in-flight entry.
    void record_done_locked(const Key& key, std::vector<std::uint8_t> frame);
  };

  /// `from` is the arrival time of a wire submit (it proves the client's
  /// liveness); nullopt for an imported job.
  void handle_submit(JobSubmitMsg msg, std::optional<TimePoint> from);
  void handle_stats_query(TimePoint now, const StatsQueryMsg& msg);
  void handle_rejuvenate(TimePoint now, const RejuvenateMsg& msg);
  void heartbeat(TimePoint now);

  anahy::serve::JobServer& server_;
  Transport& transport_;
  const Registry& registry_;
  FrontEndOptions opts_;
  std::shared_ptr<Link> link_;
  std::atomic<std::uint64_t> submissions_{0};
  std::atomic<std::uint64_t> stats_queries_{0};
  std::atomic<std::uint64_t> rejuvenations_{0};
  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> duplicates_suppressed_{0};
  std::atomic<std::uint64_t> pings_sent_{0};
  std::atomic<std::uint64_t> clients_reaped_{0};
  std::atomic<std::uint64_t> replica_hits_{0};
  std::atomic<std::uint64_t> rejuv_forwards_{0};
  std::uint64_t ping_token_ = 0;  // pump thread only
};

/// The front-end with its pump running from construction on.
using ServeFrontEnd = Pumped<FrontEndCore>;

/// Client side: submits registered functions to a remote front-end and
/// collects replies. Many requests can be in flight on ONE transport
/// endpoint, submitted from any number of threads.
///
/// The core: its RequestTable (retries under the same request id, so they
/// stay exactly-once through the server's dedup window, and kUnreachable
/// at the deadline) moves only when its caller passes it `now`; each entry
/// point stamps its request with the `now` it is given, the current time
/// by default. AsyncServeClient runs it under its pump, which owns the
/// receive side, resolves futures and callbacks, answers heartbeat pings
/// and retransmits every millisecond tick. Never throws on transport
/// failure.
///
/// Concurrent submissions share the socket and, on the epoll wire path
/// (docs/WIRE.md), coalesce into writev batches instead of serializing on
/// one blocking round-trip.
///
/// Callbacks and promise resolutions run on the pump thread (or, for
/// submissions still pending at destruction, on the destructing thread):
/// keep them short and never call back into blocking client methods from
/// one.
class ServeClientCore : public FrameRole {
 public:
  struct Reply {
    int error = 0;            ///< anahy::Error numbering (incl. kUnreachable)
    std::uint64_t races = 0;  ///< ANAHY-R001 count (check jobs)
    std::vector<std::uint8_t> payload;  ///< result bytes; kFaulted: message

    /// The payload as text (kFaulted carries the exception message).
    [[nodiscard]] std::string text() const {
      return {payload.begin(), payload.end()};
    }
  };
  using Callback = std::function<void(const Reply&)>;

  /// `seed` drives the retry jitter (deterministic per client). The
  /// transport must outlive this object.
  ServeClientCore(Transport& transport, int server_node,
                  std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Stops the pump and resolves every outstanding future/callback with
  /// kUnreachable.
  ~ServeClientCore() override;

  void on_frame(TimePoint now, Message msg) override;
  /// Retransmits what is due and resolves what expired (kUnreachable);
  /// the pump ticks every millisecond.
  void on_tick(TimePoint now) override;

  /// Submits and returns immediately with a future that resolves exactly
  /// once — kOk/kFaulted/... from the server, or kUnreachable when the
  /// retry envelope is exhausted. `callback` (optional) fires on the pump
  /// thread right before the future resolves.
  std::future<Reply> submit_async(
      const std::string& function, std::vector<std::uint8_t> payload,
      const CallOptions& copts = CallOptions{},
      anahy::Priority priority = anahy::Priority::kNormal,
      std::int64_t timeout_ns = -1, bool check = false,
      Callback callback = nullptr, TimePoint now = Clock::now());

  /// Blocking convenience: submit_async(...).get(). May run from many
  /// threads concurrently — each caller parks on its own future while the
  /// shared pump multiplexes the socket.
  Reply call(const std::string& function, std::vector<std::uint8_t> payload,
             const CallOptions& copts = CallOptions{},
             anahy::Priority priority = anahy::Priority::kNormal,
             std::int64_t timeout_ns = -1, bool check = false) {
    return submit_async(function, std::move(payload), copts, priority,
                        timeout_ns, check)
        .get();
  }

  /// Blocking telemetry pull (kStatsQuery) under the same retry envelope.
  /// Returns kOk with the exposition text in `out`, or kUnreachable on
  /// give-up (`out` untouched). A retried pull re-renders the exposition
  /// server-side, which is harmless.
  int query_stats(std::string& out, const CallOptions& copts = CallOptions{},
                  TimePoint now = Clock::now());

  /// Operator command: run one online rejuvenation cycle on the remote
  /// server (kRejuvenate frame; docs/REJUV.md). Same envelope as
  /// query_stats — the reply rides kStatsReply and `out` receives the
  /// cycle-report text. Rejuvenation is idempotent, so a retried command
  /// cycling twice is harmless. Returns kOk or kUnreachable.
  ///
  /// `target` addresses a specific mesh node: the server this client
  /// talks to forwards the command (ServeFrontEnd one-hop routing) and
  /// the addressed node replies directly. kRejuvTargetSelf cycles the
  /// connected server itself.
  int rejuvenate(std::string& out, const CallOptions& copts = CallOptions{},
                 std::uint32_t target = kRejuvTargetSelf,
                 TimePoint now = Clock::now());

  /// Requests currently awaiting a reply.
  [[nodiscard]] std::size_t inflight() const;

  /// Retransmissions performed across the client's lifetime.
  [[nodiscard]] std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  /// Reply frames for ids no longer pending (duplicates/latecomers).
  [[nodiscard]] std::uint64_t duplicate_replies() const {
    return duplicate_replies_.load(std::memory_order_relaxed);
  }

 private:
  /// What resolves one in-flight request; its frame, reply type and
  /// retry envelope live in the request table.
  struct Pending {
    std::promise<Reply> promise;
    Callback callback;
  };

  /// A fresh request id for this client.
  std::uint64_t next_id() {
    return next_request_.fetch_add(1, std::memory_order_relaxed);
  }
  /// The one start path of every request: registers `frame` (encoded under
  /// `id`, answered by a `reply` frame) at `now` and sends its first
  /// attempt.
  std::future<Reply> start(TimePoint now, std::uint64_t id,
                           std::vector<std::uint8_t> frame,
                           const CallOptions& copts, MsgType reply,
                           Callback callback);
  /// Resolves `p` (already out of the table) with `r`.
  static void resolve(Pending&& p, Reply r);
  /// This client's rank: the id every frame it sends carries.
  [[nodiscard]] std::uint32_t self() const {
    return static_cast<std::uint32_t>(transport_.node_id());
  }

  Transport& transport_;
  int server_node_;
  mutable std::mutex mu_;  ///< guards table_
  RequestTable<Pending, TimePoint> table_;
  std::atomic<std::uint64_t> next_request_{1};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> duplicate_replies_{0};
};

/// The client with its pump running from construction to destruction.
using AsyncServeClient = Pumped<ServeClientCore>;

}  // namespace cluster
