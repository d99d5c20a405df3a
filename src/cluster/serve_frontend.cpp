#include "cluster/serve_frontend.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <set>

namespace cluster {

using Clock = std::chrono::steady_clock;

namespace {

/// Waits for a kStatsReply-answered request; its text lands in `out`.
int await_text(std::future<AsyncServeClient::Reply> fut, std::string& out) {
  AsyncServeClient::Reply r = fut.get();
  if (r.error != anahy::kOk) return r.error;
  out = r.text();
  return anahy::kOk;
}

AsyncServeClient::Reply unreachable() {
  AsyncServeClient::Reply r;
  r.error = anahy::kUnreachable;
  return r;
}

}  // namespace

// ---------------------------------------------------------------- Link --

void ServeFrontEnd::Link::send_locked(int dst,
                                      const std::vector<std::uint8_t>& frame) {
  // Null once the front-end stopped: the reply is dropped. A severed
  // peer loses it too; a live client retries and is answered from the
  // dedup cache.
  if (transport != nullptr && !send_soft(*transport, dst, frame))
    ++send_failures;
}

void ServeFrontEnd::Link::record_done_locked(const Key& key,
                                             std::vector<std::uint8_t> frame) {
  inflight.erase(key);
  if (dedup_window == 0) return;
  auto [it, inserted] = done_cache.emplace(key, std::move(frame));
  if (!inserted) return;  // already cached (shouldn't happen; be safe)
  done_order.push_back(key);
  while (done_order.size() > dedup_window) {
    done_cache.erase(done_order.front());
    done_order.pop_front();
  }
}

// -------------------------------------------------------- ServeFrontEnd --

ServeFrontEnd::ServeFrontEnd(anahy::serve::JobServer& server,
                             Transport& transport, const Registry& registry,
                             FrontEndOptions opts)
    : server_(server), transport_(transport), registry_(registry),
      opts_(opts) {
  link_ = std::make_shared<Link>();
  link_->transport = &transport;
  link_->dedup_window = opts_.dedup_window;
  pump_ = std::thread([this] { pump(); });
}

ServeFrontEnd::~ServeFrontEnd() { stop(); }

void ServeFrontEnd::stop() {
  if (stop_.exchange(true)) return;
  if (pump_.joinable()) pump_.join();
  // Detach the transport under the link lock: any completion callback that
  // is mid-flight either already holds the lock (and sends to the still-
  // valid transport before we proceed) or will take it after us and see
  // nullptr. Either way, no send() can start after stop() returns.
  std::lock_guard lock(link_->mu);
  link_->transport = nullptr;
}

std::string ServeFrontEnd::last_reject_diagnostic() const {
  std::lock_guard lock(link_->mu);
  return link_->last_reject;
}

std::uint64_t ServeFrontEnd::withdrawn() const {
  std::lock_guard lock(link_->mu);
  return link_->withdrawn;
}

std::int64_t ServeFrontEnd::last_seen_age_us(std::uint32_t client) const {
  std::lock_guard lock(link_->mu);
  auto it = link_->last_seen.find(client);
  if (it == link_->last_seen.end()) return -1;
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               it->second)
      .count();
}

std::vector<anahy::observe::ExtraCounter> ServeFrontEnd::extra_counters()
    const {
  std::uint64_t send_failures = 0;
  std::uint64_t withdrawn = 0;
  std::uint64_t dedup_entries = 0;
  std::uint64_t inflight_entries = 0;
  {
    std::lock_guard lock(link_->mu);
    send_failures = link_->send_failures;
    withdrawn = link_->withdrawn;
    dedup_entries = link_->done_order.size();
    inflight_entries = link_->inflight.size();
  }
  return {
      {"anahy_frontend_submissions_total", "",
       submissions_.load(std::memory_order_relaxed)},
      {"anahy_frontend_retransmits_total", "",
       retransmits_.load(std::memory_order_relaxed)},
      {"anahy_frontend_duplicates_suppressed_total", "",
       duplicates_suppressed_.load(std::memory_order_relaxed)},
      {"anahy_frontend_rejected_frames_total", "",
       rejected_frames_.load(std::memory_order_relaxed)},
      {"anahy_frontend_pings_sent_total", "",
       pings_sent_.load(std::memory_order_relaxed)},
      {"anahy_frontend_clients_reaped_total", "",
       clients_reaped_.load(std::memory_order_relaxed)},
      {"anahy_frontend_replica_hits_total", "",
       replica_hits_.load(std::memory_order_relaxed)},
      {"anahy_frontend_withdrawn_total", "", withdrawn},
      {"anahy_frontend_rejuv_forwards_total", "",
       rejuv_forwards_.load(std::memory_order_relaxed)},
      {"anahy_frontend_send_failures_total", "", send_failures},
      {"anahy_frontend_dedup_entries", "", dedup_entries},
      {"anahy_frontend_inflight_entries", "", inflight_entries},
  };
}

void ServeFrontEnd::pump() {
  std::vector<std::uint8_t> frame;
  auto last_beat = Clock::now();
  while (!stop_.load(std::memory_order_relaxed)) {
    if (transport_recv(frame)) {
      DecodeResult d = decode_frame(frame);
      if (!d.ok) {
        rejected_frames_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard lock(link_->mu);
        link_->last_reject = std::move(d.diagnostic);
      } else {
        switch (d.msg.type) {
          case MsgType::kStatsQuery:
            handle_stats_query(d.msg.stats_query);
            break;
          case MsgType::kRejuvenate:
            handle_rejuvenate(d.msg.rejuv);
            break;
          case MsgType::kPong: {
            std::lock_guard lock(link_->mu);
            link_->last_seen[d.msg.ping.from] = Clock::now();
            break;
          }
          case MsgType::kPing: {
            // Liveness probe from a peer (a mesh router keeping its reap
            // clock honest, or another node's front-end): echo the token
            // and count the sender as seen.
            const auto pong = encode(make_pong(
                static_cast<std::uint32_t>(transport_.node_id()),
                d.msg.ping.token));
            std::lock_guard lock(link_->mu);
            link_->last_seen[d.msg.ping.from] = Clock::now();
            link_->send_locked(static_cast<int>(d.msg.ping.from), pong);
            break;
          }
          case MsgType::kJobSubmit:
            handle_submit(std::move(d.msg.job_submit));
            break;
          case MsgType::kJobSteal:
          case MsgType::kJobMigrate:
          case MsgType::kMeshGossip:
            if (opts_.mesh != nullptr)
              opts_.mesh->on_mesh_frame(*this, std::move(d.msg));
            break;
          default:
            break;  // not serve traffic; drop
        }
      }
    }
    if (opts_.heartbeat_interval.count() > 0) {
      const auto now = Clock::now();
      if (now - last_beat >= opts_.heartbeat_interval) {
        heartbeat(now);
        if (opts_.mesh != nullptr) opts_.mesh->on_tick();
        last_beat = now;
      }
    }
  }
}

bool ServeFrontEnd::transport_recv(std::vector<std::uint8_t>& frame) {
  // Bounded so the heartbeat timer fires even on a silent fabric.
  const auto slice = opts_.heartbeat_interval.count() > 0
                         ? std::min(opts_.heartbeat_interval,
                                    std::chrono::microseconds{1000})
                         : std::chrono::microseconds{1000};
  return transport_.recv(frame, slice);
}

void ServeFrontEnd::heartbeat(Clock::time_point now) {
  std::lock_guard lock(link_->mu);

  // Clients that still have jobs in flight are the ones we care about.
  std::set<std::uint32_t> active;
  for (const auto& [key, handle] : link_->inflight) active.insert(key.first);

  for (std::uint32_t client : active) {
    auto seen = link_->last_seen.find(client);
    if (seen != link_->last_seen.end() &&
        now - seen->second > opts_.dead_after) {
      // Dead peer: cancel its abandoned jobs and forget it. The jobs still
      // resolve (as kAborted) and their replies land in the dedup cache —
      // harmless, and a resurrected client would even find them there.
      for (auto it = link_->inflight.begin(); it != link_->inflight.end();) {
        if (it->first.first == client) {
          it->second.cancel();
          it = link_->inflight.erase(it);
        } else {
          ++it;
        }
      }
      link_->last_seen.erase(seen);
      clients_reaped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (seen == link_->last_seen.end()) {
      // First probe of this client; start its silence clock now so it has
      // a full dead_after interval to answer.
      link_->last_seen[client] = now;
    }
    link_->send_locked(
        static_cast<int>(client),
        encode(make_ping(static_cast<std::uint32_t>(transport_.node_id()),
                         ++ping_token_)));
    pings_sent_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServeFrontEnd::handle_stats_query(const StatsQueryMsg& msg) {
  stats_queries_.fetch_add(1, std::memory_order_relaxed);
  // Compose the exposition before taking the link lock: the front-end's
  // own rows lock it briefly inside extra_counters(), and the mesh rows
  // take the mesh's lock — neither may nest under ours.
  std::string text = server_.observe_text();
  text += anahy::observe::render_counters(extra_counters());
  if (opts_.mesh != nullptr)
    text += anahy::observe::render_counters(opts_.mesh->extra_counters());
  const auto frame = encode(make_stats_reply(msg.request_id, std::move(text)));
  std::lock_guard lock(link_->mu);
  link_->last_seen[msg.client] = Clock::now();  // health polls prove liveness
  link_->send_locked(static_cast<int>(msg.client), frame);
}

void ServeFrontEnd::handle_rejuvenate(const RejuvenateMsg& msg) {
  const auto self = static_cast<std::uint32_t>(transport_.node_id());
  if (msg.target != kRejuvTargetSelf && msg.target != self) {
    // Addressed to another mesh node (docs/MESH.md): forward the frame
    // verbatim — the target answers the client directly, so the operator
    // reaches any node through whichever one its transport landed on.
    rejuv_forwards_.fetch_add(1, std::memory_order_relaxed);
    const auto frame =
        encode(make_rejuvenate(msg.client, msg.request_id, msg.target));
    std::lock_guard lock(link_->mu);
    link_->last_seen[msg.client] = Clock::now();
    link_->send_locked(static_cast<int>(msg.target), frame);
    return;
  }
  rejuvenations_.fetch_add(1, std::memory_order_relaxed);
  // The cycle runs on the pump thread — it is not a VP and holds no server
  // lock, exactly what JobServer::rejuvenate asks for. Job traffic keeps
  // flowing meanwhile (submissions queue on the transport and are pumped
  // right after; the server itself never stops serving during a cycle).
  const anahy::rejuv::CycleReport rep = server_.rejuvenate();
  const auto frame = encode(make_stats_reply(msg.request_id, rep.summary()));
  std::lock_guard lock(link_->mu);
  link_->last_seen[msg.client] = Clock::now();
  link_->send_locked(static_cast<int>(msg.client), frame);
}

void ServeFrontEnd::handle_submit(JobSubmitMsg msg, bool exportable) {
  submissions_.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t client = msg.client;
  const std::uint64_t request_id = msg.request_id;
  const Key key{client, request_id};

  {
    std::lock_guard lock(link_->mu);
    link_->last_seen[client] = Clock::now();  // any submit proves liveness

    // Retry of a completed request: answer from cache, execute nothing.
    auto cached = link_->done_cache.find(key);
    if (cached != link_->done_cache.end()) {
      retransmits_.fetch_add(1, std::memory_order_relaxed);
      link_->send_locked(static_cast<int>(client), cached->second);
      return;
    }
    // Retry of a still-running request: the eventual completion will
    // answer it; a second execution would break exactly-once.
    if (link_->inflight.count(key) != 0) {
      duplicates_suppressed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Mesh interception (docs/MESH.md): a peer may already have executed
    // this key (replicated done-cache), or this node may have migrated it
    // and be awaiting the thief's outcome — either way running the body
    // here again would break exactly-once.
    if (opts_.mesh != nullptr) {
      std::vector<std::uint8_t> replay;
      switch (opts_.mesh->intercept_submit(client, request_id, replay)) {
        case MeshHooks::SubmitIntercept::kReplay:
          replica_hits_.fetch_add(1, std::memory_order_relaxed);
          link_->send_locked(static_cast<int>(client), replay);
          // Promote into the local dedup window so later retries of the
          // same key stay local.
          link_->record_done_locked(key, std::move(replay));
          return;
        case MeshHooks::SubmitIntercept::kSuppress:
          duplicates_suppressed_.fetch_add(1, std::memory_order_relaxed);
          return;
        case MeshHooks::SubmitIntercept::kProceed:
          break;
      }
    }
    // Reserve the key *before* submitting so a retry racing with the
    // submission below is suppressed rather than executed twice.
    link_->inflight.emplace(key, anahy::serve::JobHandle{});
  }

  if (!registry_.contains(msg.function)) {
    auto frame = encode(make_job_done(request_id, anahy::kInvalid, 0, {}));
    std::lock_guard lock(link_->mu);
    link_->send_locked(static_cast<int>(client), frame);
    link_->record_done_locked(key, std::move(frame));
    return;
  }

  // Closure state shared between the body (produces the result bytes) and
  // the completion callback (ships them back). Heap-held because the VP
  // executing the body and the thread resolving the job may differ.
  struct RemoteJob {
    RemoteFn fn;
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> result;
    bool withdrawn = false;  ///< start fence refused; body never ran
  };
  auto rj = std::make_shared<RemoteJob>();
  rj->fn = registry_.get(msg.function);
  rj->payload = std::move(msg.payload);

  anahy::serve::JobSpec spec;
  spec.priority = msg.priority < anahy::kNumPriorities
                      ? static_cast<anahy::Priority>(msg.priority)
                      : anahy::Priority::kNormal;
  spec.timeout_ns = msg.timeout_ns;
  spec.check = msg.check != 0;
  spec.label = msg.function;
  // Wire submits are the only jobs a mesh node may export to a peer: they
  // carry enough bytes (function name + payload) to rebuild the JobSpec
  // remotely, which locally-submitted closures do not.
  spec.exportable = exportable;
  MeshHooks* hooks = opts_.mesh;
  // `self` is dereferenced only with hooks installed, and their owner
  // (mesh::MeshNode) drains the server before destroying this front-end.
  spec.body = [rj, hooks, self = this, client, request_id](void*) -> void* {
    // Start fence (docs/MESH.md): once the router has been silent past the
    // fence window it may have reassigned this key — running the body now
    // could execute it twice in the cluster. Withdraw instead.
    if (hooks != nullptr && !hooks->allow_start(*self, client, request_id)) {
      rj->withdrawn = true;
      return nullptr;
    }
    rj->result = rj->fn(rj->payload);
    return &rj->result;
  };
  // Fires exactly once for every submission outcome, including rejected
  // handles — that is the "never silence" half of the reply contract. It
  // captures the shared Link, not `this`: a job may resolve after stop().
  auto link = link_;
  spec.on_complete = [link, rj, hooks, client, request_id,
                      priority = msg.priority, timeout_ns = msg.timeout_ns,
                      check = msg.check, function = msg.function](
                         const anahy::serve::JobResult& r) {
    const Key key{client, request_id};
    if (r.error == anahy::kMigrated) {
      // export_queued pulled this job before it ever started: a peer will
      // execute it and answer the client under the original key. Drop the
      // local reservation (no reply, no dedup record — the mesh layer's
      // migrated-set suppresses retries until the thief's gossip lands)
      // and hand the bytes back for shipping.
      {
        std::lock_guard lock(link->mu);
        link->inflight.erase(key);
      }
      if (hooks != nullptr) {
        JobSubmitMsg out;
        out.client = client;
        out.request_id = request_id;
        out.priority = priority;
        out.timeout_ns = timeout_ns;
        out.check = check;
        out.function = function;
        out.payload = std::move(rj->payload);
        hooks->on_export(std::move(out));
      }
      return;
    }
    std::vector<std::uint8_t> out;
    std::uint8_t flags = 0;
    auto err = static_cast<std::uint32_t>(r.error);
    if (rj->withdrawn) {
      // The fence refused the start. Seal the key's fate in the local
      // dedup window (a late retry here must not execute) but never
      // gossip it: a replicated "withdrawn" entry would block the node
      // the router re-routes this key to.
      flags |= kJobDoneWithdrawn;
      if (r.error == anahy::kOk)
        err = static_cast<std::uint32_t>(anahy::kAborted);
    } else if (r.error == anahy::kOk) {
      out = std::move(rj->result);
    } else if (r.error == anahy::kFaulted) {
      out.assign(r.message.begin(), r.message.end());
    }
    auto frame = encode(make_job_done(request_id, err, r.races.size(),
                                      std::move(out), flags));
    std::lock_guard lock(link->mu);
    link->send_locked(static_cast<int>(client), frame);
    if (rj->withdrawn) {
      ++link->withdrawn;
    } else if (hooks != nullptr) {
      // Real completion: let the mesh replicate it (eager + heartbeat
      // gossip) so peers can answer retries if this node dies.
      hooks->on_done(client, request_id, frame);
    }
    link->record_done_locked(key, std::move(frame));
  };

  anahy::serve::JobHandle h = server_.submit(std::move(spec));
  // Rejected submissions complete synchronously: on_complete already ran,
  // answered the client and erased the reservation — don't resurrect it.
  std::lock_guard lock(link_->mu);
  auto it = link_->inflight.find(key);
  if (it != link_->inflight.end()) it->second = std::move(h);
}

// ------------------------------------------------------ AsyncServeClient --

AsyncServeClient::AsyncServeClient(Transport& transport, int server_node,
                                   std::uint64_t seed)
    : transport_(transport), server_node_(server_node), table_(seed) {
  pump_ = std::thread([this] { pump(); });
}

AsyncServeClient::~AsyncServeClient() {
  stop_.store(true);
  if (pump_.joinable()) pump_.join();
  // Outstanding submissions resolve definitely even at teardown.
  std::vector<std::pair<std::uint64_t, Pending>> orphans;
  {
    std::lock_guard lock(mu_);
    orphans = table_.take_all();
  }
  for (auto& [id, p] : orphans) resolve(std::move(p), unreachable());
}

void AsyncServeClient::resolve(Pending&& p, Reply r) {
  if (p.callback) p.callback(r);
  p.promise.set_value(std::move(r));
}

std::future<AsyncServeClient::Reply> AsyncServeClient::start(
    std::uint64_t id, std::vector<std::uint8_t> frame, const CallOptions& copts,
    MsgType reply, Callback callback) {
  Pending p{{}, std::move(callback)};
  std::future<Reply> fut = p.promise.get_future();
  {
    std::lock_guard lock(mu_);
    table_.add(id, frame, reply, copts, Clock::now(), std::move(p));
  }
  send_soft(transport_, server_node_, std::move(frame));
  return fut;
}

std::future<AsyncServeClient::Reply> AsyncServeClient::submit_async(
    const std::string& function, std::vector<std::uint8_t> payload,
    const CallOptions& copts, anahy::Priority priority, std::int64_t timeout_ns,
    bool check, Callback callback) {
  const std::uint64_t id = next_id();
  return start(id,
               encode(make_job_submit(
                   static_cast<std::uint32_t>(transport_.node_id()), id,
                   static_cast<std::uint8_t>(priority), timeout_ns, check,
                   function, std::move(payload))),
               copts, MsgType::kJobDone, std::move(callback));
}

AsyncServeClient::Reply AsyncServeClient::call(
    const std::string& function, std::vector<std::uint8_t> payload,
    const CallOptions& copts, anahy::Priority priority, std::int64_t timeout_ns,
    bool check) {
  return submit_async(function, std::move(payload), copts, priority,
                      timeout_ns, check)
      .get();
}

int AsyncServeClient::query_stats(std::string& out, const CallOptions& copts) {
  const std::uint64_t id = next_id();
  return await_text(
      start(id,
            encode(make_stats_query(
                static_cast<std::uint32_t>(transport_.node_id()), id)),
            copts, MsgType::kStatsReply, nullptr),
      out);
}

int AsyncServeClient::rejuvenate(std::string& out, const CallOptions& copts,
                                 std::uint32_t target) {
  // kRejuvenate is answered by kStatsReply, so it waits like a stats pull.
  const std::uint64_t id = next_id();
  return await_text(
      start(id,
            encode(make_rejuvenate(
                static_cast<std::uint32_t>(transport_.node_id()), id, target)),
            copts, MsgType::kStatsReply, nullptr),
      out);
}

std::size_t AsyncServeClient::inflight() const {
  std::lock_guard lock(mu_);
  return table_.size();
}

void AsyncServeClient::handle_frame(const std::vector<std::uint8_t>& frame) {
  DecodeResult d = decode_frame(frame);
  if (!d.ok) {
    rejected_frames_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  switch (d.msg.type) {
    case MsgType::kPing:
      send_soft(transport_, server_node_,
                encode(make_pong(
                    static_cast<std::uint32_t>(transport_.node_id()),
                    d.msg.ping.token)));
      pings_answered_.fetch_add(1, std::memory_order_relaxed);
      break;
    case MsgType::kJobDone:
    case MsgType::kStatsReply: {
      const bool job = d.msg.type == MsgType::kJobDone;
      std::optional<Pending> p;
      {
        std::lock_guard lock(mu_);
        p = table_.take(job ? d.msg.job_done.request_id
                            : d.msg.stats_reply.request_id,
                        d.msg.type);
      }
      if (!p) {
        duplicate_replies_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      Reply r;
      if (job) {
        r.error = static_cast<int>(d.msg.job_done.error);
        r.races = d.msg.job_done.races;
        r.payload = std::move(d.msg.job_done.payload);
      } else {
        r.payload.assign(d.msg.stats_reply.text.begin(),
                         d.msg.stats_reply.text.end());
      }
      resolve(std::move(*p), std::move(r));
      break;
    }
    default:
      break;  // not client traffic; drop
  }
}

void AsyncServeClient::pump() {
  std::vector<std::uint8_t> frame;
  auto next_timer_scan = Clock::now();
  while (!stop_.load(std::memory_order_relaxed)) {
    if (transport_.recv(frame, std::chrono::microseconds{1000})) {
      handle_frame(frame);
      // Drain without sleeping: coalesced batches land together.
      while (transport_.recv(frame, std::chrono::microseconds{0}))
        handle_frame(frame);
    }
    const auto now = Clock::now();
    if (now < next_timer_scan) continue;
    next_timer_scan = now + std::chrono::microseconds{1000};
    // Decide under the lock, act outside it: callbacks and sends never run
    // with mu_ held.
    decltype(table_)::Due due;
    {
      std::lock_guard lock(mu_);
      due = table_.tick(now);
    }
    for (auto& [id, bytes] : due.resend) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      send_soft(transport_, server_node_, std::move(bytes));
    }
    for (auto& [id, p] : due.expired) resolve(std::move(p), unreachable());
  }
}

}  // namespace cluster
