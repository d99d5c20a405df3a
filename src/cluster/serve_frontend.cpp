#include "cluster/serve_frontend.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <set>

namespace cluster {

namespace {

/// Waits for a kStatsReply-answered request; its text lands in `out`.
int await_text(std::future<ServeClientCore::Reply> fut, std::string& out) {
  ServeClientCore::Reply r = fut.get();
  if (r.error != anahy::kOk) return r.error;
  out = r.text();
  return anahy::kOk;
}

ServeClientCore::Reply unreachable() {
  ServeClientCore::Reply r;
  r.error = anahy::kUnreachable;
  return r;
}

}  // namespace

// ---------------------------------------------------------------- Link --

void FrontEndCore::Link::send_locked(int dst,
                                      const std::vector<std::uint8_t>& frame) {
  // Null once the front-end stopped: the reply is dropped. A severed
  // peer loses it too; a live client retries and is answered from the
  // dedup cache.
  if (transport != nullptr && !send_soft(*transport, dst, frame))
    ++send_failures;
}

void FrontEndCore::Link::record_done_locked(const Key& key,
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

// --------------------------------------------------------- FrontEndCore --

FrontEndCore::FrontEndCore(anahy::serve::JobServer& server,
                           Transport& transport, const Registry& registry,
                           FrontEndOptions opts)
    : FrameRole(transport, opts.heartbeat_interval),
      server_(server), transport_(transport), registry_(registry),
      opts_(opts), link_(std::make_shared<Link>()) {
  link_->transport = &transport;
  link_->dedup_window = opts_.dedup_window;
}

FrontEndCore::~FrontEndCore() { stop(); }

void FrontEndCore::stop() {
  pump().stop();
  // Detach the transport under the link lock: any completion callback that
  // is mid-flight either already holds the lock (and sends to the still-
  // valid transport before we proceed) or will take it after us and see
  // nullptr. Either way, no send() can start after stop() returns.
  std::lock_guard lock(link_->mu);
  link_->transport = nullptr;
}

std::int64_t FrontEndCore::last_seen_age_us(std::uint32_t client,
                                            TimePoint now) const {
  std::lock_guard lock(link_->mu);
  auto it = link_->last_seen.find(client);
  if (it == link_->last_seen.end()) return -1;
  // `now` may predate a stamp the pump took after the caller read it.
  return std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(now - it->second)
             .count());
}

std::vector<anahy::observe::ExtraCounter> FrontEndCore::extra_counters()
    const {
  std::lock_guard lock(link_->mu);
  return {
      {"anahy_frontend_submissions_total", "", submissions()},
      {"anahy_frontend_retransmits_total", "", retransmits()},
      {"anahy_frontend_duplicates_suppressed_total", "",
       duplicates_suppressed()},
      {"anahy_frontend_rejected_frames_total", "", rejected_frames()},
      {"anahy_frontend_pings_sent_total", "", pings_sent()},
      {"anahy_frontend_clients_reaped_total", "", clients_reaped()},
      {"anahy_frontend_replica_hits_total", "", replica_hits()},
      {"anahy_frontend_withdrawn_total", "", link_->withdrawn},
      {"anahy_frontend_rejuv_forwards_total", "", rejuv_forwards()},
      {"anahy_frontend_send_failures_total", "", link_->send_failures},
      {"anahy_frontend_dedup_entries", "", link_->done_order.size()},
      {"anahy_frontend_inflight_entries", "", link_->inflight.size()},
  };
}

void FrontEndCore::on_frame(TimePoint now, Message msg) {
  switch (msg.type) {
    case MsgType::kStatsQuery:
      handle_stats_query(now, msg.stats_query);
      break;
    case MsgType::kRejuvenate:
      handle_rejuvenate(now, msg.rejuv);
      break;
    case MsgType::kPong: {
      std::lock_guard lock(link_->mu);
      link_->last_seen[msg.ping.from] = now;
      break;
    }
    case MsgType::kPing: {
      // Liveness probe from a peer (a mesh router keeping its reap clock
      // honest, or another node's front-end): echo the token and count the
      // sender as seen.
      const auto pong = encode(make_pong(
          static_cast<std::uint32_t>(transport_.node_id()), msg.ping.token));
      std::lock_guard lock(link_->mu);
      link_->last_seen[msg.ping.from] = now;
      link_->send_locked(static_cast<int>(msg.ping.from), pong);
      break;
    }
    case MsgType::kJobSubmit:
      handle_submit(std::move(msg.job_submit), now);
      break;
    case MsgType::kJobSteal:
    case MsgType::kJobMigrate:
    case MsgType::kMeshGossip:
      if (opts_.mesh != nullptr)
        opts_.mesh->on_mesh_frame(now, std::move(msg));
      break;
    default:
      break;  // not serve traffic; drop
  }
}

void FrontEndCore::on_tick(TimePoint now) {
  if (opts_.heartbeat_interval.count() <= 0) return;
  heartbeat(now);
  if (opts_.mesh != nullptr) opts_.mesh->on_tick(now);
}

void FrontEndCore::heartbeat(TimePoint now) {
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

void FrontEndCore::handle_stats_query(TimePoint now,
                                      const StatsQueryMsg& msg) {
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
  link_->last_seen[msg.client] = now;  // health polls prove liveness
  link_->send_locked(static_cast<int>(msg.client), frame);
}

void FrontEndCore::handle_rejuvenate(TimePoint now,
                                     const RejuvenateMsg& msg) {
  const auto self = static_cast<std::uint32_t>(transport_.node_id());
  if (msg.target != kRejuvTargetSelf && msg.target != self) {
    // Addressed to another mesh node (docs/MESH.md): forward the frame
    // verbatim — the target answers the client directly, so the operator
    // reaches any node through whichever one its transport landed on.
    rejuv_forwards_.fetch_add(1, std::memory_order_relaxed);
    const auto frame =
        encode(make_rejuvenate(msg.client, msg.request_id, msg.target));
    std::lock_guard lock(link_->mu);
    link_->last_seen[msg.client] = now;
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
  link_->last_seen[msg.client] = now;
  link_->send_locked(static_cast<int>(msg.client), frame);
}

void FrontEndCore::handle_submit(JobSubmitMsg msg,
                                 std::optional<TimePoint> from) {
  submissions_.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t client = msg.client;
  const std::uint64_t request_id = msg.request_id;
  const Key key{client, request_id};

  {
    std::lock_guard lock(link_->mu);
    if (from) link_->last_seen[client] = *from;  // a wire submit is liveness

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
    JobSubmitMsg job;  ///< as received; shipped whole if it migrates
    std::vector<std::uint8_t> result;
    bool withdrawn = false;  ///< start fence refused; body never ran
  };
  auto rj = std::make_shared<RemoteJob>();
  rj->fn = registry_.get(msg.function);

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
  spec.exportable = from.has_value();
  rj->job = std::move(msg);
  MeshHooks* hooks = opts_.mesh;
  spec.body = [rj, hooks, client, request_id](void*) -> void* {
    // Start fence (docs/MESH.md): once the router has been silent past the
    // fence window it may have reassigned this key — running the body now
    // could execute it twice in the cluster. Withdraw instead.
    if (hooks != nullptr && !hooks->allow_start(client, request_id)) {
      rj->withdrawn = true;
      return nullptr;
    }
    rj->result = rj->fn(rj->job.payload);
    return &rj->result;
  };
  // Fires exactly once for every submission outcome, including rejected
  // handles — that is the "never silence" half of the reply contract. It
  // captures the shared Link, not `this`: a job may resolve after stop().
  auto link = link_;
  spec.on_complete = [link, rj, hooks, key](const anahy::serve::JobResult& r) {
    const auto [client, request_id] = key;
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
      if (hooks != nullptr) hooks->on_export(std::move(rj->job));
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

// ------------------------------------------------------- ServeClientCore --

ServeClientCore::ServeClientCore(Transport& transport, int server_node,
                                 std::uint64_t seed)
    : FrameRole(transport, std::chrono::microseconds{1000}),
      transport_(transport), server_node_(server_node), table_(seed) {}

ServeClientCore::~ServeClientCore() {
  pump().stop();
  // Outstanding submissions resolve definitely even at teardown.
  std::vector<std::pair<std::uint64_t, Pending>> orphans;
  {
    std::lock_guard lock(mu_);
    orphans = table_.take_all();
  }
  for (auto& [id, p] : orphans) resolve(std::move(p), unreachable());
}

void ServeClientCore::resolve(Pending&& p, Reply r) {
  if (p.callback) p.callback(r);
  p.promise.set_value(std::move(r));
}

std::future<ServeClientCore::Reply> ServeClientCore::start(
    TimePoint now, std::uint64_t id, std::vector<std::uint8_t> frame,
    const CallOptions& copts, MsgType reply, Callback callback) {
  Pending p{{}, std::move(callback)};
  std::future<Reply> fut = p.promise.get_future();
  {
    std::lock_guard lock(mu_);
    table_.add(id, frame, reply, copts, now, std::move(p));
  }
  send_soft(transport_, server_node_, std::move(frame));
  return fut;
}

std::future<ServeClientCore::Reply> ServeClientCore::submit_async(
    const std::string& function, std::vector<std::uint8_t> payload,
    const CallOptions& copts, anahy::Priority priority, std::int64_t timeout_ns,
    bool check, Callback callback, TimePoint now) {
  const std::uint64_t id = next_id();
  return start(now, id,
               encode(make_job_submit(self(), id,
                                      static_cast<std::uint8_t>(priority),
                                      timeout_ns, check, function,
                                      std::move(payload))),
               copts, MsgType::kJobDone, std::move(callback));
}

int ServeClientCore::query_stats(std::string& out, const CallOptions& copts,
                                 TimePoint now) {
  const std::uint64_t id = next_id();
  return await_text(start(now, id, encode(make_stats_query(self(), id)), copts,
                          MsgType::kStatsReply, nullptr),
                    out);
}

int ServeClientCore::rejuvenate(std::string& out, const CallOptions& copts,
                                std::uint32_t target, TimePoint now) {
  // kRejuvenate is answered by kStatsReply, so it waits like a stats pull.
  const std::uint64_t id = next_id();
  return await_text(
      start(now, id, encode(make_rejuvenate(self(), id, target)), copts,
            MsgType::kStatsReply, nullptr),
      out);
}

std::size_t ServeClientCore::inflight() const {
  std::lock_guard lock(mu_);
  return table_.size();
}

void ServeClientCore::on_frame(TimePoint /*now*/, Message msg) {
  switch (msg.type) {
    case MsgType::kPing:
      send_soft(transport_, server_node_,
                encode(make_pong(self(), msg.ping.token)));
      break;
    case MsgType::kJobDone:
    case MsgType::kStatsReply: {
      const bool job = msg.type == MsgType::kJobDone;
      std::optional<Pending> p;
      {
        std::lock_guard lock(mu_);
        p = table_.take(
            job ? msg.job_done.request_id : msg.stats_reply.request_id,
            msg.type);
      }
      if (!p) {
        duplicate_replies_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      Reply r;
      if (job) {
        r.error = static_cast<int>(msg.job_done.error);
        r.races = msg.job_done.races;
        r.payload = std::move(msg.job_done.payload);
      } else {
        r.payload.assign(msg.stats_reply.text.begin(),
                         msg.stats_reply.text.end());
      }
      resolve(std::move(*p), std::move(r));
      break;
    }
    default:
      break;  // not client traffic; drop
  }
}

void ServeClientCore::on_tick(TimePoint now) {
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

}  // namespace cluster
