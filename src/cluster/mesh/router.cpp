#include "cluster/mesh/router.hpp"

#include <optional>
#include <utility>

#include "anahy/types.hpp"
#include "cluster/mesh/hash.hpp"

namespace cluster::mesh {

RouterCore::RouterCore(Transport& transport, MeshRouterOptions opts)
    : FrameRole(transport, std::chrono::microseconds{0}),
      transport_(transport), opts_(std::move(opts)),
      self_(static_cast<std::uint32_t>(transport.node_id())), table_(self_) {
  for (std::uint32_t n : opts_.nodes) nodes_.emplace(n, NodeState{});
}

RouterCore::~RouterCore() { stop(); }

void RouterCore::stop() {
  pump().stop();
  // Resolve every outstanding handle: wait() must never hang on a router
  // that has been stopped under it. Later submits and control calls see
  // stopped_ and resolve at once.
  std::lock_guard lock(mu_);
  if (stopped_) return;
  stopped_ = true;
  for (auto& [rid, r] : table_.take_all()) expire_locked(rid, r);
}

RouterCounters RouterCore::counters() const {
  RouterCounters c;
  {
    std::lock_guard lock(mu_);
    c = counters_;
  }
  c.rejected_frames = rejected_frames();
  return c;
}

std::vector<std::uint32_t> RouterCore::live_nodes() const {
  std::vector<std::uint32_t> out;
  std::lock_guard lock(mu_);
  for (const auto& [n, s] : nodes_)
    if (s.alive) out.push_back(n);
  return out;
}

NodeHealth RouterCore::health(std::uint32_t node_rank) const {
  std::lock_guard lock(mu_);
  auto it = nodes_.find(node_rank);
  return it == nodes_.end() ? NodeHealth{} : it->second.health;
}

void RouterCore::expire_locked(std::uint64_t rid, const Route& r) {
  if (r.kind == Route::Kind::kPoll) return;  // nobody waits on a poll
  if (r.kind == Route::Kind::kJob) ++counters_.unreachable;
  resolved_[rid].error = anahy::kUnreachable;
  cv_.notify_all();
}

RouterCore::Reply RouterCore::collect(std::unique_lock<std::mutex>& lock,
                                      std::uint64_t rid) {
  cv_.wait(lock, [&] { return !table_.contains(rid); });
  auto node = resolved_.extract(rid);
  if (!node.empty()) return std::move(node.mapped());
  Reply r;
  r.error = anahy::kInvalid;  // unknown or already waited
  return r;
}

// -------------------------------------------------------------- submit --

std::uint32_t RouterCore::pick_locked(std::uint64_t key, std::uint8_t cls,
                                      const std::set<std::uint32_t>& ex) {
  const auto pr = cls < anahy::kNumPriorities
                      ? static_cast<anahy::Priority>(cls)
                      : anahy::Priority::kNormal;
  std::vector<WeightedNode> live;
  live.reserve(nodes_.size());
  for (const auto& [n, s] : nodes_) {
    if (!s.alive || ex.count(n) != 0) continue;
    live.push_back({n, routing_weight(s.health, pr)});
  }
  if (live.empty()) return kNoNode;
  return live[rendezvous_pick(key, live)].node;
}

void RouterCore::route_locked(std::uint64_t rid, Route& r, TimePoint now) {
  const std::uint32_t node = pick_locked(r.key, r.cls, r.excluded);
  if (node == kNoNode) {
    // Every candidate dead or excluded: park. A heal re-runs this, so the
    // key moves the moment a node is back; the deadline bounds the
    // parking.
    r.node = kNoNode;
    return;
  }
  if (r.node != kNoNode && r.node != node) ++counters_.reroutes;
  r.node = node;
  r.started = false;
  send_soft(transport_, node, table_.rearm(rid, now));
}

std::uint64_t RouterCore::submit(const std::string& function,
                                 std::vector<std::uint8_t> payload,
                                 RouterSubmitOptions o, TimePoint now) {
  std::lock_guard lock(mu_);
  const std::uint64_t rid = ++next_rid_;
  ++counters_.submitted;
  Route r;
  if (stopped_) {
    expire_locked(rid, r);  // no pump left to route or expire it
    return rid;
  }
  r.key = o.key != 0 ? o.key : splitmix64(rid);
  r.cls = o.priority;
  const CallOptions envelope{
      .deadline = o.deadline.count() > 0 ? o.deadline : opts_.default_deadline,
      .initial_backoff = opts_.retry_backoff,
      .max_backoff = opts_.retry_backoff * 8};
  Route& route = table_.add(
      rid,
      encode(make_job_submit(self_, rid, o.priority, o.timeout_ns,
                             o.check ? 1 : 0, function, std::move(payload))),
      MsgType::kJobDone, envelope, now, std::move(r));
  route_locked(rid, route, now);
  return rid;
}

RouterCore::Reply RouterCore::wait(std::uint64_t id) {
  std::unique_lock lock(mu_);
  return collect(lock, id);
}

bool RouterCore::done(std::uint64_t id) {
  std::lock_guard lock(mu_);
  return !table_.contains(id);
}

// ------------------------------------------------------------- control --

std::uint64_t RouterCore::query_locked(std::uint32_t node, Route::Kind kind,
                                       bool rejuvenate,
                                       std::chrono::microseconds timeout,
                                       TimePoint now) {
  const std::uint64_t rid = ++next_rid_;
  std::vector<std::uint8_t> frame =
      encode(rejuvenate ? make_rejuvenate(self_, rid, kRejuvTargetSelf)
                        : make_stats_query(self_, rid));
  send_soft(transport_, node, frame);
  // One attempt whose slice is the whole timeout: never retransmitted.
  const CallOptions once{.deadline = timeout,
                         .initial_backoff = timeout,
                         .max_backoff = timeout,
                         .max_attempts = 1};
  table_.add(rid, std::move(frame), MsgType::kStatsReply, once, now,
             Route{.kind = kind, .node = node});
  return rid;
}

std::string RouterCore::control_call(std::uint32_t node_rank, bool rejuvenate,
                                     std::chrono::microseconds timeout,
                                     TimePoint now) {
  std::unique_lock lock(mu_);
  if (stopped_) return {};  // no pump left to answer or expire it
  const std::uint64_t rid = query_locked(node_rank, Route::Kind::kControl,
                                         rejuvenate, timeout, now);
  return collect(lock, rid).text();
}

std::string RouterCore::rejuvenate(std::uint32_t node_rank,
                                   std::chrono::microseconds timeout,
                                   TimePoint now) {
  return control_call(node_rank, /*rejuvenate=*/true, timeout, now);
}

std::string RouterCore::stats_text(std::uint32_t node_rank,
                                   std::chrono::microseconds timeout,
                                   TimePoint now) {
  return control_call(node_rank, /*rejuvenate=*/false, timeout, now);
}

// -------------------------------------------------------------- frames --

void RouterCore::on_frame(TimePoint now, Message msg) {
  switch (msg.type) {
    case MsgType::kJobDone:
      handle_done(now, std::move(msg.job_done));
      break;
    case MsgType::kJobStarted:
      handle_started(now, msg.job_started);
      break;
    case MsgType::kStatsReply:
      handle_stats_reply(now, std::move(msg.stats_reply));
      break;
    case MsgType::kPing: {
      // A node front-end keeping its reap clock honest; answering also
      // counts as router liveness on the node's side.
      {
        std::lock_guard lock(mu_);
        mark_seen_locked(msg.ping.from, now);
      }
      send_soft(transport_, msg.ping.from,
                encode(make_pong(self_, msg.ping.token)));
      break;
    }
    case MsgType::kPong: {
      std::lock_guard lock(mu_);
      mark_seen_locked(msg.ping.from, now);
      break;
    }
    default:
      break;
  }
}

void RouterCore::mark_seen_locked(std::uint32_t node, TimePoint now) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return;
  it->second.last_seen = now;
  if (!it->second.alive) {
    // Heal: the node answers again. Kick every key still assigned to it
    // by retransmitting — the node's dedup window or the mesh replica
    // answers retried keys it already finished.
    it->second.alive = true;
    ++counters_.heals;
    // Parked keys get their first candidate back.
    table_.for_each([&](std::uint64_t rid, Route& r) {
      if (r.kind != Route::Kind::kJob) return;
      if (r.node == kNoNode) {
        route_locked(rid, r, now);
      } else if (r.node == node) {
        send_soft(transport_, node, table_.rearm(rid, now));
        ++counters_.retries;
      }
    });
  }
}

void RouterCore::handle_done(TimePoint now, JobDoneMsg msg) {
  std::lock_guard lock(mu_);
  Route* r = table_.find(msg.request_id, MsgType::kJobDone);
  if (r == nullptr) return;
  // The reply itself proves its node is alive — but kJobDone carries no
  // sender id (a stolen job answers from the thief), so only the
  // *assigned* node's clock can be refreshed, and only heuristically.
  mark_seen_locked(r->node, now);
  if ((msg.flags & kJobDoneWithdrawn) != 0) {
    // The node's start fence refused this key and sealed it locally.
    // Route around it; the exclusion is what keeps the victim's sealed
    // (withdrawn) dedup entry from answering future retries.
    ++counters_.withdrawals;
    r->excluded.insert(r->node);
    r->node = kNoNode;
    r->started = false;
    route_locked(msg.request_id, *r, now);
    return;
  }
  table_.take(msg.request_id, MsgType::kJobDone);
  Reply& reply = resolved_[msg.request_id];
  reply.error = static_cast<int>(msg.error);
  reply.races = msg.races;
  reply.payload = std::move(msg.payload);
  ++counters_.replies;
  cv_.notify_all();
}

void RouterCore::handle_started(TimePoint now, const JobStartedMsg& msg) {
  std::lock_guard lock(mu_);
  mark_seen_locked(msg.node, now);
  Route* r = table_.find(msg.request_id, MsgType::kJobDone);
  if (r == nullptr) return;
  // A mark from a node this key was routed *away* from (it withdrew or
  // was reaped while unstarted) is stale and must not pin the key there.
  // A mark from any other node is adopted as the assignment: stealing
  // legitimately moves a key to a thief the router never picked, and the
  // mark is precisely the thief announcing "the body runs here".
  if (r->excluded.count(msg.node) != 0) return;
  if (r->node != msg.node) {
    if (r->node != kNoNode && r->started) return;  // first mark wins
    r->node = msg.node;
  }
  r->started = true;
  ++counters_.started_marks;
}

void RouterCore::handle_stats_reply(TimePoint now, StatsReplyMsg msg) {
  std::lock_guard lock(mu_);
  std::optional<Route> r = table_.take(msg.request_id, MsgType::kStatsReply);
  if (!r) return;
  mark_seen_locked(r->node, now);
  if (r->kind == Route::Kind::kPoll) {
    auto node = nodes_.find(r->node);
    if (node != nodes_.end()) node->second.health = parse_health(msg.text);
    return;
  }
  resolved_[msg.request_id].payload.assign(msg.text.begin(), msg.text.end());
  cv_.notify_all();
}

void RouterCore::on_tick(TimePoint now) {
  std::lock_guard lock(mu_);

  // Health polls — the router's heartbeat toward every node. An
  // unanswered poll expires after 1 s, so none accumulate while a node is
  // down.
  for (auto& [n, s] : nodes_) {
    if (s.last_poll && now - *s.last_poll < opts_.health_interval) continue;
    s.last_poll = now;
    query_locked(n, Route::Kind::kPoll, /*rejuvenate=*/false,
                 std::chrono::seconds{1}, now);
  }

  // Reaps: silence past the window kills the node's routing slot and
  // frees its unstarted keys. Started keys stay — the mark means the
  // body may be running, and a second execution is the one thing the
  // mesh must never risk; their deadlines bound the wait.
  for (auto& [n, s] : nodes_) {
    if (!s.last_seen) s.last_seen = now;  // a full silence budget to start
    if (!s.alive || now - *s.last_seen <= opts_.reap_after) continue;
    s.alive = false;
    ++counters_.reaps;
    table_.for_each([&](std::uint64_t rid, Route& r) {
      if (r.kind != Route::Kind::kJob || r.node != n || r.started) return;
      r.excluded.insert(n);
      route_locked(rid, r, now);
    });
  }

  // Deadlines and retransmissions. A parked key, and a started key pinned
  // to a reaped node, wait for the heal, which retransmits them itself.
  auto due = table_.tick(now);
  for (auto& [rid, r] : due.expired) expire_locked(rid, r);
  for (auto& [rid, frame] : due.resend) {
    const Route* r = table_.find(rid, MsgType::kJobDone);
    if (r == nullptr || r->node == kNoNode) continue;
    const auto node = nodes_.find(r->node);
    if (node != nodes_.end() && !node->second.alive) continue;
    ++counters_.retries;
    send_soft(transport_, r->node, std::move(frame));
  }
}

}  // namespace cluster::mesh
