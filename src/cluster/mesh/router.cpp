#include "cluster/mesh/router.hpp"

#include <algorithm>
#include <utility>

#include "anahy/types.hpp"
#include "cluster/mesh/hash.hpp"

namespace cluster::mesh {

MeshRouter::MeshRouter(Transport& transport, MeshRouterOptions opts)
    : transport_(transport), opts_(std::move(opts)),
      self_(static_cast<std::uint32_t>(transport.node_id())) {
  const auto now = Clock::now();
  for (std::uint32_t n : opts_.nodes) {
    NodeState s;
    s.alive = true;
    // A node starts with a full silence budget; the first health poll
    // goes out on the first service pass.
    s.last_seen = now;
    s.last_poll = now - opts_.health_interval;
    nodes_.emplace(n, s);
  }
  pump_ = std::thread([this] { pump(); });
}

MeshRouter::~MeshRouter() { stop(); }

void MeshRouter::stop() {
  if (stop_.exchange(true)) return;
  if (pump_.joinable()) pump_.join();
  // Resolve every outstanding handle: wait() must never hang on a router
  // that has been stopped under it.
  std::lock_guard lock(mu_);
  for (auto& [rid, p] : pending_) {
    if (p.done) continue;
    p.done = true;
    p.reply.error = anahy::kUnreachable;
    unreachable_.fetch_add(1, std::memory_order_relaxed);
  }
  for (auto& [rid, w] : stats_waiters_) w.done = true;
  cv_.notify_all();
}

RouterCounters MeshRouter::counters() const {
  RouterCounters c;
  c.submitted = submitted_.load(std::memory_order_relaxed);
  c.replies = replies_.load(std::memory_order_relaxed);
  c.reroutes = reroutes_.load(std::memory_order_relaxed);
  c.reaps = reaps_.load(std::memory_order_relaxed);
  c.heals = heals_.load(std::memory_order_relaxed);
  c.withdrawals = withdrawals_.load(std::memory_order_relaxed);
  c.started_marks = started_marks_.load(std::memory_order_relaxed);
  c.retries = retries_.load(std::memory_order_relaxed);
  c.unreachable = unreachable_.load(std::memory_order_relaxed);
  return c;
}

std::vector<std::uint32_t> MeshRouter::live_nodes() const {
  std::vector<std::uint32_t> out;
  std::lock_guard lock(mu_);
  for (const auto& [n, s] : nodes_)
    if (s.alive) out.push_back(n);
  return out;
}

NodeHealth MeshRouter::health(std::uint32_t node_rank) const {
  std::lock_guard lock(mu_);
  auto it = nodes_.find(node_rank);
  return it == nodes_.end() ? NodeHealth{} : it->second.health;
}

void MeshRouter::send_soft(std::uint32_t dst,
                           const std::vector<std::uint8_t>& frame) {
  try {
    transport_.send(static_cast<int>(dst), frame);
  } catch (...) {
  }
}

// -------------------------------------------------------------- submit --

std::uint32_t MeshRouter::pick_locked(std::uint64_t key, std::uint8_t cls,
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

void MeshRouter::route_locked(std::uint64_t rid, Pending& p,
                              Clock::time_point now) {
  const std::uint32_t node = pick_locked(p.key, p.cls, p.excluded);
  if (node == kNoNode) {
    // Every candidate dead or excluded: park. service() re-runs this on
    // each pass, so the key moves the moment a node heals; the deadline
    // bounds the parking.
    p.node = kNoNode;
    return;
  }
  if (p.node != kNoNode && p.node != node)
    reroutes_.fetch_add(1, std::memory_order_relaxed);
  p.node = node;
  p.started = false;
  p.backoff = opts_.retry_backoff;
  p.next_retry = now + p.backoff;
  send_soft(node, p.frame);
  (void)rid;
}

std::uint64_t MeshRouter::submit(const std::string& function,
                                 std::vector<std::uint8_t> payload,
                                 RouterSubmitOptions o) {
  const auto now = Clock::now();
  std::lock_guard lock(mu_);
  const std::uint64_t rid = ++next_rid_;
  Pending p;
  p.key = o.key != 0 ? o.key : splitmix64(rid);
  p.cls = o.priority;
  p.deadline = now + (o.deadline.count() > 0 ? o.deadline
                                             : opts_.default_deadline);
  p.frame = encode(make_job_submit(self_, rid, o.priority, o.timeout_ns,
                                   o.check ? 1 : 0, function,
                                   std::move(payload)));
  submitted_.fetch_add(1, std::memory_order_relaxed);
  auto [it, fresh] = pending_.emplace(rid, std::move(p));
  route_locked(rid, it->second, now);
  return rid;
}

MeshRouter::Reply MeshRouter::wait(std::uint64_t id) {
  std::unique_lock lock(mu_);
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    Reply r;
    r.error = anahy::kInvalid;  // unknown or already waited
    return r;
  }
  cv_.wait(lock, [&] { return it->second.done; });
  Reply r = std::move(it->second.reply);
  pending_.erase(it);
  return r;
}

bool MeshRouter::done(std::uint64_t id) {
  std::lock_guard lock(mu_);
  auto it = pending_.find(id);
  return it == pending_.end() || it->second.done;
}

// ------------------------------------------------------------- control --

std::string MeshRouter::control_call(std::uint32_t node_rank, bool rejuvenate,
                                     std::chrono::microseconds timeout) {
  std::uint64_t rid = 0;
  {
    std::lock_guard lock(mu_);
    rid = ++next_rid_;
    StatsWaiter w;
    w.node = node_rank;
    w.health_poll = false;
    w.issued = Clock::now();
    stats_waiters_.emplace(rid, std::move(w));
  }
  const Message m = rejuvenate
                        ? make_rejuvenate(self_, rid, kRejuvTargetSelf)
                        : make_stats_query(self_, rid);
  send_soft(node_rank, encode(m));
  std::unique_lock lock(mu_);
  auto it = stats_waiters_.find(rid);
  cv_.wait_for(lock, timeout, [&] { return it->second.done; });
  std::string text = std::move(it->second.text);
  stats_waiters_.erase(it);
  return text;
}

std::string MeshRouter::rejuvenate(std::uint32_t node_rank,
                                   std::chrono::microseconds timeout) {
  return control_call(node_rank, /*rejuvenate=*/true, timeout);
}

std::string MeshRouter::stats_text(std::uint32_t node_rank,
                                   std::chrono::microseconds timeout) {
  return control_call(node_rank, /*rejuvenate=*/false, timeout);
}

// ---------------------------------------------------------------- pump --

void MeshRouter::pump() {
  std::vector<std::uint8_t> frame;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (transport_.recv(frame, std::chrono::microseconds{1000})) {
      DecodeResult d = decode_frame(frame);
      if (d.ok) {
        switch (d.msg.type) {
          case MsgType::kJobDone:
            handle_done(d.msg.job_done);
            break;
          case MsgType::kJobStarted:
            handle_started(d.msg.job_started);
            break;
          case MsgType::kStatsReply:
            handle_stats_reply(std::move(d.msg.stats_reply));
            break;
          case MsgType::kPing: {
            // A node front-end keeping its reap clock honest; answering
            // also counts as router liveness on the node's side.
            const auto pong = encode(make_pong(self_, d.msg.ping.token));
            {
              std::lock_guard lock(mu_);
              mark_seen_locked(d.msg.ping.from, Clock::now());
            }
            send_soft(d.msg.ping.from, pong);
            break;
          }
          case MsgType::kPong: {
            std::lock_guard lock(mu_);
            mark_seen_locked(d.msg.ping.from, Clock::now());
            break;
          }
          default:
            break;
        }
      }
    }
    service(Clock::now());
  }
}

void MeshRouter::mark_seen_locked(std::uint32_t node, Clock::time_point now) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return;
  it->second.last_seen = now;
  if (!it->second.alive) {
    // Heal: the node answers again. Kick every key still assigned to it
    // by retransmitting — the node's dedup window or the mesh replica
    // answers retried keys it already finished.
    it->second.alive = true;
    heals_.fetch_add(1, std::memory_order_relaxed);
    for (auto& [rid, p] : pending_) {
      if (p.done || p.node != node) continue;
      send_soft(node, p.frame);
      retries_.fetch_add(1, std::memory_order_relaxed);
      p.next_retry = now + p.backoff;
    }
  }
}

void MeshRouter::handle_done(const JobDoneMsg& msg) {
  std::lock_guard lock(mu_);
  auto it = pending_.find(msg.request_id);
  if (it == pending_.end() || it->second.done) return;
  Pending& p = it->second;
  // The reply itself proves its node is alive — but kJobDone carries no
  // sender id (a stolen job answers from the thief), so only the
  // *assigned* node's clock can be refreshed, and only heuristically.
  mark_seen_locked(p.node, Clock::now());
  if ((msg.flags & kJobDoneWithdrawn) != 0) {
    // The node's start fence refused this key and sealed it locally.
    // Route around it; the exclusion is what keeps the victim's sealed
    // (withdrawn) dedup entry from answering future retries.
    withdrawals_.fetch_add(1, std::memory_order_relaxed);
    p.excluded.insert(p.node);
    p.node = kNoNode;
    p.started = false;
    route_locked(msg.request_id, p, Clock::now());
    return;
  }
  p.done = true;
  p.reply.error = static_cast<int>(msg.error);
  p.reply.races = msg.races;
  p.reply.payload = msg.payload;
  replies_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_all();
}

void MeshRouter::handle_started(const JobStartedMsg& msg) {
  std::lock_guard lock(mu_);
  mark_seen_locked(msg.node, Clock::now());
  auto it = pending_.find(msg.request_id);
  if (it == pending_.end() || it->second.done) return;
  Pending& p = it->second;
  // A mark from a node this key was routed *away* from (it withdrew or
  // was reaped while unstarted) is stale and must not pin the key there.
  // A mark from any other node is adopted as the assignment: stealing
  // legitimately moves a key to a thief the router never picked, and the
  // mark is precisely the thief announcing "the body runs here".
  if (p.excluded.count(msg.node) != 0) return;
  if (p.node != msg.node) {
    if (p.node != kNoNode && p.started) return;  // first mark wins
    p.node = msg.node;
  }
  p.started = true;
  started_marks_.fetch_add(1, std::memory_order_relaxed);
}

void MeshRouter::handle_stats_reply(StatsReplyMsg msg) {
  std::lock_guard lock(mu_);
  auto it = stats_waiters_.find(msg.request_id);
  if (it == stats_waiters_.end()) return;
  StatsWaiter& w = it->second;
  mark_seen_locked(w.node, Clock::now());
  if (w.health_poll) {
    auto node = nodes_.find(w.node);
    if (node != nodes_.end()) node->second.health = parse_health(msg.text);
    stats_waiters_.erase(it);
    return;
  }
  w.text = std::move(msg.text);
  w.done = true;
  cv_.notify_all();
}

void MeshRouter::service(Clock::time_point now) {
  std::lock_guard lock(mu_);

  // Health polls — the router's heartbeat toward every node.
  for (auto& [n, s] : nodes_) {
    if (now - s.last_poll < opts_.health_interval) continue;
    s.last_poll = now;
    const std::uint64_t rid = ++next_rid_;
    StatsWaiter w;
    w.node = n;
    w.health_poll = true;
    w.issued = now;
    stats_waiters_.emplace(rid, std::move(w));
    send_soft(n, encode(make_stats_query(self_, rid)));
  }
  // Unanswered health polls must not accumulate while a node is down.
  for (auto it = stats_waiters_.begin(); it != stats_waiters_.end();) {
    if (it->second.health_poll &&
        now - it->second.issued > std::chrono::seconds{1})
      it = stats_waiters_.erase(it);
    else
      ++it;
  }

  // Reaps: silence past the window kills the node's routing slot and
  // frees its unstarted keys. Started keys stay — the mark means the
  // body may be running, and a second execution is the one thing the
  // mesh must never risk; their deadlines bound the wait.
  for (auto& [n, s] : nodes_) {
    if (!s.alive || now - s.last_seen <= opts_.reap_after) continue;
    s.alive = false;
    reaps_.fetch_add(1, std::memory_order_relaxed);
    for (auto& [rid, p] : pending_) {
      if (p.done || p.node != n || p.started) continue;
      p.excluded.insert(n);
      route_locked(rid, p, now);
    }
  }

  // Per-key timers: deadlines, retransmissions, parked keys.
  bool resolved = false;
  for (auto& [rid, p] : pending_) {
    if (p.done) continue;
    if (now >= p.deadline) {
      p.done = true;
      p.reply.error = anahy::kUnreachable;
      p.reply.payload.clear();
      unreachable_.fetch_add(1, std::memory_order_relaxed);
      resolved = true;
      continue;
    }
    if (p.node == kNoNode) {
      route_locked(rid, p, now);  // parked: try again now
      continue;
    }
    if (now >= p.next_retry) {
      p.backoff = std::min(p.backoff * 2, opts_.retry_backoff * 8);
      p.next_retry = now + p.backoff;
      retries_.fetch_add(1, std::memory_order_relaxed);
      send_soft(p.node, p.frame);
    }
  }
  if (resolved) cv_.notify_all();
}

}  // namespace cluster::mesh
