// jobbench: one seeded end-to-end benchmark of the Anahy job service.
//
//   jobbench --workload W --seed S --seconds T --trace 0|1
//
// perfbench/run.py builds and runs it. The last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer breakdown with --trace 1
// (names and units as in BENCHMARK.json). The seed is the only source of
// randomness in the inputs; the service sees only the generated jobs.
//
// Each workload is the job service under load; they differ in which layers
// a request crosses. Their shapes are the repository's own benchmark and
// paper parameters, so a figure here can be read against them:
//
//   fork_fib    In-process JobServer at 2 VPs and one closed-loop client;
//               every job is a fib(n) fork/join tree, n drawn from 15..19,
//               the paper's Fibonacci tables (bench/table11, table13) but
//               for their n = 20: with five equally likely sizes the median
//               and the 90th percentile fall inside one size each, not on
//               the step between two. Prices the executive kernel, the task
//               pool and job dispatch. No transport.
//   wire_async  bench/serve_wire_throughput's epoll_async leg at its
//               defaults: JobServer (4 VPs) + ServeFrontEnd on the batched
//               epoll TCP transport, 8 AsyncServeClients each keeping 32
//               requests in flight, 32-byte payloads, 5 us spin bodies and
//               the 1/6 high, 2/6 normal, 3/6 batch class mix. Payload
//               bytes and classes are seeded; every reply is checked byte
//               for byte.
//   mesh_skew   bench/ext_cluster_scaling's skewed leg, repeated: a
//               MeshRouter over 3 one-VP MeshNodes on the in-memory fabric
//               takes bursts of 48 batch jobs that share one shard key, so
//               rendezvous hashing pins each burst to one node and only
//               job stealing spreads it. Bodies sleep 1500 us. Each burst
//               gets a fresh seeded key, so the hot node moves.
//   aging_soak  bench/aging_soak's clean soak leg, resident: one
//               closed-loop client and a 2-VP JobServer serving fork/join
//               DAG jobs of 2..4 leaves, all joined, with an aging sample
//               recorded after every other job. Where that bench's leaves
//               are empty, each leaf here is a fib(13) fork/join tree, the
//               served-fib work its accounting-overhead phase runs, so a
//               job lasts about a millisecond and the scheduler's wake-up
//               latency on a shared host does not set its pace. The run
//               ends with the ANAHY-A001..A006 pass, which must report
//               neither heap growth (A001) nor a pool-class leak (A004),
//               and that bench's 400-job leaky control leg, on which both
//               must fire.
//
// Set-up (building the service and its clients, plus a fixed warm-up) is
// repeated kSetups times and its median reported; the last instance is
// measured.
//
// Per-layer breakdown (--trace 1). Spans are taken here, around the calls
// into each layer, and from the counters each layer already exports:
//   stage_submit_us   the client's submit call
//   stage_queue_us    server admission -> job start (JobServer stats)
//   stage_exec_us     job start -> completion (JobServer stats)
//   stage_transit_us  the rest of the latency: transport, decode, reply,
//                     completion wake-up
// plus kernel, pool, wire, mesh and aging counters over the measured phase.
// Layers a workload does not cross read 0.
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "anahy/aging/analyze.hpp"
#include "anahy/serve/job_server.hpp"
#include "anahy/task_pool.hpp"
#include "apps/fib_app.hpp"
#include "cluster/epoll_transport.hpp"
#include "cluster/mesh/mesh_node.hpp"
#include "cluster/mesh/router.hpp"
#include "cluster/serve_frontend.hpp"
#include "cluster/transport.hpp"

namespace {

using anahy::serve::JobServer;

constexpr int kSetups = 21;
constexpr std::int64_t kSliceNs = 1'000'000'000;
constexpr std::size_t kMinSliceOps = 100;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "jobbench: %s\n", what);
  std::exit(1);
}

/// splitmix64: every input of every workload derives from the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t s_;
};

/// FNV-1a: the digest wire and mesh replies are checked against.
std::uint64_t fnv1a(std::span<const std::uint8_t> b) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const std::uint8_t c : b) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// fib(n) for the n the workloads use, so clients check results without
/// recomputing them.
long fib(long n) {
  static const std::array<long, 21> table = [] {
    std::array<long, 21> t{};
    for (std::size_t i = 1; i < t.size(); ++i)
      t[i] = i < 2 ? 1 : t[i - 1] + t[i - 2];
    return t;
  }();
  return table.at(static_cast<std::size_t>(n));
}

/// Appends `v` little-endian.
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// `n` seeded bytes.
std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> b(n);
  for (std::uint8_t& c : b) c = static_cast<std::uint8_t>(rng.next());
  return b;
}

/// What one measured phase produced.
struct Run {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One entry per successful operation: when it completed, and its
  /// latency in milliseconds.
  std::vector<std::pair<std::int64_t, double>> latency;
  std::int64_t submit_ns = 0;  ///< summed; --trace 1 only
  /// Workload-specific layer readings (wire, mesh, client, aging), by
  /// metric name.
  std::map<std::string, double> layer;

  void record(std::int64_t start_ns, std::int64_t done_ns) {
    latency.emplace_back(done_ns,
                         static_cast<double>(done_ns - start_ns) / 1e6);
  }

  void merge(const Run& o) {
    correct = correct && o.correct;
    attempted += o.attempted;
    failed += o.failed;
    latency.insert(latency.end(), o.latency.begin(), o.latency.end());
    submit_ns += o.submit_ns;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// The servers whose kernel, pool and serve layers are read.
  [[nodiscard]] virtual std::vector<JobServer*> servers() = 0;
  /// Untimed preparation of the measured instance, after set-up.
  virtual void settle() {}
  /// Runs operations until `end_ns`, then lets outstanding ones finish.
  virtual void measure(std::int64_t end_ns, bool trace, Run& run) = 0;
  /// Checks on the service's own outputs after the measured phase.
  virtual void verify(Run& /*run*/) {}
};

/// Submits one in-process job and waits for it; the body's result must be
/// `expect`.
void serve_one(JobServer& server, anahy::serve::JobSpec spec, long expect,
               bool trace, Run& run) {
  ++run.attempted;
  const std::int64_t t0 = now_ns();
  anahy::serve::JobHandle h = server.submit(std::move(spec));
  if (trace) run.submit_ns += now_ns() - t0;
  const int err = h.wait();
  const std::int64_t t1 = now_ns();
  if (err != anahy::kOk) {
    ++run.failed;
    return;
  }
  if (reinterpret_cast<long>(h.result().value) != expect) {
    ++run.failed;
    run.correct = false;
    return;
  }
  run.record(t0, t1);
}

// ---------------------------------------------------------------- fork_fib

class ForkFib final : public Workload {
 public:
  explicit ForkFib(std::uint64_t seed) : rng_(seed) {
    anahy::serve::ServerOptions so;
    so.runtime.num_vps = 2;
    server_ = std::make_unique<JobServer>(std::move(so));
    Run warm;
    for (int i = 0; i < 10; ++i) one(kMinN, warm, false);
    if (warm.failed != 0) die("fork_fib warm-up failed");
  }

  std::vector<JobServer*> servers() override { return {server_.get()}; }

  void measure(std::int64_t end_ns, bool trace, Run& run) override {
    while (now_ns() < end_ns) one(rng_.range(kMinN, kMaxN), run, trace);
  }

 private:
  static constexpr long kMinN = 15;
  static constexpr long kMaxN = 19;

  void one(long n, Run& run, bool trace) {
    anahy::serve::JobSpec spec;
    JobServer* server = server_.get();
    spec.body = [server, n](void*) -> void* {
      return reinterpret_cast<void*>(apps::fib_anahy(server->runtime(), n));
    };
    serve_one(*server_, std::move(spec), fib(n), trace, run);
  }

  Rng rng_;
  std::unique_ptr<JobServer> server_;
};

// -------------------------------------------------------------- wire_async

/// The wire reply: the payload's digest followed by the payload reversed,
/// so both directions carry real bytes.
std::vector<std::uint8_t> digest_reply(std::span<const std::uint8_t> in) {
  std::vector<std::uint8_t> out;
  out.reserve(8 + in.size());
  put_u64(out, fnv1a(in));
  out.insert(out.end(), in.rbegin(), in.rend());
  return out;
}

/// The served wire function: spins 5 us, as serve_wire_throughput's
/// spin_echo does, then answers digest_reply.
std::vector<std::uint8_t> digest_body(std::span<const std::uint8_t> in) {
  const std::int64_t until = now_ns() + 5'000;
  while (now_ns() < until) {
  }
  return digest_reply(in);
}

class WireAsync final : public Workload {
 public:
  using Reply = cluster::AsyncServeClient::Reply;

  explicit WireAsync(std::uint64_t seed) {
    fabric_ = cluster::make_epoll_fabric(1 + kClients);
    registry_.add("digest", digest_body);
    anahy::serve::ServerOptions so;
    so.runtime.num_vps = 4;
    server_ = std::make_unique<JobServer>(std::move(so));
    frontend_ = std::make_unique<cluster::ServeFrontEnd>(*server_, *fabric_[0],
                                                         registry_);
    // serve_wire_throughput's call options: queueing under a full window
    // outlasts the default first-retry backoff, and a retransmit of a job
    // that is merely queued would only add load.
    copts_.deadline = std::chrono::microseconds{30'000'000};
    copts_.initial_backoff = std::chrono::microseconds{2'000'000};
    copts_.max_backoff = std::chrono::microseconds{4'000'000};
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<cluster::AsyncServeClient>(
          *fabric_[static_cast<std::size_t>(c + 1)], 0, seed + c));
      rngs_.emplace_back(seed * 0x100 + static_cast<std::uint64_t>(c));
      for (int i = 0; i < 4; ++i) {
        std::vector<std::uint8_t> payload = random_bytes(rngs_.back(), kBytes);
        const std::vector<std::uint8_t> expect = digest_reply(payload);
        const Reply r =
            clients_.back()->call("digest", std::move(payload), copts_);
        if (r.error != anahy::kOk || r.payload != expect)
          die("wire_async warm-up failed");
      }
    }
  }

  std::vector<JobServer*> servers() override { return {server_.get()}; }

  void measure(std::int64_t end_ns, bool trace, Run& run) override {
    const cluster::WireCounters w0 = wire_totals();
    const std::uint64_t r0 = retries();
    std::vector<Run> per(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([this, c, end_ns, trace, &per] {
        drive(c, end_ns, trace, per[static_cast<std::size_t>(c)]);
      });
    for (std::thread& t : threads) t.join();
    for (const Run& p : per) run.merge(p);
    const cluster::WireCounters w1 = wire_totals();
    const auto writevs = static_cast<double>(w1.writev_calls - w0.writev_calls);
    run.layer["wire_frames_per_writev"] =
        writevs > 0 ? static_cast<double>(w1.tx_frames - w0.tx_frames) / writevs
                    : 0;
    run.layer["client_retries"] = static_cast<double>(retries() - r0);
  }

 private:
  static constexpr int kClients = 8;
  static constexpr std::size_t kWindow = 32;
  static constexpr std::size_t kBytes = 32;

  /// One in-flight request of a client's window.
  struct Slot {
    std::future<Reply> reply;
    std::vector<std::uint8_t> expect;
    std::int64_t t0 = 0;
    /// Written by the completion callback on the client's pump thread; the
    /// future's resolution, which follows it, publishes it to the reader.
    std::int64_t done_ns = 0;
  };

  /// serve_sustained_load's saturation mix: 1/6 high, 2/6 normal, 3/6
  /// batch.
  static anahy::Priority draw_class(Rng& rng) {
    const std::int64_t r = rng.range(0, 5);
    if (r == 0) return anahy::Priority::kHigh;
    return r <= 2 ? anahy::Priority::kNormal : anahy::Priority::kBatch;
  }

  /// Closed loop: keep kWindow requests in flight until `end_ns`, reaping
  /// them in submission order, then drain.
  void drive(int c, std::int64_t end_ns, bool trace, Run& run) {
    cluster::AsyncServeClient& client = *clients_[static_cast<std::size_t>(c)];
    Rng& rng = rngs_[static_cast<std::size_t>(c)];
    std::vector<Slot> slots(kWindow);
    const auto submit = [&](Slot& s) {
      std::vector<std::uint8_t> payload = random_bytes(rng, kBytes);
      const anahy::Priority cls = draw_class(rng);
      s.expect = digest_reply(payload);
      s.done_ns = 0;
      ++run.attempted;
      std::int64_t* done = &s.done_ns;
      s.t0 = now_ns();
      s.reply = client.submit_async("digest", std::move(payload), copts_, cls,
                                    -1, false,
                                    [done](const Reply&) { *done = now_ns(); });
      if (trace) run.submit_ns += now_ns() - s.t0;
    };
    for (Slot& s : slots) submit(s);
    std::size_t live = slots.size();
    for (std::size_t i = 0; live > 0; i = (i + 1) % slots.size()) {
      Slot& s = slots[i];
      if (!s.reply.valid()) continue;
      const Reply r = s.reply.get();
      if (r.error != anahy::kOk) {
        ++run.failed;
      } else if (r.payload != s.expect) {
        ++run.failed;
        run.correct = false;
      } else {
        run.record(s.t0, s.done_ns);
      }
      if (now_ns() < end_ns)
        submit(s);
      else
        --live;
    }
  }

  cluster::WireCounters wire_totals() const {
    cluster::WireCounters sum;
    for (const auto& t : fabric_) {
      const auto* src = dynamic_cast<const cluster::WireStatsSource*>(t.get());
      if (src == nullptr) continue;
      const cluster::WireCounters w = src->wire_counters();
      sum.writev_calls += w.writev_calls;
      sum.tx_frames += w.tx_frames;
    }
    return sum;
  }

  std::uint64_t retries() const {
    std::uint64_t n = 0;
    for (const auto& c : clients_) n += c->retries();
    return n;
  }

  // Declaration order is teardown order reversed: clients stop before the
  // front-end, the front-end before the server, all before the fabric.
  std::vector<std::unique_ptr<cluster::Transport>> fabric_;
  cluster::Registry registry_;
  std::unique_ptr<JobServer> server_;
  std::unique_ptr<cluster::ServeFrontEnd> frontend_;
  std::vector<std::unique_ptr<cluster::AsyncServeClient>> clients_;
  std::vector<Rng> rngs_;
  cluster::CallOptions copts_;
};

// --------------------------------------------------------------- mesh_skew

/// The mesh job body: sleeps 1500 us, as ext_cluster_scaling's does (a
/// body waiting on I/O, not burning a core), then answers the payload's
/// digest.
std::vector<std::uint8_t> nap_body(std::span<const std::uint8_t> in) {
  std::this_thread::sleep_for(std::chrono::microseconds(1500));
  std::vector<std::uint8_t> out;
  put_u64(out, fnv1a(in));
  return out;
}

class MeshSkew final : public Workload {
 public:
  explicit MeshSkew(std::uint64_t seed) : rng_(seed) {
    fabric_ = cluster::make_memory_fabric(kNodes + 1);
    registry_.add("nap", nap_body);
    for (int i = 0; i < kNodes; ++i) {
      cluster::mesh::MeshNodeOptions o;
      o.self = static_cast<std::uint32_t>(i);
      for (int p = 0; p < kNodes; ++p)
        if (p != i) o.peers.push_back(static_cast<std::uint32_t>(p));
      o.routers = {static_cast<std::uint32_t>(kNodes)};
      o.server.runtime.num_vps = 1;
      // ext_cluster_scaling's steal settings: with sleeping bodies a thief
      // should take work whenever the victim has any backlog.
      o.steal_wait_budget_ns = 1'000'000;
      o.steal_min_backlog = 2;
      nodes_.push_back(std::make_unique<cluster::mesh::MeshNode>(
          *fabric_[static_cast<std::size_t>(i)], registry_, o));
    }
    cluster::mesh::MeshRouterOptions ro;
    for (int i = 0; i < kNodes; ++i)
      ro.nodes.push_back(static_cast<std::uint32_t>(i));
    ro.default_deadline = std::chrono::microseconds{30'000'000};
    router_ = std::make_unique<cluster::mesh::MeshRouter>(
        *fabric_[static_cast<std::size_t>(kNodes)], ro);
    for (int i = 0; i < 2 * kNodes; ++i) {
      std::vector<std::uint8_t> payload = random_bytes(rng_, kBytes);
      const std::uint64_t want = fnv1a(payload);
      const auto r = router_->wait(router_->submit("nap", std::move(payload)));
      if (r.error != anahy::kOk || r.payload != digest_bytes(want))
        die("mesh_skew warm-up failed");
    }
  }

  ~MeshSkew() override {
    for (auto& n : nodes_) n->stop();
    router_->stop();
  }
  MeshSkew(const MeshSkew&) = delete;
  MeshSkew& operator=(const MeshSkew&) = delete;

  std::vector<JobServer*> servers() override {
    std::vector<JobServer*> out;
    for (auto& n : nodes_) out.push_back(&n->server());
    return out;
  }

  /// Bursts back to back: submit kBurst same-key jobs, then watch them
  /// resolve; the next burst starts when the last one has.
  void measure(std::int64_t end_ns, bool trace, Run& run) override {
    // The resolution poll below is this thread's only sleep; without the
    // default 50 us timer slack it wakes within a few us of its period.
    prctl(PR_SET_TIMERSLACK, 1000UL);
    const cluster::mesh::RouterCounters r0 = router_->counters();
    const cluster::mesh::MeshNodeCounters n0 = node_totals();
    struct Job {
      std::uint64_t id;
      std::int64_t t0;
      std::vector<std::uint8_t> expect;
    };
    std::vector<Job> burst;
    while (now_ns() < end_ns) {
      cluster::mesh::RouterSubmitOptions o;
      o.key = rng_.next() | 1;  // 0 would mean "derive from the request id"
      o.priority = static_cast<std::uint8_t>(anahy::Priority::kBatch);
      for (int i = 0; i < kBurst; ++i) {
        std::vector<std::uint8_t> payload = random_bytes(rng_, kBytes);
        std::vector<std::uint8_t> expect = digest_bytes(fnv1a(payload));
        ++run.attempted;
        const std::int64_t t0 = now_ns();
        const std::uint64_t id = router_->submit("nap", std::move(payload), o);
        if (trace) run.submit_ns += now_ns() - t0;
        burst.push_back({id, t0, std::move(expect)});
      }
      // Timestamp each resolution as it happens, not in submission order:
      // stolen jobs finish before older ones left at home.
      while (!burst.empty()) {
        for (std::size_t i = 0; i < burst.size();) {
          if (!router_->done(burst[i].id)) {
            ++i;
            continue;
          }
          const std::int64_t t = now_ns();
          const auto r = router_->wait(burst[i].id);
          if (r.error != anahy::kOk) {
            ++run.failed;
          } else if (r.payload != burst[i].expect) {
            ++run.failed;
            run.correct = false;
          } else {
            run.record(burst[i].t0, t);
          }
          burst[i] = std::move(burst.back());
          burst.pop_back();
        }
        if (!burst.empty())
          std::this_thread::sleep_for(std::chrono::microseconds(kPollUs));
      }
    }
    const cluster::mesh::RouterCounters r1 = router_->counters();
    const cluster::mesh::MeshNodeCounters n1 = node_totals();
    run.layer["client_retries"] = static_cast<double>(r1.retries - r0.retries);
    run.layer["mesh_reroutes"] = static_cast<double>(r1.reroutes - r0.reroutes);
    run.layer["mesh_steal_grants"] =
        static_cast<double>(n1.steal_grants - n0.steal_grants);
    run.layer["mesh_jobs_migrated"] =
        static_cast<double>(n1.jobs_exported - n0.jobs_exported);
    run.layer["mesh_gossip_entries"] =
        static_cast<double>(n1.gossip_tx - n0.gossip_tx);
  }

 private:
  static constexpr int kNodes = 3;
  static constexpr int kBurst = 48;
  static constexpr std::size_t kBytes = 16;
  static constexpr int kPollUs = 20;

  static std::vector<std::uint8_t> digest_bytes(std::uint64_t digest) {
    std::vector<std::uint8_t> out;
    put_u64(out, digest);
    return out;
  }

  cluster::mesh::MeshNodeCounters node_totals() const {
    cluster::mesh::MeshNodeCounters sum;
    for (const auto& n : nodes_) {
      const cluster::mesh::MeshNodeCounters c = n->counters();
      sum.steal_grants += c.steal_grants;
      sum.jobs_exported += c.jobs_exported;
      sum.gossip_tx += c.gossip_tx;
    }
    return sum;
  }

  Rng rng_;
  std::vector<std::unique_ptr<cluster::Transport>> fabric_;
  cluster::Registry registry_;
  std::vector<std::unique_ptr<cluster::mesh::MeshNode>> nodes_;
  std::unique_ptr<cluster::mesh::MeshRouter> router_;
};

// -------------------------------------------------------------- aging_soak

bool has_code(const anahy::aging::Analysis& a, const char* code) {
  for (const auto& f : a.findings)
    if (f.code == code) return true;
  return false;
}

anahy::aging::AnalyzeOptions analyze_options() {
  anahy::aging::AnalyzeOptions ao;
  // As in bench/aging_soak: a scheduler stall between two live samples on
  // a shared host is not a dropped sample; keep A005 for real gaps.
  ao.gap_min_ns = 500'000'000;
  return ao;
}

class AgingSoak final : public Workload {
 public:
  explicit AgingSoak(std::uint64_t seed) : rng_(seed) {
    server_ = make_server(512);
    Run warm;
    for (int i = 0; i < 20; ++i) one(*server_, warm, false, false);
    if (warm.failed != 0) die("aging_soak warm-up failed");
  }

  std::vector<JobServer*> servers() override { return {server_.get()}; }

  /// Warms the per-thread free caches to their plateau, as bench/aging_soak
  /// does before its series starts: a filling cache is arena growth without
  /// live growth, which is what A002 looks for.
  void settle() override {
    std::uint64_t prev_arena = 0;
    int stable = 0;
    Run warm;
    for (int i = 0; i < 600 && stable < 3; ++i) {
      one(*server_, warm, false, false);
      if (i % 10 == 9) {
        const std::uint64_t arena = anahy::pool_snapshot().arena_bytes;
        stable = arena == prev_arena ? stable + 1 : 0;
        prev_arena = arena;
      }
    }
    if (warm.failed != 0) die("aging_soak warm-up failed");
  }

  void measure(std::int64_t end_ns, bool trace, Run& run) override {
    std::int64_t sample_ns = 0;
    std::uint64_t samples = 0;
    for (std::uint64_t i = 0; now_ns() < end_ns; ++i) {
      one(*server_, run, trace, false);
      if (i % 2 == 1) {
        const std::int64_t t0 = now_ns();
        server_->record_aging_sample();
        sample_ns += now_ns() - t0;
        ++samples;
      }
    }
    run.layer["aging_sample_us"] =
        static_cast<double>(sample_ns) /
        static_cast<double>(std::max<std::uint64_t>(samples, 1)) / 1e3;
  }

  void verify(Run& run) override {
    namespace code = anahy::aging::code;
    const std::int64_t t0 = now_ns();
    const anahy::aging::Analysis clean = server_->aging_report(analyze_options());
    run.layer["aging_analyze_ms"] = static_cast<double>(now_ns() - t0) / 1e6;
    run.layer["aging_findings"] = static_cast<double>(clean.findings.size());
    if (has_code(clean, code::kHeapGrowth) ||
        has_code(clean, code::kPoolClassLeak)) {
      std::fprintf(stderr, "jobbench: clean soak reported a leak:\n%s",
                   anahy::aging::format_findings(clean.findings).c_str());
      run.correct = false;
    }
    // Control leg: every job strands one task nobody joins, and the
    // detectors must see it.
    std::unique_ptr<JobServer> leaky = make_server(0);
    Run control;
    for (int i = 0; i < kLeakJobs; ++i) {
      one(*leaky, control, false, true);
      if (i % 2 == 1) leaky->record_aging_sample();
    }
    const anahy::aging::Analysis a = leaky->aging_report(analyze_options());
    if (control.failed != 0 || !has_code(a, code::kHeapGrowth) ||
        !has_code(a, code::kPoolClassLeak)) {
      std::fprintf(stderr, "jobbench: leaky control leg not detected\n");
      run.correct = false;
    }
  }

 private:
  static constexpr int kLeakJobs = 400;
  /// Each leaf is a fib(13) fork/join tree (376 forks): enough pool traffic
  /// per job that fork/join work, not the thread hand-offs of a served
  /// job, sets its latency.
  static constexpr long kLeafN = 13;

  /// `aging_capacity` 0 keeps the whole series, as the control leg needs;
  /// the resident server keeps the default rolling window.
  static std::unique_ptr<JobServer> make_server(std::size_t aging_capacity) {
    anahy::serve::ServerOptions so;
    so.runtime.num_vps = 2;
    so.aging_capacity = aging_capacity;
    return std::make_unique<JobServer>(std::move(so));
  }

  /// One DAG job: 2..4 leaves, all joined (plus, when `leak`, one extra
  /// fork whose join budget is never used).
  void one(JobServer& server, Run& run, bool trace, bool leak) {
    const auto width = static_cast<int>(rng_.range(2, 4));
    anahy::Runtime* rt = &server.runtime();
    anahy::serve::JobSpec spec;
    spec.body = [rt, width, leak](void*) -> void* {
      std::vector<anahy::TaskPtr> kids;
      for (int c = 0; c < width + (leak ? 1 : 0); ++c)
        kids.push_back(rt->fork(
            [rt](void*) -> void* {
              return reinterpret_cast<void*>(apps::fib_anahy(*rt, kLeafN));
            },
            nullptr));
      long sum = 0;
      for (int c = 0; c < width; ++c) {
        void* v = nullptr;
        rt->join(kids[static_cast<std::size_t>(c)], &v);
        sum += reinterpret_cast<long>(v);
      }
      return reinterpret_cast<void*>(sum);
    };
    serve_one(server, std::move(spec), width * fib(kLeafN), trace, run);
  }

  Rng rng_;
  std::unique_ptr<JobServer> server_;
};

// -------------------------------------------------------------------- main

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "fork_fib") return std::make_unique<ForkFib>(seed);
  if (name == "wire_async") return std::make_unique<WireAsync>(seed);
  if (name == "mesh_skew") return std::make_unique<MeshSkew>(seed);
  if (name == "aging_soak") return std::make_unique<AgingSoak>(seed);
  return nullptr;
}

/// Counters of the served layers, summed over a workload's servers.
struct Probe {
  std::uint64_t forks = 0;
  std::uint64_t joins = 0;
  std::uint64_t joins_inlined = 0;
  std::uint64_t steals = 0;
  std::int64_t queue_ns = 0;
  std::int64_t exec_ns = 0;
  std::uint64_t completed = 0;
  std::uint64_t pool_allocs = 0;
  std::uint64_t pool_arena_bytes = 0;
  double cpu_s = 0;
  std::vector<anahy::observe::Snapshot> telemetry;
};

Probe probe(const std::vector<JobServer*>& servers) {
  Probe p;
  for (JobServer* s : servers) {
    const anahy::RuntimeStats::Snapshot k = s->runtime().stats();
    p.forks += k.tasks_created;
    p.joins += k.joins_total;
    p.joins_inlined += k.joins_inlined;
    p.steals += k.steals;
    for (const auto& c : s->stats().by_class) {
      p.queue_ns += c.queue_wait_ns_sum;
      p.exec_ns += c.exec_ns_sum;
      p.completed += c.completed;
    }
    p.telemetry.push_back(s->runtime().observe_snapshot());
  }
  const anahy::PoolSnapshot pool = anahy::pool_snapshot();
  p.pool_allocs = pool.alloc_calls;
  p.pool_arena_bytes = pool.arena_bytes;
  p.cpu_s = cpu_seconds();
  return p;
}

/// Latencies grouped into kSliceNs slices of the run by completion time,
/// each sorted. Slices with fewer than kMinSliceOps samples (the drain at
/// the end) are dropped unless none qualifies.
std::vector<std::vector<double>> slice(
    const std::vector<std::pair<std::int64_t, double>>& latency,
    std::int64_t start_ns) {
  std::map<std::int64_t, std::vector<double>> by_slice;
  for (const auto& [at, ms] : latency)
    by_slice[(at - start_ns) / kSliceNs].push_back(ms);
  std::vector<std::vector<double>> out;
  std::vector<double> all;
  for (auto& [i, v] : by_slice) {
    all.insert(all.end(), v.begin(), v.end());
    if (v.size() >= kMinSliceOps) out.push_back(std::move(v));
  }
  if (out.empty()) out.push_back(std::move(all));
  for (auto& v : out) std::sort(v.begin(), v.end());
  return out;
}

/// Nearest-rank percentile `q` of each slice, then the median over
/// slices: a host stall that ruins one slice moves one value, not the
/// figure.
double sliced_percentile(const std::vector<std::vector<double>>& slices,
                         double q) {
  std::vector<double> per;
  for (const auto& v : slices) {
    if (v.empty()) continue;
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    per.push_back(v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1]);
  }
  if (per.empty()) return 0;
  std::sort(per.begin(), per.end());
  const std::size_t m = per.size() / 2;
  return per.size() % 2 == 1 ? per[m] : (per[m - 1] + per[m]) / 2;
}

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

void print_result(const Run& run, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              run.correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, v, metrics[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::atoi(val);
    } else if (flag == "--trace") {
      trace = std::atoi(val) != 0;
    } else {
      die("unknown flag");
    }
  }
  if (workload.empty() || !have_seed || seconds < 1)
    die("usage: jobbench --workload W --seed S --seconds T --trace 0|1");

  // Set-up, kSetups times; the last instance is measured.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const std::int64_t t0 = now_ns();
    w = make_workload(workload, seed);
    if (w == nullptr) die("unknown workload");
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::sort(setup_s.begin(), setup_s.end());
  w->settle();

  const std::vector<JobServer*> servers = w->servers();
  Run run;
  const Probe p0 = probe(servers);
  const std::int64_t start = now_ns();
  w->measure(start + std::int64_t{seconds} * 1'000'000'000, trace, run);
  const double elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  const Probe p1 = probe(servers);
  w->verify(run);

  const auto ops =
      static_cast<double>(std::max<std::size_t>(run.latency.size(), 1));
  if (run.latency.empty()) run.correct = false;

  std::vector<Metric> metrics;
  if (!trace) {
    const std::vector<std::vector<double>> slices = slice(run.latency, start);
    metrics = {
        {"latency_p50_ms", "ms", sliced_percentile(slices, 0.50)},
        {"latency_p90_ms", "ms", sliced_percentile(slices, 0.90)},
        {"throughput_ops_s", "1/s",
         static_cast<double>(run.latency.size()) / elapsed_s},
        {"setup_s", "s", setup_s[setup_s.size() / 2]},
    };
  } else {
    double mean_ms = 0;
    for (const auto& [at, ms] : run.latency) mean_ms += ms;
    mean_ms /= ops;
    const auto done = static_cast<double>(
        std::max<std::uint64_t>(p1.completed - p0.completed, 1));
    const double submit_us = static_cast<double>(run.submit_ns) / ops / 1e3;
    const double queue_us = static_cast<double>(p1.queue_ns - p0.queue_ns) /
                            done / 1e3;
    const double exec_us =
        static_cast<double>(p1.exec_ns - p0.exec_ns) / done / 1e3;
    double idle = 0;
    for (std::size_t i = 0; i < servers.size(); ++i)
      idle += p1.telemetry[i].delta(p0.telemetry[i]).idle_fraction();
    idle /= static_cast<double>(servers.size());
    const auto joins = static_cast<double>(p1.joins - p0.joins);
    const auto layer = [&run](const char* name) {
      const auto it = run.layer.find(name);
      return it == run.layer.end() ? 0.0 : it->second;
    };
    metrics = {
        {"stage_submit_us", "us", submit_us},
        {"stage_queue_us", "us", queue_us},
        {"stage_exec_us", "us", exec_us},
        {"stage_transit_us", "us",
         std::max(0.0, mean_ms * 1e3 - submit_us - queue_us - exec_us)},
        {"cpu_us_per_op", "us", (p1.cpu_s - p0.cpu_s) / ops * 1e6},
        {"kernel_forks_per_op", "count",
         static_cast<double>(p1.forks - p0.forks) / ops},
        {"kernel_steals", "count", static_cast<double>(p1.steals - p0.steals)},
        {"kernel_inline_join_pct", "%",
         joins > 0 ? 100.0 * static_cast<double>(p1.joins_inlined -
                                                 p0.joins_inlined) /
                         joins
                   : 0},
        {"kernel_idle_pct", "%", 100.0 * idle},
        {"pool_allocs_per_op", "count",
         static_cast<double>(p1.pool_allocs - p0.pool_allocs) / ops},
        {"pool_arena_kib", "KiB",
         static_cast<double>(p1.pool_arena_bytes) / 1024.0},
        {"wire_frames_per_writev", "count", layer("wire_frames_per_writev")},
        {"client_retries", "count", layer("client_retries")},
        {"mesh_reroutes", "count", layer("mesh_reroutes")},
        {"mesh_steal_grants", "count", layer("mesh_steal_grants")},
        {"mesh_jobs_migrated", "count", layer("mesh_jobs_migrated")},
        {"mesh_gossip_entries", "count", layer("mesh_gossip_entries")},
        {"aging_sample_us", "us", layer("aging_sample_us")},
        {"aging_analyze_ms", "ms", layer("aging_analyze_ms")},
        {"aging_findings", "count", layer("aging_findings")},
    };
  }
  w.reset();
  print_result(run, metrics);
  return 0;
}
