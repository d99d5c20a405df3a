// Benchmark: the serve wire path — synchronous vs multiplexed async
// clients on the batched epoll transport (docs/WIRE.md).
//
// Two legs, one server (JobServer + ServeFrontEnd on node 0), same
// registered spin job and the same client count throughout:
//
//  1. epoll_sync  — one AsyncServeClient per client node used
//     synchronously (window of 1). One request in flight per client: the
//     latency yardstick, free of queueing behind the client's own window.
//  2. epoll_async — the same async clients each keeping a window of
//     requests in flight. Requests coalesce into writev batches on the
//     shared sockets; this is the throughput headline, reported with
//     p50/p99 *under saturation* and the achieved wire batching factor.
//
// One unmeasured warm-up leg runs first, so neither measured leg pays for
// the process's cold start; then the two legs alternate for kReps rounds.
// Emits machine-readable results to BENCH_wire.json (override with
// --out=...): per leg, the figures of the run with the median jobs/s and
// every run's jobs/s, p50 and p99 (the run-to-run spread), per-class
// latency, and the async leg's wire counters.
//
// Flags: --clients=C (default 8)  --jobs=J per client (default 2000)
//        --window=W in-flight per async client (default 32)
//        --spin-us=U job body busy-work (default 5)  --out=PATH
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "benchutil/cli.hpp"
#include "benchutil/table.hpp"
#include "benchutil/timer.hpp"
#include "cluster/epoll_transport.hpp"
#include "cluster/serve_frontend.hpp"
#include "cluster/transport.hpp"

namespace {

constexpr int kVps = 4;
// Measured runs of each leg: enough for a median and its spread.
constexpr int kReps = 5;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t g_spin_ns = 5'000;

/// The served job body: a calibrated busy-wait, payload echoed back so
/// both directions of the wire carry real bytes.
std::vector<std::uint8_t> spin_echo(std::span<const std::uint8_t> in) {
  const std::int64_t until = now_ns() + g_spin_ns;
  while (now_ns() < until) {
  }
  return {in.begin(), in.end()};
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// Same saturation mix as serve_sustained_load: 1/6 high, 2/6 normal,
/// 3/6 batch — enough batch work that the high class has something to
/// overtake, which is what makes its p99 under saturation meaningful.
anahy::Priority mix(int i) {
  switch (i % 6) {
    case 0: return anahy::Priority::kHigh;
    case 1:
    case 2: return anahy::Priority::kNormal;
    default: return anahy::Priority::kBatch;
  }
}

struct ClassLatency {
  anahy::Priority cls;
  std::vector<double> ms;
  double p50 = 0, p99 = 0, mean = 0;
};

struct LegResult {
  double jobs_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  std::vector<ClassLatency> classes;
  cluster::WireCounters wire;  // summed over all endpoints
};

/// Folds per-job (class, latency) samples into the leg's aggregate and
/// per-class percentiles.
void finish_latency(std::vector<std::pair<anahy::Priority, double>>& samples,
                    LegResult& out) {
  out.classes = {{anahy::Priority::kHigh, {}, 0, 0, 0},
                 {anahy::Priority::kNormal, {}, 0, 0, 0},
                 {anahy::Priority::kBatch, {}, 0, 0, 0}};
  std::vector<double> all;
  all.reserve(samples.size());
  for (const auto& [cls, m] : samples) {
    all.push_back(m);
    for (auto& c : out.classes)
      if (c.cls == cls) c.ms.push_back(m);
  }
  out.mean_ms = 0;
  for (const double m : all) out.mean_ms += m;
  if (!all.empty()) out.mean_ms /= static_cast<double>(all.size());
  out.p50_ms = percentile(all, 0.50);
  out.p99_ms = percentile(all, 0.99);
  for (auto& c : out.classes) {
    c.mean = 0;
    for (const double m : c.ms) c.mean += m;
    if (!c.ms.empty()) c.mean /= static_cast<double>(c.ms.size());
    c.p50 = percentile(c.ms, 0.50);
    c.p99 = percentile(c.ms, 0.99);
  }
}

cluster::WireCounters sum_wire(
    const std::vector<std::unique_ptr<cluster::Transport>>& fabric) {
  cluster::WireCounters sum;
  for (const auto& t : fabric) {
    const cluster::WireCounters c =
        dynamic_cast<const cluster::WireStatsSource&>(*t).wire_counters();
    sum.writev_calls += c.writev_calls;
    sum.tx_frames += c.tx_frames;
    sum.tx_bytes += c.tx_bytes;
    sum.tx_partial_writes += c.tx_partial_writes;
    sum.tx_eagain += c.tx_eagain;
    sum.recv_calls += c.recv_calls;
    sum.rx_frames += c.rx_frames;
    sum.rx_bytes += c.rx_bytes;
    sum.rx_partial_reads += c.rx_partial_reads;
  }
  return sum;
}

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "FATAL: %s\n", what);
  std::exit(1);
}

/// One leg: `fabric` (node 0 serves, nodes 1..clients submit), an
/// AsyncServeClient per client node, each keeping `window` requests in
/// flight (window 1 = synchronous use).
LegResult run_leg(std::vector<std::unique_ptr<cluster::Transport>> fabric,
                  int clients, int jobs, int window) {
  cluster::Registry reg;
  reg.add("spin_echo", spin_echo);
  anahy::serve::ServerOptions so;
  so.runtime.num_vps = kVps;
  anahy::serve::JobServer server(std::move(so));
  cluster::ServeFrontEnd frontend(server, *fabric[0], reg);

  cluster::CallOptions copts;
  copts.deadline = std::chrono::microseconds{30'000'000};
  // Under saturation the queueing delay exceeds the default retry
  // backoff; a tight backoff would flood the server with retransmits of
  // jobs that are merely queued, so give the first resend real headroom.
  copts.initial_backoff = std::chrono::microseconds{2'000'000};
  copts.max_backoff = std::chrono::microseconds{4'000'000};

  LegResult out;
  std::vector<std::pair<anahy::Priority, double>> all;
  std::mutex mu;
  benchutil::Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      cluster::AsyncServeClient client(
          *fabric[static_cast<std::size_t>(t + 1)], 0);
      const std::vector<std::uint8_t> payload(32,
                                              static_cast<std::uint8_t>(t));
      // Sliding window: future i+window is only submitted once future i
      // resolved, so at most `window` requests ride the socket at once.
      std::vector<std::future<cluster::AsyncServeClient::Reply>> futs(
          static_cast<std::size_t>(jobs));
      std::vector<std::int64_t> t0(static_cast<std::size_t>(jobs), 0);
      std::vector<std::pair<anahy::Priority, double>> ms(
          static_cast<std::size_t>(jobs));
      int submitted = 0;
      auto submit_one = [&] {
        const auto i = static_cast<std::size_t>(submitted);
        const anahy::Priority cls = mix(t + submitted);
        ms[i].first = cls;
        t0[i] = now_ns();
        futs[i] = client.submit_async("spin_echo", payload, copts, cls);
        ++submitted;
      };
      while (submitted < std::min(window, jobs)) submit_one();
      for (int i = 0; i < jobs; ++i) {
        const auto r = futs[static_cast<std::size_t>(i)].get();
        if (r.error != anahy::kOk) die("served call failed");
        ms[static_cast<std::size_t>(i)].second =
            static_cast<double>(now_ns() - t0[static_cast<std::size_t>(i)]) /
            1e6;
        if (submitted < jobs) submit_one();
      }
      std::lock_guard lock(mu);
      all.insert(all.end(), ms.begin(), ms.end());
    });
  }
  for (auto& th : threads) th.join();
  const double seconds = wall.elapsed_seconds();
  out.jobs_per_sec = static_cast<double>(clients) * jobs / seconds;
  finish_latency(all, out);
  out.wire = sum_wire(fabric);
  return out;
}

void print_wire(const cluster::WireCounters& w) {
  const double frames_per_writev =
      w.writev_calls > 0 ? static_cast<double>(w.tx_frames) /
                               static_cast<double>(w.writev_calls)
                         : 0;
  const double bytes_per_writev =
      w.writev_calls > 0 ? static_cast<double>(w.tx_bytes) /
                               static_cast<double>(w.writev_calls)
                         : 0;
  std::printf("wire: %llu frames in %llu writevs (%.2f frames/writev, "
              "%.0f bytes/writev), %llu partial reads\n",
              static_cast<unsigned long long>(w.tx_frames),
              static_cast<unsigned long long>(w.writev_calls),
              frames_per_writev, bytes_per_writev,
              static_cast<unsigned long long>(w.rx_partial_reads));
}

/// The run with the median jobs/s.
const LegResult& median_run(const std::vector<LegResult>& runs) {
  std::vector<const LegResult*> order;
  for (const LegResult& r : runs) order.push_back(&r);
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    return a->jobs_per_sec < b->jobs_per_sec;
  });
  return *order[order.size() / 2];
}

void write_json(const std::string& path, int clients, int jobs, int window,
                int spin_us, const std::vector<LegResult>& sync_runs,
                const std::vector<LegResult>& async_runs) {
  const LegResult& epoll_async = median_run(async_runs);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) die("cannot write output file");
  const cluster::WireCounters& w = epoll_async.wire;
  const double frames_per_writev =
      w.writev_calls > 0 ? static_cast<double>(w.tx_frames) /
                               static_cast<double>(w.writev_calls)
                         : 0;
  const double bytes_per_writev =
      w.writev_calls > 0 ? static_cast<double>(w.tx_bytes) /
                               static_cast<double>(w.writev_calls)
                         : 0;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serve_wire_throughput\",\n");
  std::fprintf(f, "  \"vps\": %d,\n", kVps);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f,
               "  \"clients\": %d, \"jobs_per_client\": %d, "
               "\"window\": %d, \"spin_us\": %d, \"reps\": %zu,\n",
               clients, jobs, window, spin_us, sync_runs.size());
  // Writes one figure of every run as a JSON array.
  auto runs = [f](const char* name, const std::vector<LegResult>& all,
                  double LegResult::*field, const char* fmt) {
    std::fprintf(f, "\"%s\": [", name);
    for (std::size_t i = 0; i < all.size(); ++i) {
      std::fprintf(f, fmt, all[i].*field);
      std::fprintf(f, "%s", i + 1 < all.size() ? ", " : "]");
    }
  };
  // Opens the leg's object and writes its figures; the caller closes it.
  auto leg = [&](const char* name, const std::vector<LegResult>& all) {
    const LegResult& r = median_run(all);
    std::fprintf(f,
                 "  \"%s\": {\"jobs_per_sec\": %.0f, \"p50_ms\": %.3f, "
                 "\"p99_ms\": %.3f, \"mean_ms\": %.3f,\n    \"runs\": {",
                 name, r.jobs_per_sec, r.p50_ms, r.p99_ms, r.mean_ms);
    runs("jobs_per_sec", all, &LegResult::jobs_per_sec, "%.0f");
    std::fprintf(f, ", ");
    runs("p50_ms", all, &LegResult::p50_ms, "%.3f");
    std::fprintf(f, ", ");
    runs("p99_ms", all, &LegResult::p99_ms, "%.3f");
    std::fprintf(f, "},\n    \"latency_ms\": [");
    for (std::size_t i = 0; i < r.classes.size(); ++i) {
      const ClassLatency& c = r.classes[i];
      std::fprintf(f,
                   "{\"class\": \"%s\", \"jobs\": %zu, \"p50\": %.3f, "
                   "\"p99\": %.3f, \"mean\": %.3f}%s",
                   anahy::to_string(c.cls), c.ms.size(), c.p50, c.p99,
                   c.mean, i + 1 < r.classes.size() ? ", " : "");
    }
    std::fprintf(f, "]");
  };
  leg("epoll_sync", sync_runs);
  std::fprintf(f, "},\n");
  leg("epoll_async", async_runs);
  std::fprintf(
      f,
      ",\n    \"wire\": {\"writev_calls\": %llu, \"tx_frames\": %llu, "
      "\"tx_bytes\": %llu, \"frames_per_writev\": %.2f, "
      "\"bytes_per_writev\": %.0f, \"tx_partial_writes\": %llu, "
      "\"tx_eagain\": %llu, \"rx_partial_reads\": %llu}},\n",
      static_cast<unsigned long long>(w.writev_calls),
      static_cast<unsigned long long>(w.tx_frames),
      static_cast<unsigned long long>(w.tx_bytes), frames_per_writev,
      bytes_per_writev, static_cast<unsigned long long>(w.tx_partial_writes),
      static_cast<unsigned long long>(w.tx_eagain),
      static_cast<unsigned long long>(w.rx_partial_reads));
  std::fprintf(f, "  \"async_high_p99_ms\": %.3f\n",
               epoll_async.classes[0].p99);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Cli cli(argc, argv);
  const int clients = cli.get_int("clients", 8);
  const int jobs = cli.get_int("jobs", 2000);
  const int window = cli.get_int("window", 32);
  const int spin_us = cli.get_int("spin-us", 5);
  const std::string out = cli.get("out", "BENCH_wire.json");
  g_spin_ns = static_cast<std::int64_t>(spin_us) * 1'000;

  std::printf("serve_wire_throughput: %d clients x %d jobs (%dus bodies), "
              "async window %d, %d VPs, %d reps\n",
              clients, jobs, spin_us, window, kVps, kReps);

  // Unmeasured: whichever leg ran first would otherwise read slower.
  run_leg(cluster::make_epoll_fabric(clients + 1), clients, jobs, 1);
  std::vector<LegResult> sync_runs;
  std::vector<LegResult> async_runs;
  for (int r = 0; r < kReps; ++r) {
    sync_runs.push_back(
        run_leg(cluster::make_epoll_fabric(clients + 1), clients, jobs, 1));
    async_runs.push_back(run_leg(cluster::make_epoll_fabric(clients + 1),
                                 clients, jobs, window));
    std::printf("rep %d: sync %7.0f jobs/s p99 %.3fms | async %7.0f jobs/s "
                "p99 %.3fms\n",
                r, sync_runs.back().jobs_per_sec, sync_runs.back().p99_ms,
                async_runs.back().jobs_per_sec, async_runs.back().p99_ms);
  }
  const LegResult& epoll_sync = median_run(sync_runs);
  const LegResult& epoll_async = median_run(async_runs);
  std::printf("epoll sync  : %9.0f jobs/s  p50 %.3fms  p99 %.3fms (median "
              "run)\n",
              epoll_sync.jobs_per_sec, epoll_sync.p50_ms, epoll_sync.p99_ms);
  std::printf("epoll async : %9.0f jobs/s  p50 %.3fms  p99 %.3fms (median "
              "run)\n",
              epoll_async.jobs_per_sec, epoll_async.p50_ms,
              epoll_async.p99_ms);
  print_wire(epoll_async.wire);

  benchutil::Table table({"class", "jobs", "p50 ms", "p99 ms", "mean ms"});
  for (const ClassLatency& c : epoll_async.classes)
    table.add_row({anahy::to_string(c.cls), std::to_string(c.ms.size()),
                   benchutil::Table::num(c.p50), benchutil::Table::num(c.p99),
                   benchutil::Table::num(c.mean)});
  std::printf("async leg per-class latency under saturation:\n%s\n",
              table.to_text().c_str());

  write_json(out, clients, jobs, window, spin_us, sync_runs, async_runs);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
