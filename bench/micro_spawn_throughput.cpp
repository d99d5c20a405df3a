// Microbenchmark: task spawn/join throughput of the scheduling hot path.
//
// Runs the paper's Fibonacci workload (one task per recursive branch, the
// finest grain the runtime supports) under the lock-free work-stealing
// policy at 1/2/4 VPs, and
// reports tasks/second plus the scheduler counters that explain the result
// (steal rate vs LIFO depth, join inlining, eventcount wakeups). Emits
// machine-readable results to BENCH_spawn.json (override with --out=...).
//
// Flags: --fib=N (default 21)  --reps=R (default 3)  --out=PATH
#include <cstdio>
#include <string>
#include <vector>

#include "anahy/runtime.hpp"
#include "apps/fib_app.hpp"
#include "benchutil/cli.hpp"
#include "benchutil/table.hpp"
#include "benchutil/timer.hpp"

namespace {

struct Result {
  int vps = 0;
  double best_seconds = 0;   // best of reps: least-noise throughput estimate
  double mean_seconds = 0;
  double tasks_per_sec = 0;  // from best_seconds
  anahy::RuntimeStats::Snapshot stats;  // from the last rep
};

Result run_config(int vps, long fib_n, int reps) {
  Result r;
  r.vps = vps;
  const long tasks = apps::fib_task_count(fib_n);
  double total = 0;
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    anahy::Options o;
    o.num_vps = vps;
    o.policy = anahy::PolicyKind::kWorkStealing;
    anahy::Runtime rt(o);
    // Warm the pools/TLBs with a tiny run before timing.
    (void)apps::fib_anahy(rt, 5);
    benchutil::Timer t;
    const long got = apps::fib_anahy(rt, fib_n);
    const double s = t.elapsed_seconds();
    if (got != apps::fib_sequential(fib_n)) {
      std::fprintf(stderr, "FATAL: wrong fib result at %d vps\n", vps);
      std::exit(1);
    }
    total += s;
    if (rep == 0 || s < best) best = s;
    r.stats = rt.stats();
  }
  r.best_seconds = best;
  r.mean_seconds = total / reps;
  r.tasks_per_sec = static_cast<double>(tasks) / best;
  return r;
}

void write_json(const std::string& path, long fib_n, int reps,
                const std::vector<Result>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_spawn_throughput\",\n");
  std::fprintf(f, "  \"workload\": \"fib\",\n");
  std::fprintf(f, "  \"fib_n\": %ld,\n", fib_n);
  std::fprintf(f, "  \"tasks_per_run\": %ld,\n", apps::fib_task_count(fib_n));
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    const auto& s = r.stats;
    std::fprintf(
        f,
        "    {\"policy\": \"%s\", \"vps\": %d, \"tasks_per_sec\": %.0f, "
        "\"best_seconds\": %.6f, \"mean_seconds\": %.6f, "
        "\"steals\": %llu, \"steal_attempts\": %llu, "
        "\"joins_inlined\": %llu, \"joins_helped\": %llu, "
        "\"joins_slept\": %llu, \"ready_peak\": %llu, "
        "\"wakeups\": %llu, \"wakeups_skipped\": %llu}%s\n",
        "steal", r.vps, r.tasks_per_sec, r.best_seconds,
        r.mean_seconds, static_cast<unsigned long long>(s.steals),
        static_cast<unsigned long long>(s.steal_attempts),
        static_cast<unsigned long long>(s.joins_inlined),
        static_cast<unsigned long long>(s.joins_helped),
        static_cast<unsigned long long>(s.joins_slept),
        static_cast<unsigned long long>(s.ready_peak),
        static_cast<unsigned long long>(s.wakeups),
        static_cast<unsigned long long>(s.wakeups_skipped),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Cli cli(argc, argv);
  const long fib_n = cli.get_int("fib", 21);
  const int reps = cli.get_int("reps", 3);
  const std::string out = cli.get("out", "BENCH_spawn.json");

  std::printf("micro_spawn_throughput: fib(%ld) = %ld tasks per run, "
              "%d reps, best-of-reps reported\n",
              fib_n, apps::fib_task_count(fib_n), reps);

  std::vector<Result> results;
  benchutil::Table table({"vps", "tasks/sec", "best s", "steals", "attempts",
                          "inlined", "ready-peak", "wakeups", "skipped"});
  for (const int vps : {1, 2, 4}) {
    const Result r = run_config(vps, fib_n, reps);
    results.push_back(r);
    table.add_row({std::to_string(r.vps),
                   benchutil::Table::num(r.tasks_per_sec),
                   benchutil::Table::num(r.best_seconds),
                   std::to_string(r.stats.steals),
                   std::to_string(r.stats.steal_attempts),
                   std::to_string(r.stats.joins_inlined),
                   std::to_string(r.stats.ready_peak),
                   std::to_string(r.stats.wakeups),
                   std::to_string(r.stats.wakeups_skipped)});
  }
  std::printf("%s\n", table.to_text().c_str());

  write_json(out, fib_n, reps, results);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
