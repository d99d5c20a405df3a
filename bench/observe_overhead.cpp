// Microbenchmark: cost of the observe subsystem on the spawn hot path.
//
// Runs the fib spawn-throughput workload (same shape as
// micro_spawn_throughput, which produced BENCH_spawn.json) in two modes at
// 2 and 4 VPs:
//
//   default   — the kernel as every runtime runs it: the per-VP counter
//               bank (observe::Telemetry) fed from fork/join/run/steal/
//               idle, profiling off
//   profile   — Options::profile on top: per-task spans buffered per VP
//               and stamped fork/join edges (implies tracing)
//
// The counter bank is the kernel's only bank and cannot be switched off,
// so there is no counter budget to check here; profile mode pays for
// timestamps and span buffers, and the ratio tells you what turning it on
// costs.
//
// Emits machine-readable results to BENCH_observe.json (--out=...), with
// per-VP overhead ratios (profile best_seconds / default best_seconds).
// Reps are interleaved across configurations (see run_all) so machine
// drift does not masquerade as mode overhead.
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

struct Mode {
  const char* name;
  bool profile;
};

constexpr Mode kModes[] = {
    {"default", false},
    {"profile", true},
};

struct Result {
  std::string mode;
  int vps = 0;
  double best_seconds = 0;
  double mean_seconds = 0;
  double tasks_per_sec = 0;
};

double run_once(const Mode& mode, int vps, long fib_n) {
  anahy::Options o;
  o.num_vps = vps;
  o.profile = mode.profile;
  anahy::Runtime rt(o);
  (void)apps::fib_anahy(rt, 5);  // warm pools before timing
  benchutil::Timer t;
  const long got = apps::fib_anahy(rt, fib_n);
  const double s = t.elapsed_seconds();
  if (got != apps::fib_sequential(fib_n)) {
    std::fprintf(stderr, "FATAL: wrong fib result under %s/%d vps\n",
                 mode.name, vps);
    std::exit(1);
  }
  return s;
}

/// Runs every (mode, vps) configuration `reps` times, *interleaved*: the
/// rep loop is outermost, so one pass touches every configuration before
/// any gets its second rep. Sequential per-mode blocks would let
/// machine-level drift (another process waking up, frequency scaling) land
/// entirely on one mode and masquerade as overhead; interleaving spreads
/// any drift across all modes so best-of-reps compares like with like.
std::vector<Result> run_all(const std::vector<int>& vps_list, long fib_n,
                            int reps) {
  const long tasks = apps::fib_task_count(fib_n);
  std::vector<Result> results;
  for (const Mode& mode : kModes) {
    for (const int vps : vps_list) {
      Result r;
      r.mode = mode.name;
      r.vps = vps;
      results.push_back(r);
    }
  }
  for (int rep = 0; rep < reps; ++rep) {
    std::size_t i = 0;
    for (const Mode& mode : kModes) {
      for (const int vps : vps_list) {
        const double s = run_once(mode, vps, fib_n);
        Result& r = results[i++];
        r.mean_seconds += s;
        if (rep == 0 || s < r.best_seconds) r.best_seconds = s;
      }
    }
  }
  for (Result& r : results) {
    r.mean_seconds /= reps;
    r.tasks_per_sec = static_cast<double>(tasks) / r.best_seconds;
  }
  return results;
}

double ratio_vs_default(const std::vector<Result>& results,
                        const std::string& mode, int vps) {
  double base = 0;
  double it = 0;
  for (const Result& r : results) {
    if (r.vps != vps) continue;
    if (r.mode == "default") base = r.best_seconds;
    if (r.mode == mode) it = r.best_seconds;
  }
  return base > 0 ? it / base : 0;
}

void write_json(const std::string& path, long fib_n, int reps,
                const std::vector<int>& vps_list,
                const std::vector<Result>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"observe_overhead\",\n");
  std::fprintf(f, "  \"workload\": \"fib\",\n");
  std::fprintf(f, "  \"fib_n\": %ld,\n", fib_n);
  std::fprintf(f, "  \"tasks_per_run\": %ld,\n", apps::fib_task_count(fib_n));
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"vps\": %d, "
                 "\"tasks_per_sec\": %.0f, \"best_seconds\": %.6f, "
                 "\"mean_seconds\": %.6f}%s\n",
                 r.mode.c_str(), r.vps, r.tasks_per_sec, r.best_seconds,
                 r.mean_seconds, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // best_seconds ratios vs default mode, keyed by VP count.
  std::fprintf(f, "  \"profile_vs_default\": {");
  for (std::size_t i = 0; i < vps_list.size(); ++i) {
    std::fprintf(f, "%s\"%d\": %.4f", i == 0 ? "" : ", ", vps_list[i],
                 ratio_vs_default(results, "profile", vps_list[i]));
  }
  std::fprintf(f, "}\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Cli cli(argc, argv);
  const long fib_n = cli.get_int("fib", 21);
  const int reps = cli.get_int("reps", 3);
  const std::string out = cli.get("out", "BENCH_observe.json");
  const std::vector<int> vps_list = {2, 4};

  std::printf("observe_overhead: fib(%ld) = %ld tasks per run, %d reps, "
              "best-of-reps reported\n",
              fib_n, apps::fib_task_count(fib_n), reps);

  const std::vector<Result> results = run_all(vps_list, fib_n, reps);
  benchutil::Table table(
      {"mode", "vps", "tasks/sec", "best s", "vs default"});
  for (const Result& r : results) {
    char ratio[16];
    std::snprintf(ratio, sizeof ratio, "%.4f",
                  ratio_vs_default(results, r.mode, r.vps));
    table.add_row({r.mode, std::to_string(r.vps),
                   benchutil::Table::num(r.tasks_per_sec),
                   benchutil::Table::num(r.best_seconds), ratio});
  }
  std::printf("%s\n", table.to_text().c_str());

  write_json(out, fib_n, reps, vps_list, results);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
