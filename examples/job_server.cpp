// job_server: walkthrough of the anahy::serve subsystem — one resident
// runtime serving many concurrent clients.
//
// Eight client threads submit jobs in a high/normal/batch mix; each job is
// a small fork/join DAG (its forks inherit the job's context, class and
// all). On top of the steady load the demo shows the rest of the service
// surface:
//
//   * a checked job (JobSpec::check) whose seeded determinacy race comes
//     back attributed to THAT job in its JobResult (ANAHY-R001),
//   * an already-expired deadline resolving kTimedOut without running,
//   * the /metrics-style counter dump and the observe exposition
//     (per-VP telemetry + derived gauges + anomaly flags),
//   * drain() + a saved `anahy-trace v3` (profile mode: per-task VP
//     identity and stamped fork/join edges, the anahy-profile input) that
//     the DAG linter verifies is leak-free (no ANAHY-W005: drain finishes
//     queued work, never drops it),
//   * a recorded memory-state series (`anahy-series v1`, docs/AGING.md)
//     saved to job_server.series — the anahy-aging input CI lints.
//
// The demo is also an assertion harness: every handle must resolve, every
// completion callback must fire exactly once, the final trace must lint
// clean, and the aging report must have no findings — it exits non-zero
// otherwise.
//
// Build & run:
//   cmake -B build && cmake --build build --target job_server anahy-lint
//   ./build/examples/job_server            # prints the walkthrough
//   ./build/tools/anahy-lint --summary --jobs job_server.trace
//   ./build/tools/anahy-profile --out=job_server.json job_server.trace
//   ./build/tools/anahy-aging --summary job_server.series
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "anahy/serve/job_server.hpp"
#include "anahy/trace_analysis.hpp"

namespace {

using namespace anahy;
using namespace anahy::serve;

constexpr int kClients = 8;
constexpr int kJobsPerClient = 25;

long g_racy = 0;  // the checked job's seeded shared variable

/// One client job: fork two subtasks that sum halves of a local array,
/// join them, combine. The forks inherit the job's context, so they are
/// scheduled under the job's priority class and counted in its stats.
void* sum_job(void* in) {
  Runtime& rt = *static_cast<Runtime*>(in);
  long data[64];
  for (int i = 0; i < 64; ++i) data[i] = i;
  const auto part = [](void* p) -> void* {
    long* range = static_cast<long*>(p);
    long sum = 0;
    for (long i = range[0]; i < range[1]; ++i) sum += i;
    return reinterpret_cast<void*>(sum);
  };
  long lo[2] = {0, 32};
  long hi[2] = {32, 64};
  TaskPtr a = rt.fork(part, lo);
  TaskPtr b = rt.fork(part, hi);
  void* ra = nullptr;
  void* rb = nullptr;
  rt.join(a, &ra);
  rt.join(b, &rb);
  (void)data;
  return reinterpret_cast<void*>(reinterpret_cast<long>(ra) +
                                 reinterpret_cast<long>(rb));
}

/// Checked job body: two forks write the same location with no join
/// ordering them — a determinacy race the per-job detector must report.
void* racy_job(void* in) {
  Runtime& rt = *static_cast<Runtime*>(in);
  const auto bump = [](void*) -> void* {
    check::write(&g_racy, sizeof g_racy);
    ++g_racy;
    return nullptr;
  };
  TaskPtr a = rt.fork(bump, nullptr);
  TaskPtr b = rt.fork(bump, nullptr);
  rt.join(a, nullptr);
  rt.join(b, nullptr);
  return nullptr;
}

Priority class_of(int i) {
  switch (i % 3) {
    case 0: return Priority::kHigh;
    case 1: return Priority::kNormal;
    default: return Priority::kBatch;
  }
}

}  // namespace

int main() {
  ServerOptions opts;
  opts.runtime.num_vps = 4;
  opts.runtime.profile = true;  // spans + stamped edges (implies trace)
  opts.check = true;  // allow per-job JobSpec::check opt-in
  JobServer server(std::move(opts));
  server.record_aging_sample();  // series baseline, before any load

  // --- 1. Eight concurrent clients, mixed priority classes. -------------
  std::atomic<long> callbacks{0};
  std::atomic<long> completed_sum{0};
  std::vector<std::vector<JobHandle>> handles(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kJobsPerClient; ++i) {
        JobSpec spec;
        spec.priority = class_of(c + i);
        spec.label = "sum";
        spec.body = sum_job;
        spec.input = &server.runtime();
        spec.on_complete = [&](const JobResult& r) {
          callbacks.fetch_add(1);
          completed_sum.fetch_add(reinterpret_cast<long>(r.value));
        };
        handles[c].push_back(server.submit(std::move(spec)));
      }
    });
  }
  // Sample the memory-state series on a steady cadence while the load
  // runs, and keep the cadence through a short idle tail so the saved
  // series has enough points to analyze (the aging analyzers assume
  // roughly periodic samples; an event-driven burst would read as series
  // gaps, and this burst outruns any humane sampling interval).
  int samples = 0;
  while (callbacks.load() < kClients * kJobsPerClient || samples < 32) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    server.record_aging_sample();
    ++samples;
  }
  for (auto& t : clients) t.join();

  // --- 2. A checked job: the race is reported on ITS result. ------------
  JobSpec checked;
  checked.body = racy_job;
  checked.input = &server.runtime();
  checked.check = true;
  checked.label = "racy";
  JobHandle racy = server.submit(std::move(checked));

  // --- 3. A job whose deadline already passed: never runs. --------------
  JobSpec late;
  late.body = sum_job;
  late.input = &server.runtime();
  late.timeout_ns = 1;  // expires before its root can start
  JobHandle timed_out = server.submit(std::move(late));

  // --- Verify every handle. ---------------------------------------------
  constexpr long kExpectedSum = 63 * 64 / 2;  // sum 0..63 per job
  long ok = 0;
  for (auto& per_client : handles)
    for (auto& h : per_client) {
      if (h.wait() != kOk ||
          reinterpret_cast<long>(h.result().value) != kExpectedSum) {
        std::fprintf(stderr, "FATAL: lost or wrong sum job\n");
        return 1;
      }
      ++ok;
    }
  if (racy.wait() != kOk || racy.result().races.empty()) {
    std::fprintf(stderr, "FATAL: checked job reported no race\n");
    return 1;
  }
  if (timed_out.wait() != kTimedOut) {
    std::fprintf(stderr, "FATAL: expired job did not time out\n");
    return 1;
  }
  server.drain();  // callbacks have all fired once drain returns
  if (callbacks.load() != kClients * kJobsPerClient ||
      completed_sum.load() != kExpectedSum * kClients * kJobsPerClient) {
    std::fprintf(stderr, "FATAL: completion callbacks lost or doubled\n");
    return 1;
  }

  std::printf("%d clients x %d jobs: all %ld handles resolved kOk, "
              "callbacks fired exactly once\n",
              kClients, kJobsPerClient, ok);
  const JobStats rs = racy.result().stats;
  std::printf("checked job #%llu: %zu race report(s), %llu task(s)\n",
              static_cast<unsigned long long>(racy.id()),
              racy.result().races.size(),
              static_cast<unsigned long long>(rs.tasks_executed));
  for (const auto& r : racy.result().races)
    std::printf("  %s\n", r.to_string().c_str());
  std::printf("expired job #%llu resolved %s without running (%llu tasks)\n",
              static_cast<unsigned long long>(timed_out.id()),
              to_string(JobState::kDone),
              static_cast<unsigned long long>(
                  timed_out.result().stats.tasks_executed));

  // observe_text = per-VP telemetry exposition + the /metrics counters.
  std::printf("\n--- observe ---\n%s", server.observe_text().c_str());

  // --- 4. The drained trace must be leak-free (no ANAHY-W005). ----------
  {
    std::ofstream out("job_server.trace");
    server.runtime().trace().save(out);
  }
  const auto diags = lint_trace(server.runtime().trace());
  if (!diags.empty()) {
    std::fprintf(stderr, "FATAL: drained server trace has diagnostics:\n%s",
                 format_diagnostics(diags).c_str());
    return 1;
  }
  std::printf("\ntrace: %zu node(s), lint clean (no leaked tasks) — saved "
              "to job_server.trace\n",
              server.runtime().trace().nodes().size());

  // --- 5. The aging series must load back and report healthy. -----------
  const aging::Series series = server.aging_series();
  {
    std::ofstream out("job_server.series");
    series.save(out);
  }
  // Stall-sized A005 floor: the 200 µs cadence above is honest data, but a
  // scheduler stall on a time-shared (or sanitizer-slowed) host can dwarf
  // the median interval without meaning the series is corrupt. Gap
  // detection itself is pinned by tests/aging/test_analyze.
  aging::AnalyzeOptions aging_opts;
  aging_opts.gap_min_ns = 1'000'000'000;
  const aging::Analysis aging_report = server.aging_report(aging_opts);
  if (!aging_report.findings.empty()) {
    std::fprintf(stderr, "FATAL: healthy demo tripped aging detectors:\n%s",
                 aging::format_findings(aging_report.findings).c_str());
    return 1;
  }
  std::printf("aging: %zu sample(s), report clean — saved to "
              "job_server.series\n",
              series.size());
  return 0;
}
