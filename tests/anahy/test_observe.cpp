// Tests of the anahy::observe subsystem: per-VP telemetry counters and
// wait-free snapshots (including a snapshot taken concurrently with a
// stealing workload — the TSan-certified half of the contract), threshold
// anomaly detection, text exposition, the span profiler, the chrome
// trace-event export, and work/span growth on the fib workload.
#include "anahy/anahy.hpp"
#include "anahy/observe/chrome_trace.hpp"
#include "anahy/observe/exposition.hpp"
#include "anahy/observe/profiler.hpp"
#include "anahy/observe/telemetry.hpp"
#include "anahy/trace_analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace anahy;
using observe::Snapshot;
using observe::Telemetry;
using observe::VpCounters;

// ---------------------------------------------------------------------------
// Telemetry counter bank
// ---------------------------------------------------------------------------

TEST(Telemetry, CountersLandOnTheirSlot) {
  Telemetry t(2);
  t.on_fork(0);
  t.on_fork(0);
  t.on_join(1, observe::JoinKind::kHelped);
  t.on_task_run(1, /*by_main=*/true);
  t.on_steal_attempt(0);
  t.on_steal_success(0);
  t.on_idle_spin(1);
  t.on_idle_park(1, 500);

  const Snapshot s = t.snapshot();
  ASSERT_EQ(s.num_vps, 2);
  ASSERT_EQ(s.per_vp.size(), 3u);  // 2 workers + external
  EXPECT_EQ(s.per_vp[0].forks, 2u);
  EXPECT_EQ(s.per_vp[1].forks, 0u);
  EXPECT_EQ(s.per_vp[1].joins, 1u);
  EXPECT_EQ(s.per_vp[1].joins_helped, 1u);
  EXPECT_EQ(s.per_vp[1].tasks_run, 1u);
  EXPECT_EQ(s.per_vp[1].tasks_run_by_main, 1u);
  EXPECT_EQ(s.per_vp[0].steal_attempts, 1u);
  EXPECT_EQ(s.per_vp[0].steal_successes, 1u);
  EXPECT_EQ(s.per_vp[1].idle_spins, 1u);
  EXPECT_EQ(s.per_vp[1].idle_parks, 1u);
  EXPECT_EQ(s.per_vp[1].idle_park_ns, 500u);
  EXPECT_EQ(s.total.forks, 2u);
  EXPECT_EQ(s.total.joins, 1u);
}

TEST(Telemetry, OutOfRangeVpLandsOnExternalSlot) {
  Telemetry t(2);
  t.on_fork(-1);   // SchedulingPolicy::kExternalVp
  t.on_fork(2);    // the policy's external slot index (== num_vps)
  t.on_fork(99);   // garbage: still must not crash or corrupt a worker slot
  const Snapshot s = t.snapshot();
  EXPECT_EQ(s.per_vp[0].forks, 0u);
  EXPECT_EQ(s.per_vp[1].forks, 0u);
  EXPECT_EQ(s.per_vp[2].forks, 3u);  // external aggregate
  EXPECT_EQ(s.total.forks, 3u);
}

TEST(Telemetry, DequeDepthSamplesTrackSumAndPeak) {
  Telemetry t(1);
  t.sample_deque_depth(0, 3);
  t.sample_deque_depth(0, 7);
  t.sample_deque_depth(0, 1);
  const Snapshot s = t.snapshot();
  EXPECT_EQ(s.per_vp[0].deque_depth_samples, 3u);
  EXPECT_EQ(s.per_vp[0].deque_depth_sum, 11u);
  EXPECT_EQ(s.per_vp[0].deque_depth_peak, 7u);
  EXPECT_DOUBLE_EQ(s.avg_deque_depth(), 11.0 / 3.0);
}

TEST(Telemetry, SnapshotEpochIsMonotonic) {
  Telemetry t(1);
  const Snapshot a = t.snapshot();
  const Snapshot b = t.snapshot();
  EXPECT_GE(a.epoch, 1u);
  EXPECT_GT(b.epoch, a.epoch);
  EXPECT_GE(b.elapsed_ns, a.elapsed_ns);
}

TEST(Telemetry, DeltaSubtractsCountersButKeepsPeak) {
  Telemetry t(1);
  t.on_fork(0);
  t.sample_deque_depth(0, 9);
  const Snapshot a = t.snapshot();
  t.on_fork(0);
  t.on_fork(0);
  t.sample_deque_depth(0, 2);
  const Snapshot b = t.snapshot();

  const Snapshot d = b.delta(a);
  EXPECT_EQ(d.total.forks, 2u);
  EXPECT_EQ(d.total.deque_depth_samples, 1u);
  EXPECT_EQ(d.total.deque_depth_sum, 2u);
  // Peak is a high-water mark, not a rate: the delta keeps the later one.
  EXPECT_EQ(d.total.deque_depth_peak, 9u);
  EXPECT_GE(d.elapsed_ns, 0);
}

TEST(Telemetry, DeltaIsModularAcrossCounterWraparound) {
  // VpCounters::minus is plain unsigned subtraction, which is exactly the
  // modular arithmetic that stays correct when a 64-bit counter wraps:
  // (earlier near max, later small) must yield the true small increment,
  // never a negative-looking huge value. Consumers that cannot trust
  // modular deltas (the aging Recorder, whose counters may *reset*, not
  // wrap) do their own clamping on top — this pins the layering contract.
  VpCounters earlier;
  earlier.forks = std::numeric_limits<std::uint64_t>::max() - 2;
  earlier.joins = std::numeric_limits<std::uint64_t>::max();
  VpCounters later;
  later.forks = 4;   // wrapped: 7 real forks happened
  later.joins = 0;   // wrapped: 1 real join happened
  later.tasks_run = 5;
  const VpCounters d = later.minus(earlier);
  EXPECT_EQ(d.forks, 7u);
  EXPECT_EQ(d.joins, 1u);
  EXPECT_EQ(d.tasks_run, 5u);
}

TEST(Telemetry, GaugesHandleEmptyAndSaturatedInputs) {
  Snapshot s;
  s.num_vps = 2;
  // No attempts: a thief that never had to try is not starving.
  EXPECT_DOUBLE_EQ(s.steal_success_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(s.avg_deque_depth(), 0.0);
  EXPECT_DOUBLE_EQ(s.idle_fraction(), 0.0);  // elapsed == 0

  s.total.steal_attempts = 100;
  s.total.steal_successes = 25;
  EXPECT_DOUBLE_EQ(s.steal_success_ratio(), 0.25);

  // Park time can only over-count by clock skew; the gauge is capped.
  s.elapsed_ns = 1000;
  s.total.idle_park_ns = 999'999;
  EXPECT_DOUBLE_EQ(s.idle_fraction(), 1.0);
}

// The satellite contract: snapshotting is safe while workers are actively
// forking/stealing. Run under -DANAHY_SAN=thread (label: tsan) this test
// certifies the wait-free reader; the assertions also pin that the final
// quiesced snapshot agrees with the program's own count.
TEST(Telemetry, SnapshotConcurrentWithStealingWorkload) {
  Options o;
  o.num_vps = 4;
  Runtime rt(o);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> snapshots_taken{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const Snapshot s = rt.observe_snapshot();
      // Totals are sums of monotonic counters: never torn below zero and
      // tasks cannot complete without having been forked first... but the
      // reader races the writers, so only per-counter sanity holds.
      EXPECT_EQ(s.per_vp.size(), 5u);
      (void)observe::render_text(s);  // rendering must also be safe
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Fine-grained fib: every branch forks, so the 4 VPs steal constantly.
  std::function<long(long)> fib = [&](long n) -> long {
    if (n < 2) return n;
    auto a = spawn(rt, fib, n - 1);
    auto b = spawn(rt, fib, n - 2);
    return a.join() + b.join();
  };
  constexpr long kN = 14;
  const long expect = [] {
    long x = 0, y = 1;
    for (long i = 0; i < kN; ++i) {
      const long z = x + y;
      x = y;
      y = z;
    }
    return x;
  }();
  // One fib wave can finish before the OS even schedules the reader; keep
  // the stealing workload alive until the reader has provably raced it a
  // few times (bounded so a wedged reader fails instead of hanging).
  int rounds = 0;
  do {
    EXPECT_EQ(fib(kN), expect);
    ++rounds;
  } while (snapshots_taken.load(std::memory_order_relaxed) < 8 &&
           rounds < 500);

  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(snapshots_taken.load(), 0u);

  // Quiesced: every forked task ran, and the per-VP breakdown adds up to
  // the totals.
  const Snapshot s = rt.observe_snapshot();
  EXPECT_GT(s.total.forks, 0u);
  EXPECT_EQ(s.total.tasks_run, s.total.forks);
  VpCounters sum;
  for (const VpCounters& vp : s.per_vp) sum += vp;
  EXPECT_EQ(sum.forks, s.total.forks);
  EXPECT_EQ(sum.tasks_run, s.total.tasks_run);
  EXPECT_EQ(sum.steal_attempts, s.total.steal_attempts);
}

TEST(Telemetry, FreshRuntimeYieldsAWellFormedZeroSnapshot) {
  Options o;
  o.num_vps = 2;
  Runtime rt(o);
  const Snapshot s = rt.observe_snapshot();
  EXPECT_EQ(s.num_vps, 2);
  ASSERT_EQ(s.per_vp.size(), 3u);
  EXPECT_EQ(s.total.forks, 0u);  // nothing forked yet
  EXPECT_EQ(s.total.joins, 0u);
  EXPECT_EQ(s.total.tasks_run, 0u);
  // The exposition must render a runtime that has done nothing yet
  // (operators scrape it at startup and see zeros, not a crash).
  const std::string text = observe::render_text(s);
  EXPECT_NE(text.find("anahy_observe_num_vps 2"), std::string::npos);
  EXPECT_NE(text.find("anahy_observe_forks{vp=\"0\"} 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Anomaly thresholds + exposition text
// ---------------------------------------------------------------------------

Snapshot healthy_snapshot() {
  Snapshot s;
  s.num_vps = 2;
  s.elapsed_ns = 1'000'000'000;
  s.per_vp.resize(3);
  s.total.tasks_run = 1000;
  s.total.steal_attempts = 1000;
  s.total.steal_successes = 500;
  s.total.idle_park_ns = 100'000'000;  // 5% of 2 VPs * 1s
  return s;
}

TEST(Anomalies, HealthySnapshotRaisesNoFlags) {
  EXPECT_TRUE(observe::detect_anomalies(healthy_snapshot()).empty());
}

TEST(Anomalies, StealStarvationNeedsVolumeAndFailure) {
  Snapshot s = healthy_snapshot();
  s.total.steal_attempts = observe::kStarvationMinAttempts;
  s.total.steal_successes = 0;
  auto a = observe::detect_anomalies(s);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].code, observe::anomaly_code::kStealStarvation);

  // Below the attempt floor the same ratio is just a quiet runtime.
  s.total.steal_attempts = observe::kStarvationMinAttempts - 1;
  EXPECT_TRUE(observe::detect_anomalies(s).empty());
}

TEST(Anomalies, IdleDominatedNeedsWorkToHaveRun) {
  Snapshot s = healthy_snapshot();
  s.total.idle_park_ns = static_cast<std::uint64_t>(s.elapsed_ns) * 2;
  auto a = observe::detect_anomalies(s);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].code, observe::anomaly_code::kIdleDominated);

  // An idle fleet that never ran anything is just... off.
  s.total.tasks_run = 0;
  EXPECT_TRUE(observe::detect_anomalies(s).empty());
}

TEST(Exposition, RenderTextCarriesCountersGaugesAndAnomalies) {
  Snapshot s = healthy_snapshot();
  s.epoch = 7;
  s.per_vp[0].forks = 11;
  s.per_vp[2].forks = 3;  // external
  s.total.forks = 14;
  s.ready_by_class = {5, 2, 9};
  s.total.steal_attempts = observe::kStarvationMinAttempts;
  s.total.steal_successes = 0;

  const std::string text = observe::render_text(
      s, {{observe::anomaly_code::kDeadlineRisk, "synthetic"}});
  EXPECT_NE(text.find("anahy_observe_epoch 7"), std::string::npos);
  EXPECT_NE(text.find("anahy_observe_forks{vp=\"0\"} 11"), std::string::npos);
  EXPECT_NE(text.find("anahy_observe_forks{vp=\"external\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("anahy_observe_forks_total 14"), std::string::npos);
  EXPECT_NE(text.find("anahy_observe_steal_success_ratio 0.000000"),
            std::string::npos);
  EXPECT_NE(text.find("anahy_observe_idle_fraction"), std::string::npos);
  EXPECT_NE(text.find("anahy_observe_ready_tasks{class=\"high\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("anahy_observe_ready_tasks{class=\"batch\"} 9"),
            std::string::npos);
  EXPECT_NE(text.find("anahy_observe_anomaly_count 2"), std::string::npos);
  EXPECT_NE(text.find("anahy_observe_anomaly{code=\"ANAHY-P001\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("anahy_observe_anomaly{code=\"ANAHY-P003\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("synthetic"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Span profiler
// ---------------------------------------------------------------------------

TEST(SpanProfiler, RecordsAndFlushesIntoTheTrace) {
  observe::SpanProfiler p(2);
  EXPECT_EQ(p.pending(), 0u);
  p.record(0, /*task=*/1, /*job=*/42, /*start_ns=*/100, /*dur_ns=*/50);
  p.record(1, 2, 0, 200, 25);
  p.record(-1, 3, 0, 300, 10);  // external thread
  EXPECT_EQ(p.pending(), 3u);

  TraceGraph trace;
  trace.set_enabled(true);
  // Job identity lives on the node from creation; the span flush fills in
  // timing and VP without disturbing it.
  trace.record_task(1, 0, 0, false, /*job=*/42);
  trace.record_task(2, 0, 0, false);
  trace.record_task(3, 0, 0, false);
  p.flush_into(trace);
  EXPECT_EQ(p.pending(), 0u);  // flush drains; re-flush is a no-op
  p.flush_into(trace);

  const auto nodes = trace.nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0].start_ns, 100);
  EXPECT_EQ(nodes[0].exec_ns, 50);
  EXPECT_EQ(nodes[0].vp, 0);
  EXPECT_EQ(nodes[0].job, 42u);
  EXPECT_EQ(nodes[1].vp, 1);
  EXPECT_EQ(nodes[2].vp, -1);  // external identity survives
}

TEST(SpanProfiler, ConcurrentRecordersAndFlusherLoseNothing) {
  observe::SpanProfiler p(4);
  TraceGraph trace;
  trace.set_enabled(true);
  constexpr int kPerThread = 2000;
  for (TaskId id = 1; id <= 4 * kPerThread; ++id)
    trace.record_task(id, 0, 0, false);

  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_acquire)) p.flush_into(trace);
  });
  std::vector<std::thread> writers;
  for (int vp = 0; vp < 4; ++vp) {
    writers.emplace_back([&, vp] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto id = static_cast<TaskId>(vp * kPerThread + i + 1);
        p.record(vp, id, 0, i, 1);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  flusher.join();
  p.flush_into(trace);  // whatever the last racing flush missed

  std::size_t spanned = 0;
  for (const auto& n : trace.nodes()) spanned += n.start_ns >= 0 ? 1 : 0;
  EXPECT_EQ(spanned, static_cast<std::size_t>(4 * kPerThread));
  EXPECT_EQ(p.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Profile mode end to end: v3 trace, chrome JSON, work/span
// ---------------------------------------------------------------------------

long run_profiled_fib(Runtime& rt, long n) {
  std::function<long(long)> fib = [&](long x) -> long {
    if (x < 2) return x;
    auto a = spawn(rt, fib, x - 1);
    auto b = spawn(rt, fib, x - 2);
    return a.join() + b.join();
  };
  return fib(n);
}

TEST(ProfileMode, TraceCarriesVpIdentityAndStampedEdges) {
  Options o;
  o.num_vps = 2;
  o.profile = true;  // implies trace
  Runtime rt(o);
  EXPECT_EQ(run_profiled_fib(rt, 8), 21);

  const TraceGraph& trace = rt.trace();  // trace() flushes the profiler
  std::size_t tracked = 0;
  for (const TraceNode& n : trace.nodes()) {
    if (n.is_continuation || n.start_ns < 0) continue;
    if (n.vp != TraceNode::kUnknownVp) ++tracked;
  }
  EXPECT_GT(tracked, 0u);

  std::size_t stamped = 0;
  for (const TraceEdge& e : trace.edges())
    if (e.ts_ns >= 0 && e.vp != TraceNode::kUnknownVp) ++stamped;
  EXPECT_GT(stamped, 0u);

  // The stamped trace round-trips through the v3 text format.
  std::stringstream io;
  trace.save(io);
  TraceGraph reloaded;
  std::string err;
  ASSERT_TRUE(reloaded.load(io, &err)) << err;
  EXPECT_EQ(reloaded.nodes().size(), trace.nodes().size());
  EXPECT_EQ(reloaded.edges().size(), trace.edges().size());
}

TEST(ProfileMode, ChromeTraceJsonHasTracksSpansAndFlows) {
  Options o;
  o.num_vps = 2;
  o.profile = true;
  Runtime rt(o);
  EXPECT_EQ(run_profiled_fib(rt, 9), 34);

  const std::string json = observe::chrome_trace_json(rt.trace());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Named tracks exist. Which tids carried spans is scheduling-dependent
  // (on a loaded 1-core host every span can land on one executor), so
  // assert the metadata shape, not a specific VP number.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_sort_index\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);  // flow start
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);  // flow finish
  // Balanced braces/brackets — cheap structural validity check (check.sh
  // runs the real `python3 -m json.tool` validation on the demo's trace).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ProfileMode, FibParallelismGrowsWithInputSize) {
  // Work grows ~phi^n while span grows ~n, so T1/Tinf climbs with the
  // input. Measured intervals nest — a parent's span covers any child it
  // join-inlined — so the observed ratio saturates well below the DAG
  // bound; what stays robust is the growth from a near-serial small input
  // to a saturated large one. Best-of-3 per size irons out OS noise.
  const auto parallelism_of = [](long n) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      Options o;
      o.num_vps = 2;
      o.profile = true;
      Runtime rt(o);
      run_profiled_fib(rt, n);
      const auto profiles = job_profiles(rt.trace());
      double work = 0, span = 0;
      for (const auto& p : profiles) {
        work += static_cast<double>(p.work_ns);
        span = std::max(span, static_cast<double>(p.span_ns));
      }
      if (span > 0) best = std::max(best, work / span);
    }
    return best;
  };
  const double small = parallelism_of(5);
  const double large = parallelism_of(16);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small * 1.1);
}

}  // namespace
