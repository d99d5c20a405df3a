// google-benchmark microbenchmarks of the Anahy core primitives: task
// spawn/join cost, attribute ops, ready-list policies and the lock-free
// deque. These quantify the "no thread is created" claim at the
// microsecond scale (an athread_create is a queue push, not a clone()).
#include <benchmark/benchmark.h>
#include <time.h>

#include <atomic>
#include <cstdint>

#include "anahy/anahy.hpp"
#include "anahy/policy_steal.hpp"
#include "anahy/steal_deque.hpp"

namespace {

void BM_SpawnJoin_1vp(benchmark::State& state) {
  anahy::Runtime rt(anahy::Options{.num_vps = 1});
  for (auto _ : state) {
    auto h = anahy::spawn(rt, [] { return 1; });
    benchmark::DoNotOptimize(h.join());
  }
}
BENCHMARK(BM_SpawnJoin_1vp);

void BM_SpawnJoin_4vp(benchmark::State& state) {
  anahy::Runtime rt(anahy::Options{.num_vps = 4});
  for (auto _ : state) {
    auto h = anahy::spawn(rt, [] { return 1; });
    benchmark::DoNotOptimize(h.join());
  }
}
BENCHMARK(BM_SpawnJoin_4vp);

void BM_RawForkJoin(benchmark::State& state) {
  anahy::Runtime rt(anahy::Options{.num_vps = 1});
  for (auto _ : state) {
    anahy::TaskPtr t =
        rt.fork([](void* p) -> void* { return p; }, nullptr);
    void* out = nullptr;
    rt.join(t, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RawForkJoin);

void BM_ThreadCreateJoin(benchmark::State& state) {
  // The OS-thread cost Anahy avoids (compare against BM_RawForkJoin).
  for (auto _ : state) {
    std::thread t([] {});
    t.join();
  }
}
BENCHMARK(BM_ThreadCreateJoin);

void BM_FanOut(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  anahy::Runtime rt(anahy::Options{.num_vps = 4});
  for (auto _ : state) {
    std::vector<anahy::TaskPtr> tasks;
    tasks.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      tasks.push_back(rt.fork([](void*) -> void* { return nullptr; }, nullptr));
    for (auto& t : tasks) rt.join(t, nullptr);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FanOut)->Arg(16)->Arg(256)->Arg(4096);

/// Fresh, unclaimed tasks for the ready-list legs. A task is consumed by
/// its first claim, so reusing one would time a stale-entry drop and an
/// empty sweep instead of a push and a pop. Batches are built outside the
/// timed region.
class FreshTasks {
 public:
  explicit FreshTasks(benchmark::State& state) : state_(state) {}

  const anahy::TaskPtr& next() {
    if (next_ == batch_.size()) refill();
    return batch_[next_++];
  }

 private:
  void refill() {
    state_.PauseTiming();
    batch_.clear();
    for (std::size_t i = 0; i < kBatch; ++i)
      batch_.push_back(std::make_shared<anahy::Task>(
          i + 1, [](void*) -> void* { return nullptr; }, nullptr,
          anahy::TaskAttributes{}, 0, 1));
    next_ = 0;
    state_.ResumeTiming();
  }

  static constexpr std::size_t kBatch = 4096;
  benchmark::State& state_;
  std::vector<anahy::TaskPtr> batch_;
  std::size_t next_ = 0;
};

/// Pushes a fresh task on VP 0 and takes it back from `taker`'s side each
/// iteration; every iteration must claim its task.
void push_then_take(benchmark::State& state, anahy::SchedulingPolicy& policy,
                    int taker) {
  FreshTasks tasks(state);
  std::int64_t claimed = 0;
  for (auto _ : state) {
    policy.push(tasks.next(), 0);
    anahy::TaskPtr got = policy.pop(taker);
    if (got == nullptr) {
      state.SkipWithError("the pushed task was not taken back");
      break;
    }
    benchmark::DoNotOptimize(got);
    ++claimed;
  }
  state.counters["claimed"] = static_cast<double>(claimed);
}

void BM_PolicyPushPop(benchmark::State& state) {
  const auto kind = static_cast<anahy::PolicyKind>(state.range(0));
  anahy::observe::Telemetry tele(4);
  auto policy = anahy::make_policy(kind, 4, tele);
  push_then_take(state, *policy, 0);
}
BENCHMARK(BM_PolicyPushPop)
    ->Arg(static_cast<int>(anahy::PolicyKind::kFifo))
    ->Arg(static_cast<int>(anahy::PolicyKind::kLifo))
    ->Arg(static_cast<int>(anahy::PolicyKind::kWorkStealing));

void BM_StealPath(benchmark::State& state) {
  anahy::observe::Telemetry tele(4);
  anahy::WorkStealingPolicy policy(4, tele);
  push_then_take(state, policy, 3);  // always a cross-VP steal
}
BENCHMARK(BM_StealPath);

void BM_ChaseLevOwner(benchmark::State& state) {
  anahy::ChaseLevDeque<int> deque;
  for (auto _ : state) {
    deque.push_bottom(1);
    benchmark::DoNotOptimize(deque.pop_bottom());
  }
}
BENCHMARK(BM_ChaseLevOwner);

void BM_AttrRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    anahy::athread_attr_t attr;
    anahy::athread_attr_init(&attr);
    anahy::athread_attr_setjoinnumber(&attr, 3);
    int joins = 0;
    anahy::athread_attr_getjoinnumber(&attr, &joins);
    anahy::athread_attr_destroy(&attr);
    benchmark::DoNotOptimize(joins);
  }
}
BENCHMARK(BM_AttrRoundTrip);

long bench_fib(anahy::Runtime& rt, long n) {
  if (n < 2) return n;
  auto h = anahy::spawn(rt, bench_fib, std::ref(rt), n - 1);
  const long b = bench_fib(rt, n - 2);
  return h.join() + b;
}

void BM_FibTaskPerCall(benchmark::State& state) {
  anahy::Runtime rt(anahy::Options{.num_vps = 2});
  for (auto _ : state)
    benchmark::DoNotOptimize(bench_fib(rt, static_cast<long>(state.range(0))));
}
BENCHMARK(BM_FibTaskPerCall)->Arg(12)->Arg(16);

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// The served-job shape: fib(n) forked from inside a detached root task
/// that a worker VP runs, so every fork pushes to a VP-owned deque and the
/// two workers trade tasks by stealing. (BM_FibTaskPerCall forks from the
/// main thread instead.) Main only submits the root and sleeps until it
/// is done. cpu_ns_per_task is process CPU time over tasks created, so
/// the idle VP's steal sweeps and the handoff count against each task.
void BM_FibInsideRoot(benchmark::State& state) {
  anahy::Runtime rt(anahy::Options{.num_vps = 2, .main_participates = false});
  struct Root {
    anahy::Runtime* rt;
    long n;
    long result = 0;
    std::atomic<bool> done{false};
  };
  anahy::TaskAttributes detached;
  detached.set_join_number(0);
  // One Root for the whole run: a finishing body may still be inside
  // notify_one when main moves on, so the flag must outlive the iteration.
  Root root{&rt, static_cast<long>(state.range(0))};
  const std::uint64_t tasks0 = rt.stats().tasks_created;
  const std::int64_t cpu0 = process_cpu_ns();
  for (auto _ : state) {
    root.done.store(false, std::memory_order_relaxed);
    rt.fork(
        [](void* p) -> void* {
          auto* r = static_cast<Root*>(p);
          r->result = bench_fib(*r->rt, r->n);
          r->done.store(true, std::memory_order_release);
          r->done.notify_one();
          return nullptr;
        },
        &root, detached);
    root.done.wait(false, std::memory_order_acquire);
    benchmark::DoNotOptimize(root.result);
  }
  const std::int64_t cpu = process_cpu_ns() - cpu0;
  const std::uint64_t tasks = rt.stats().tasks_created - tasks0;
  state.counters["cpu_ns_per_task"] =
      tasks == 0 ? 0.0 : static_cast<double>(cpu) / static_cast<double>(tasks);
}
BENCHMARK(BM_FibInsideRoot)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
