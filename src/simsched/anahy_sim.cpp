// Simulated Anahy executive kernel: VP agents executing the same
// scheduling algorithm as src/anahy/scheduler.cpp, in virtual time.
#include <deque>
#include <memory>
#include <stdexcept>

#include "simsched/os_sim.hpp"
#include "simsched/simulate.hpp"

namespace simsched {
namespace {

enum class TState : std::uint8_t {
  kCreated,  ///< not yet forked
  kReady,
  kRunning,
  kFinished,
  kJoined,
};

/// Shared executive-kernel state for one simulation.
struct Kernel {
  const Program* program = nullptr;
  MachineModel machine;
  anahy::PolicyKind policy = anahy::PolicyKind::kWorkStealing;
  int num_vps = 0;
  bool help_first = true;

  std::vector<TState> state;
  std::deque<int> central_ready;               // fifo / lifo policies
  std::vector<std::deque<int>> vp_ready;       // work-stealing policy
  std::vector<std::vector<int>> join_waiters;  // tids waiting per task
  std::vector<int> sleepers;                   // tids parked (idle or join)
  bool done = false;

  std::uint64_t steals = 0;
  std::uint64_t tasks_executed = 0;
  std::vector<SimScheduleEntry> schedule;  // indexed by task id
  std::vector<int> schedule_index;         // task -> schedule slot (-1)

  void push_ready(int task, int vp, OsSim& sim) {
    state[static_cast<std::size_t>(task)] = TState::kReady;
    if (policy == anahy::PolicyKind::kWorkStealing) {
      vp_ready[static_cast<std::size_t>(vp)].push_back(task);
    } else {
      central_ready.push_back(task);
    }
    wake_sleepers(sim);
  }

  int pop_ready(int vp) {
    switch (policy) {
      case anahy::PolicyKind::kFifo: {
        if (central_ready.empty()) return -1;
        const int t = central_ready.front();
        central_ready.pop_front();
        return t;
      }
      case anahy::PolicyKind::kLifo: {
        if (central_ready.empty()) return -1;
        const int t = central_ready.back();
        central_ready.pop_back();
        return t;
      }
      case anahy::PolicyKind::kWorkStealing: {
        auto& own = vp_ready[static_cast<std::size_t>(vp)];
        if (!own.empty()) {
          const int t = own.back();  // owner end: LIFO
          own.pop_back();
          return t;
        }
        for (int i = 1; i <= num_vps; ++i) {
          auto& victim = vp_ready[static_cast<std::size_t>((vp + i) % num_vps)];
          if (victim.empty()) continue;
          const int t = victim.front();  // thief end: FIFO
          victim.pop_front();
          ++steals;
          return t;
        }
        return -1;
      }
    }
    return -1;
  }

  /// remove a specific ready task (join inlining); false if already taken.
  bool remove_ready(int task) {
    auto scrub = [&](std::deque<int>& q) {
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (*it == task) {
          q.erase(it);
          return true;
        }
      }
      return false;
    };
    if (policy == anahy::PolicyKind::kWorkStealing) {
      for (auto& q : vp_ready)
        if (scrub(q)) return true;
      return false;
    }
    return scrub(central_ready);
  }

  void wake_sleepers(OsSim& sim) {
    for (const int tid : sleepers) sim.wake(tid);
    sleepers.clear();
  }

  void begin_task(int task, int vp, OsSim& sim) {
    state[static_cast<std::size_t>(task)] = TState::kRunning;
    schedule_index[static_cast<std::size_t>(task)] =
        static_cast<int>(schedule.size());
    schedule.push_back({task, vp, sim.now(), sim.now()});
  }

  void finish_task(int task, OsSim& sim) {
    state[static_cast<std::size_t>(task)] = TState::kFinished;
    const int slot = schedule_index[static_cast<std::size_t>(task)];
    if (slot >= 0) schedule[static_cast<std::size_t>(slot)].end = sim.now();
    ++tasks_executed;
    if (task == 0) done = true;
    for (const int tid : join_waiters[static_cast<std::size_t>(task)])
      sim.wake(tid);
    join_waiters[static_cast<std::size_t>(task)].clear();
    wake_sleepers(sim);  // new help opportunities / shutdown
  }
};

/// One virtual processor.
class VpAgent final : public Agent {
 public:
  VpAgent(Kernel& kernel, int vp) : kernel_(kernel), vp_(vp) {}

  Action next(OsSim& sim) override {
    for (;;) {
      if (stack_.empty()) {
        if (kernel_.done) return Action::finish();
        const int task = kernel_.pop_ready(vp_);
        if (task < 0) {
          kernel_.sleepers.push_back(tid_of(sim));
          return Action::block();
        }
        begin(task, sim);
        continue;
      }

      Frame& f = stack_.back();
      const auto& segs =
          kernel_.program->tasks[static_cast<std::size_t>(f.task)].segments;
      if (f.seg == segs.size()) {
        const int finished = f.task;
        stack_.pop_back();
        kernel_.finish_task(finished, sim);
        continue;
      }

      const Segment& s = segs[f.seg];
      switch (s.kind) {
        case Segment::Kind::kCompute:
          ++f.seg;
          return Action::compute(s.cost);

        case Segment::Kind::kFork:
          ++f.seg;
          kernel_.push_ready(s.child, vp_, sim);
          return Action::compute(kernel_.machine.task_fork_cost);

        case Segment::Kind::kJoin: {
          const auto cs = kernel_.state[static_cast<std::size_t>(s.child)];
          if (cs == TState::kFinished || cs == TState::kJoined) {
            kernel_.state[static_cast<std::size_t>(s.child)] = TState::kJoined;
            ++f.seg;
            return Action::compute(kernel_.machine.task_join_cost);
          }
          // Join-inlining: run the target now if it has not started.
          // (Always allowed, even without help-first: a blocking-join
          // runtime still has to execute the target somewhere, and with
          // one VP inlining is the only way to make progress.)
          if (cs == TState::kReady && kernel_.remove_ready(s.child)) {
            begin(s.child, sim);
            continue;
          }
          if (kernel_.help_first) {
            // Help with any other ready task while the target runs.
            const int other = kernel_.pop_ready(vp_);
            if (other >= 0) {
              begin(other, sim);
              continue;
            }
          }
          // Nothing to do: sleep until the target finishes or new ready
          // work appears (both wake us).
          kernel_.join_waiters[static_cast<std::size_t>(s.child)].push_back(
              tid_of(sim));
          kernel_.sleepers.push_back(tid_of(sim));
          return Action::block();
        }
      }
    }
  }

  void set_tid(int tid) { tid_ = tid; }

 private:
  struct Frame {
    int task;
    std::size_t seg = 0;
  };

  void begin(int task, OsSim& sim) {
    kernel_.begin_task(task, vp_, sim);
    stack_.push_back({task, 0});
  }

  int tid_of(OsSim&) const { return tid_; }

  Kernel& kernel_;
  int vp_;
  int tid_ = -1;
  std::vector<Frame> stack_;
};

}  // namespace

SimResult simulate_anahy(const Program& program, int num_vps,
                         const MachineModel& machine,
                         anahy::PolicyKind policy, bool help_first) {
  if (num_vps < 1) throw std::invalid_argument("num_vps must be >= 1");
  program.validate();
  Kernel kernel;
  kernel.program = &program;
  kernel.machine = machine;
  kernel.policy = policy;
  kernel.num_vps = num_vps;
  kernel.help_first = help_first;
  kernel.state.assign(program.tasks.size(), TState::kCreated);
  kernel.schedule_index.assign(program.tasks.size(), -1);
  kernel.schedule.reserve(program.tasks.size());
  kernel.vp_ready.resize(static_cast<std::size_t>(num_vps));
  kernel.join_waiters.resize(program.tasks.size());

  OsSim sim(machine);
  std::vector<VpAgent*> agents;
  for (int vp = 0; vp < num_vps; ++vp) {
    auto agent = std::make_unique<VpAgent>(kernel, vp);
    VpAgent* raw = agent.get();
    const int tid = sim.spawn(std::move(agent));
    raw->set_tid(tid);
    agents.push_back(raw);
  }
  // The root flow starts ready; VP 0 (first in the runnable queue) takes it.
  kernel.state[0] = TState::kReady;
  if (policy == anahy::PolicyKind::kWorkStealing)
    kernel.vp_ready[0].push_back(0);
  else
    kernel.central_ready.push_back(0);

  sim.run();

  SimResult result;
  result.makespan = sim.now();
  result.work = program.work();
  result.span = program.span();
  result.context_switches = sim.context_switches();
  result.steals = kernel.steals;
  result.tasks_executed = kernel.tasks_executed;
  for (int vp = 0; vp < num_vps; ++vp) {
    result.per_vp_busy.push_back(sim.busy_time(vp));
    result.total_busy += sim.busy_time(vp);
  }
  result.schedule = std::move(kernel.schedule);
  return result;
}

SimResult simulate_sequential(const Program& program) {
  program.validate();
  SimResult result;
  result.work = program.work();
  result.span = program.span();
  result.makespan = result.work;
  result.total_busy = result.work;
  result.tasks_executed = program.tasks.size();
  return result;
}

SimResult simulate_sequential(const Program& program,
                              const MachineModel& machine) {
  if (machine.cpu_speed <= 0.0)
    throw std::invalid_argument("cpu_speed must be positive");
  SimResult result = simulate_sequential(program);
  result.makespan /= machine.cpu_speed;
  result.total_busy = result.makespan;
  return result;
}

}  // namespace simsched
