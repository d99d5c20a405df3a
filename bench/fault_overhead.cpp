// Benchmark: what does the fault-hardening layer cost the clean path?
//
// PR "anahy::fault" added containment (try/catch around every job body),
// the hardened wire envelope (magic + version + length + CRC-32), and the
// retry/dedup/heartbeat machinery in the serve front-end. All of it is
// supposed to be invisible when nothing goes wrong. Three phases check:
//
//  A. Served throughput — the same served-fib figure serve_sustained_load
//     reports (fib DAG as one job at 4 VPs). Compared against --baseline,
//     the served_tasks_per_sec recorded in BENCH_serve.json BEFORE the
//     hardening landed. The acceptance bar is a ratio within 2%
//     (measurement noise aside, the containment try/catch is table-driven
//     and costs nothing until a throw).
//
//  B. Codec — encode+decode ops/s on a representative kJobSubmit frame.
//     The envelope adds 11 bytes and one CRC-32 pass per side over the
//     plain body serialization; `envelope_reject_per_sec` shows the
//     rejection fast path (bad magic dies before the CRC).
//
//  C. Remote round-trip — sequential AsyncServeClient::call() latency over
//     the in-memory fabric, bare vs wrapped in a zero-probability
//     FaultyTransport (the injector's bookkeeping is the only delta).
//
// Emits BENCH_fault.json (override with --out=...).
//
// Flags: --fib=N (default 21)  --reps=R (default 3)
//        --baseline=T tasks/s (default from BENCH_serve.json: 3053308)
//        --calls=C round-trips (default 2000)  --out=PATH
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "anahy/fault/fault.hpp"
#include "anahy/serve/job_server.hpp"
#include "apps/fib_app.hpp"
#include "benchutil/cli.hpp"
#include "benchutil/timer.hpp"
#include "cluster/serve_frontend.hpp"

namespace {

constexpr int kVps = 4;

// ---------------------------------------------------------------- phase A

double measure_served(long fib_n, int reps) {
  const long tasks = apps::fib_task_count(fib_n);
  const long expect = apps::fib_sequential(fib_n);
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    anahy::serve::ServerOptions so;
    so.runtime.num_vps = kVps;
    anahy::serve::JobServer server(std::move(so));
    {  // warm-up job, untimed
      anahy::serve::JobSpec warm;
      warm.body = [&server](void*) -> void* {
        return reinterpret_cast<void*>(apps::fib_anahy(server.runtime(), 5));
      };
      (void)server.submit(std::move(warm)).wait();
    }
    anahy::serve::JobSpec spec;
    spec.label = "fib";
    spec.body = [&server, fib_n](void*) -> void* {
      return reinterpret_cast<void*>(apps::fib_anahy(server.runtime(), fib_n));
    };
    benchutil::Timer t;
    anahy::serve::JobHandle h = server.submit(std::move(spec));
    if (h.wait() != anahy::kOk ||
        reinterpret_cast<long>(h.result().value) != expect) {
      std::fprintf(stderr, "FATAL: served fib job failed\n");
      std::exit(1);
    }
    const double s = t.elapsed_seconds();
    if (rep == 0 || s < best) best = s;
  }
  return static_cast<double>(tasks) / best;
}

// ---------------------------------------------------------------- phase B

struct Codec {
  double round_trips_per_sec = 0;   // encode + decode_frame, valid frame
  double rejects_per_sec = 0;       // decode_frame, bad-magic frame
  std::size_t frame_bytes = 0;
};

Codec measure_codec() {
  // Representative submission: 64-byte payload, short function name.
  const std::vector<std::uint8_t> payload(64, 0xAB);
  const cluster::Message msg = cluster::make_job_submit(
      /*client=*/1, /*request_id=*/42, /*priority=*/1, /*timeout_ns=*/-1,
      /*check=*/false, "compress_chunk", payload);

  Codec out;
  out.frame_bytes = cluster::encode(msg).size();

  constexpr int kOps = 200'000;
  {
    benchutil::Timer t;
    std::size_t sink = 0;
    for (int i = 0; i < kOps; ++i) {
      const auto frame = cluster::encode(msg);
      const auto d = cluster::decode_frame(frame);
      if (!d.ok) {
        std::fprintf(stderr, "FATAL: clean frame rejected\n");
        std::exit(1);
      }
      sink += d.msg.job_submit.payload.size();
    }
    const double s = t.elapsed_seconds();
    out.round_trips_per_sec = kOps / s;
    if (sink == 0) std::fprintf(stderr, "unreachable\n");
  }
  {
    auto bad = cluster::encode(msg);
    bad[0] ^= 0xFF;  // bad magic: rejected before the CRC pass
    benchutil::Timer t;
    std::size_t rejected = 0;
    for (int i = 0; i < kOps; ++i)
      rejected += cluster::decode_frame(bad).ok ? 0 : 1;
    const double s = t.elapsed_seconds();
    if (rejected != kOps) {
      std::fprintf(stderr, "FATAL: bad frame accepted\n");
      std::exit(1);
    }
    out.rejects_per_sec = kOps / s;
  }
  return out;
}

// ---------------------------------------------------------------- phase C

std::vector<std::uint8_t> echo(std::span<const std::uint8_t> in) {
  return {in.begin(), in.end()};
}

/// Sequential call() round-trips per second over the memory fabric.
/// `wrap_faulty` interposes a zero-probability FaultyTransport under the
/// client: same path, plus the injector's per-op bookkeeping.
double measure_remote(int calls, bool wrap_faulty) {
  auto fabric = cluster::make_memory_fabric(2);
  cluster::Registry reg;
  reg.add("echo", echo);
  anahy::serve::ServerOptions so;
  so.runtime.num_vps = kVps;
  anahy::serve::JobServer server(std::move(so));
  cluster::ServeFrontEnd frontend(server, *fabric[0], reg);

  std::unique_ptr<cluster::Transport> endpoint = std::move(fabric[1]);
  if (wrap_faulty)
    endpoint = std::make_unique<anahy::fault::FaultyTransport>(
        std::move(endpoint), anahy::fault::FaultProfile{});
  cluster::AsyncServeClient client(*endpoint, /*server_node=*/0);

  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  // Warm both sides (pool allocation, first-submission setup), untimed.
  for (int i = 0; i < 32; ++i) (void)client.call("echo", payload);

  benchutil::Timer t;
  for (int i = 0; i < calls; ++i) {
    const auto reply = client.call("echo", payload);
    if (reply.error != anahy::kOk) {
      std::fprintf(stderr, "FATAL: clean-path call failed (%d)\n",
                   reply.error);
      std::exit(1);
    }
  }
  return calls / t.elapsed_seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Cli cli(argc, argv);
  const long fib_n = cli.get_int("fib", 21);
  const int reps = cli.get_int("reps", 3);
  const double baseline =
      static_cast<double>(cli.get_int("baseline", 3053308));
  const int calls = cli.get_int("calls", 2000);
  const std::string out = cli.get("out", "BENCH_fault.json");

  std::printf("fault_overhead: served fib(%ld) at %d VPs vs baseline %.0f "
              "tasks/s, best of %d reps\n",
              fib_n, kVps, baseline, reps);

  const double served = measure_served(fib_n, reps);
  const double ratio = served / baseline;
  std::printf("phase A  served %.0f tasks/s  ratio vs pre-hardening %.3f\n",
              served, ratio);

  const Codec codec = measure_codec();
  std::printf("phase B  codec %.0f round-trips/s (%zu-byte frame), "
              "%.0f rejects/s on bad magic\n",
              codec.round_trips_per_sec, codec.frame_bytes,
              codec.rejects_per_sec);

  const double bare = measure_remote(calls, /*wrap_faulty=*/false);
  const double wrapped = measure_remote(calls, /*wrap_faulty=*/true);
  std::printf("phase C  remote %.0f calls/s bare, %.0f calls/s under a "
              "zero-profile FaultyTransport (%.3fx)\n",
              bare, wrapped, wrapped / bare);

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fault_overhead\",\n");
  std::fprintf(f, "  \"vps\": %d,\n", kVps);
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f,
               "  \"clean_path\": {\"workload\": \"fib\", \"fib_n\": %ld, "
               "\"served_tasks_per_sec\": %.0f, "
               "\"baseline_tasks_per_sec\": %.0f, \"ratio\": %.3f},\n",
               fib_n, served, baseline, ratio);
  std::fprintf(f,
               "  \"codec\": {\"frame_bytes\": %zu, "
               "\"round_trips_per_sec\": %.0f, "
               "\"bad_magic_rejects_per_sec\": %.0f},\n",
               codec.frame_bytes, codec.round_trips_per_sec,
               codec.rejects_per_sec);
  std::fprintf(f,
               "  \"remote\": {\"calls\": %d, \"bare_calls_per_sec\": %.0f, "
               "\"faulty_wrapped_calls_per_sec\": %.0f, "
               "\"wrapped_vs_bare\": %.3f}\n",
               calls, bare, wrapped, wrapped / bare);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
