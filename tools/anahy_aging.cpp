// anahy-aging: offline memory-state analysis of an `anahy-series v1` file
// (aging/leak detection; stable ANAHY-A00x codes, table in docs/AGING.md).
//
//   anahy-aging [--json] [--summary] [--gap-min-ns=N]
//               [--baseline=<series>] <series-file>
//   anahy-aging --rejuvenate=<host:port>
//
// The series file is the text format written by aging::Series::save — a
// JobServer records one via record_aging_sample() (see examples/job_server
// or bench/aging_soak for producers). The detectors look for the signatures
// the title paper (DSN 2003) ties to software aging: sustained heap growth,
// fragmentation creep, latency creep correlated with memory, per-size-class
// leaks, and a widening multifractal spectrum of the allocation series.
//
// --gap-min-ns=N raises the A005 gap detector's absolute floor: a series
// sampled live on a time-shared (or sanitized) host picks up scheduler
// stalls that are environmental, not data corruption — CI passes a
// stall-sized floor when linting a series it just recorded.
//
// --baseline=<series> analyzes a second series with the same options and
// reports per-metric slope deltas (current minus baseline) — the question
// "did this build/config age faster than the last one?" answered without a
// spreadsheet. The exit code still reflects the *current* series alone.
//
// --rejuvenate=<host:port> is the operator command of docs/REJUV.md: it
// connects to a serve deployment bootstrapped via tcp_coordinator (the CLI
// joins as a tcp_worker), sends one kRejuvenate frame and prints the cycle
// report. No series file is read in this mode. Against an anahy::mesh,
// --node=N addresses any node: the connected server forwards the command
// to mesh node rank N (docs/MESH.md) and that node replies directly —
// one entry point rejuvenates the whole fleet, node by node.
//
// Exit code: 0 clean (or rejuvenation performed), 2 findings, 1 the file
// could not be read or parsed, or the rejuvenation target was unreachable
// (loading is all-or-nothing; a truncated file yields a one-line error
// naming the offending line, never an analysis of a silent prefix).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "anahy/aging/analyze.hpp"
#include "anahy/aging/series.hpp"
#include "cluster/serve_frontend.hpp"
#include "cluster/transport.hpp"

namespace {

int usage() {
  std::cerr << "usage: anahy-aging [--json] [--summary] [--gap-min-ns=N] "
               "[--baseline=<series>] <series-file>\n"
               "       anahy-aging --rejuvenate=<host:port> [--node=N]\n";
  return 1;
}

/// Loads an anahy-series file, mapping every failure to a one-line error
/// and the CLI's exit-1 convention.
bool load_series(const std::string& path, anahy::aging::Series& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "anahy-aging: cannot open '" << path << "'\n";
    return false;
  }
  std::string error;
  if (!out.load(in, &error)) {
    std::cerr << "anahy-aging: '" << path
              << "' is not a readable anahy-series file (" << error << ")\n";
    return false;
  }
  return true;
}

/// `--rejuvenate=<host:port>`: join the coordinator's mesh as a worker and
/// issue one kRejuvenate command through the serve client's retry envelope.
/// `node` addresses a specific mesh node (kRejuvTargetSelf = the server
/// we connect to cycles itself).
int run_rejuvenate(const std::string& target, std::uint32_t node) {
  const auto colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == target.size())
    return usage();
  const std::string host = target.substr(0, colon);
  std::uint16_t port = 0;
  try {
    const int p = std::stoi(target.substr(colon + 1));
    if (p <= 0 || p > 65535) return usage();
    port = static_cast<std::uint16_t>(p);
  } catch (...) {
    return usage();
  }

  std::unique_ptr<cluster::Transport> tp;
  try {
    tp = cluster::tcp_worker(host, port);
  } catch (const std::exception& e) {
    std::cerr << "anahy-aging: cannot join coordinator at " << target << " ("
              << e.what() << ")\n";
    return 1;
  }
  cluster::AsyncServeClient client(*tp, /*server_node=*/0);
  std::string report;
  if (client.rejuvenate(report, cluster::CallOptions{}, node) != anahy::kOk) {
    std::cerr << "anahy-aging: rejuvenation command to " << target
              << (node != cluster::kRejuvTargetSelf
                      ? " (node " + std::to_string(node) + ")"
                      : "")
              << " went unanswered (server unreachable)\n";
    return 1;
  }
  std::cout << report << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool summary = false;
  anahy::aging::AnalyzeOptions opt;
  std::string path;
  std::string baseline_path;
  std::string rejuv_target;
  std::uint32_t rejuv_node = cluster::kRejuvTargetSelf;
  const std::string gap_flag = "--gap-min-ns=";
  const std::string baseline_flag = "--baseline=";
  const std::string rejuv_flag = "--rejuvenate=";
  const std::string node_flag = "--node=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") json = true;
    else if (arg == "--summary") summary = true;
    else if (arg.rfind(gap_flag, 0) == 0) {
      try {
        opt.gap_min_ns = std::stoll(arg.substr(gap_flag.size()));
      } catch (...) {
        return usage();
      }
    }
    else if (arg.rfind(baseline_flag, 0) == 0) {
      baseline_path = arg.substr(baseline_flag.size());
      if (baseline_path.empty()) return usage();
    }
    else if (arg.rfind(rejuv_flag, 0) == 0) {
      rejuv_target = arg.substr(rejuv_flag.size());
      if (rejuv_target.empty()) return usage();
    }
    else if (arg.rfind(node_flag, 0) == 0) {
      try {
        const long n = std::stol(arg.substr(node_flag.size()));
        if (n < 0) return usage();
        rejuv_node = static_cast<std::uint32_t>(n);
      } catch (...) {
        return usage();
      }
    }
    else if (!arg.empty() && arg.front() == '-') return usage();
    else if (path.empty()) path = arg;
    else return usage();
  }
  if (!rejuv_target.empty()) return run_rejuvenate(rejuv_target, rejuv_node);
  if (rejuv_node != cluster::kRejuvTargetSelf) return usage();
  if (path.empty()) return usage();

  anahy::aging::Series series;
  if (!load_series(path, series)) return 1;
  const anahy::aging::Analysis a = anahy::aging::analyze(series, opt);

  if (baseline_path.empty()) {
    if (json) {
      std::cout << anahy::aging::to_json(a);
    } else {
      std::cout << anahy::aging::format_findings(a.findings);
      if (summary) {
        std::cout << "series: " << a.points << " point(s), " << a.jobs
                  << " job(s); heap " << a.heap_slope_per_job
                  << " bytes/job; slack " << a.frag_slope_per_job
                  << " bytes/job; latency " << a.lat_slope_per_job
                  << " ns/job (corr " << a.heap_lat_corr << "); hurst "
                  << a.hurst << "; " << a.findings.size() << " finding(s)\n";
      }
    }
    return a.findings.empty() ? 0 : 2;
  }

  // --baseline: same detectors, same options, then current-minus-baseline
  // deltas on the trend statistics dashboards actually track.
  anahy::aging::Series base_series;
  if (!load_series(baseline_path, base_series)) return 1;
  const anahy::aging::Analysis b = anahy::aging::analyze(base_series, opt);

  if (json) {
    std::cout << "{\n\"current\": " << anahy::aging::to_json(a)
              << ",\n\"baseline\": " << anahy::aging::to_json(b)
              << ",\n\"delta\": {"
              << "\"heap_slope_per_job\": "
              << (a.heap_slope_per_job - b.heap_slope_per_job)
              << ", \"frag_slope_per_job\": "
              << (a.frag_slope_per_job - b.frag_slope_per_job)
              << ", \"lat_slope_per_job\": "
              << (a.lat_slope_per_job - b.lat_slope_per_job)
              << ", \"heap_lat_corr\": " << (a.heap_lat_corr - b.heap_lat_corr)
              << ", \"hurst\": " << (a.hurst - b.hurst)
              << ", \"findings\": "
              << (static_cast<long long>(a.findings.size()) -
                  static_cast<long long>(b.findings.size()))
              << "}\n}\n";
  } else {
    std::cout << anahy::aging::format_findings(a.findings);
    std::cout << "baseline: " << baseline_path << " (" << b.points
              << " point(s), " << b.findings.size() << " finding(s))\n"
              << "delta: heap " << (a.heap_slope_per_job - b.heap_slope_per_job)
              << " bytes/job; slack "
              << (a.frag_slope_per_job - b.frag_slope_per_job)
              << " bytes/job; latency "
              << (a.lat_slope_per_job - b.lat_slope_per_job)
              << " ns/job; corr " << (a.heap_lat_corr - b.heap_lat_corr)
              << "; hurst " << (a.hurst - b.hurst) << "\n";
    if (summary) {
      std::cout << "series: " << a.points << " point(s), " << a.jobs
                << " job(s); heap " << a.heap_slope_per_job
                << " bytes/job; slack " << a.frag_slope_per_job
                << " bytes/job; latency " << a.lat_slope_per_job
                << " ns/job (corr " << a.heap_lat_corr << "); hurst "
                << a.hurst << "; " << a.findings.size() << " finding(s)\n";
    }
  }
  return a.findings.empty() ? 0 : 2;
}
