// Multi-process cluster integration: the TCP bootstrap units, plus a run
// of the mesh_demo example, which forks real worker processes, drives a
// mesh over TCP under seeded link cuts and audits exactly-once.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <string>

#include "cluster/transport.hpp"

#ifndef ANAHY_WORKER_BINARY
#define ANAHY_WORKER_BINARY ""
#endif

namespace {

using namespace cluster;

std::uint16_t pick_port() {
  // Spread across runs; collisions just fail fast and loudly.
  return static_cast<std::uint16_t>(
      20000 + (::getpid() * 131 + static_cast<int>(::time(nullptr))) % 20000);
}

TEST(TcpBootstrap, SingleNodeClusterNeedsNoWorkers) {
  auto transport = tcp_coordinator(0, 1);  // degenerate: just this process
  EXPECT_EQ(transport->node_id(), 0);
  EXPECT_EQ(transport->node_count(), 1);
  // Self-send still works.
  transport->send(0, {42});
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(transport->recv(frame, std::chrono::milliseconds(100)));
  EXPECT_EQ(frame, (std::vector<std::uint8_t>{42}));
}

TEST(TcpBootstrap, WorkerRejectsNonNumericHost) {
  EXPECT_THROW((void)tcp_worker("not-an-ip", 1), std::invalid_argument);
}

TEST(TcpBootstrap, CoordinatorRejectsZeroNodes) {
  EXPECT_THROW((void)tcp_coordinator(0, 0), std::invalid_argument);
}

TEST(MultiProcessCluster, MeshDemoExactlyOnceAudit) {
  const std::string demo_bin = ANAHY_WORKER_BINARY;
  if (demo_bin.empty() || std::system(nullptr) == 0)
    GTEST_SKIP() << "mesh_demo binary unavailable";

  // Exit status 0 is the demo's audit: every job resolved kOk and the
  // workers' execution counts sum to exactly the resolved jobs.
  const std::string cmd = demo_bin + " --seed=20030623 --port=" +
                          std::to_string(pick_port()) + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
