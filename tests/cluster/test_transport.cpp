#include "cluster/transport.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

namespace {

using namespace cluster;
using namespace std::chrono_literals;

class FabricTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::vector<std::unique_ptr<Transport>> make(int n) {
    const std::string kind(GetParam());
    if (kind == "memory") return make_memory_fabric(n);
    return make_epoll_fabric(n);
  }
};

TEST_P(FabricTest, PointToPointDelivery) {
  auto fabric = make(2);
  fabric[0]->send(1, {1, 2, 3});
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(fabric[1]->recv(frame, 500ms));
  EXPECT_EQ(frame, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST_P(FabricTest, RecvTimesOutWhenSilent) {
  auto fabric = make(2);
  std::vector<std::uint8_t> frame;
  EXPECT_FALSE(fabric[0]->recv(frame, 5ms));
}

TEST_P(FabricTest, SelfSendWorks) {
  auto fabric = make(2);
  fabric[0]->send(0, {42});
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(fabric[0]->recv(frame, 500ms));
  EXPECT_EQ(frame, (std::vector<std::uint8_t>{42}));
}

// A receiver may answer an id it read from inside a frame, so `dst` is
// untrusted input: every fabric must refuse it, never index past its
// peers. send_soft turns the throw into a counted loss.
TEST_P(FabricTest, SendToAnUnknownNodeThrows) {
  auto fabric = make(2);
  EXPECT_THROW(fabric[0]->send(2, {1}), std::runtime_error);
  EXPECT_THROW(fabric[0]->send(-1, {1}), std::runtime_error);
  EXPECT_FALSE(send_soft(*fabric[0], 7, {1}));
  std::vector<std::uint8_t> frame;
  EXPECT_FALSE(fabric[0]->recv(frame, 5ms));
  EXPECT_FALSE(fabric[1]->recv(frame, 5ms));
}

TEST_P(FabricTest, OrderPreservedPerSenderPair) {
  auto fabric = make(2);
  for (std::uint8_t i = 0; i < 50; ++i) fabric[0]->send(1, {i});
  for (std::uint8_t i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(fabric[1]->recv(frame, 500ms));
    EXPECT_EQ(frame[0], i);
  }
}

TEST_P(FabricTest, AllPairsInAMesh) {
  constexpr int kN = 4;
  auto fabric = make(kN);
  for (int src = 0; src < kN; ++src)
    for (int dst = 0; dst < kN; ++dst)
      if (src != dst)
        fabric[static_cast<std::size_t>(src)]->send(
            dst, {static_cast<std::uint8_t>(src * 16 + dst)});

  for (int dst = 0; dst < kN; ++dst) {
    int received = 0;
    std::vector<std::uint8_t> frame;
    while (fabric[static_cast<std::size_t>(dst)]->recv(frame, 200ms)) {
      EXPECT_EQ(frame[0] % 16, dst);
      ++received;
      if (received == kN - 1) break;
    }
    EXPECT_EQ(received, kN - 1) << "node " << dst;
  }
}

TEST_P(FabricTest, LargeFramesSurvive) {
  auto fabric = make(2);
  std::vector<std::uint8_t> big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 31);
  fabric[0]->send(1, big);
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(fabric[1]->recv(frame, 2s));
  EXPECT_EQ(frame, big);
}

TEST_P(FabricTest, ConcurrentSendersDoNotCorruptFrames) {
  auto fabric = make(3);
  constexpr int kEach = 200;
  auto sender = [&](int src) {
    for (int i = 0; i < kEach; ++i) {
      std::vector<std::uint8_t> frame(17, static_cast<std::uint8_t>(src));
      fabric[static_cast<std::size_t>(src)]->send(2, std::move(frame));
    }
  };
  std::thread t0(sender, 0);
  std::thread t1(sender, 1);
  int got = 0;
  std::vector<std::uint8_t> frame;
  while (got < 2 * kEach && fabric[2]->recv(frame, 1s)) {
    ASSERT_EQ(frame.size(), 17u);
    for (const auto b : frame) EXPECT_EQ(b, frame[0]);  // no interleaving
    ++got;
  }
  t0.join();
  t1.join();
  EXPECT_EQ(got, 2 * kEach);
}

TEST_P(FabricTest, NodeIdentity) {
  auto fabric = make(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(fabric[static_cast<std::size_t>(i)]->node_id(), i);
    EXPECT_EQ(fabric[static_cast<std::size_t>(i)]->node_count(), 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Fabrics, FabricTest,
                         ::testing::Values("memory", "epoll"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
