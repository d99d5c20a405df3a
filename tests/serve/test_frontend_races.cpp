// TSan regression tests for the ServeFrontEnd teardown path.
//
// The historical bug: ServeFrontEnd::stop() joined the pump thread and
// returned, but completion callbacks of still-resolving jobs kept a raw
// reference to the transport — destroying the transport right after stop()
// let a late on_complete send on a dead object. The fix routes every
// callback through a shared Link whose transport pointer stop() nulls
// under the Link mutex; these tests hammer exactly that window and are
// meant to run under -DANAHY_SAN=thread (ctest -L tsan).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>

#include "cluster/serve_frontend.hpp"

namespace {

using namespace cluster;
using namespace std::chrono_literals;

std::vector<std::uint8_t> echo(std::span<const std::uint8_t> in) {
  return {in.begin(), in.end()};
}

TEST(FrontEndRaces, StopThenDestroyTransportWhileJobsResolve) {
  // Submit a burst, then stop the front-end and destroy the fabric while
  // the server is still resolving: no completion callback may touch the
  // destroyed transport (TSan/ASan would flag it).
  for (int round = 0; round < 20; ++round) {
    auto fabric = make_memory_fabric(2);
    Registry reg;
    reg.add("echo", echo);
    anahy::serve::ServerOptions opts;
    opts.runtime.num_vps = 2;
    anahy::serve::JobServer server(std::move(opts));
    auto frontend =
        std::make_unique<ServeFrontEnd>(server, *fabric[0], reg);

    auto client = std::make_unique<AsyncServeClient>(*fabric[1], 0);
    for (int i = 0; i < 16; ++i) (void)client->submit_async("echo", {1, 2, 3});

    // Give the pump a moment to hand some submissions to the server, then
    // tear down mid-flight.
    std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    frontend->stop();
    client.reset();     // its pump drives fabric[1]
    fabric.clear();     // transports gone
    server.drain();     // jobs resolve; callbacks must drop their replies
    frontend.reset();
  }
}

TEST(FrontEndRaces, StopRacesCompletionCallbacks) {
  // stop() from the test thread races the VPs' on_complete callbacks
  // directly (no sleep staging): the Link mutex must order "detach
  // transport" against every in-flight send.
  for (int round = 0; round < 20; ++round) {
    auto fabric = make_memory_fabric(2);
    Registry reg;
    reg.add("echo", echo);
    anahy::serve::ServerOptions opts;
    opts.runtime.num_vps = 4;
    anahy::serve::JobServer server(std::move(opts));
    ServeFrontEnd frontend(server, *fabric[0], reg);

    auto client = std::make_unique<AsyncServeClient>(*fabric[1], 0);
    for (int i = 0; i < 32; ++i) (void)client->submit_async("echo", {9});

    std::thread stopper([&] { frontend.stop(); });
    stopper.join();
    client.reset();  // its pump drives fabric[1]
    fabric.clear();
    server.drain();
  }
}

TEST(FrontEndRaces, DestructorAfterServerDrainIsClean) {
  // The benign order (drain first, then stop) must also stay clean.
  auto fabric = make_memory_fabric(2);
  Registry reg;
  reg.add("echo", echo);
  anahy::serve::JobServer server(anahy::serve::ServerOptions{});
  {
    ServeFrontEnd frontend(server, *fabric[0], reg);
    AsyncServeClient client(*fabric[1], 0);
    auto fut = client.submit_async("echo", {4, 2});
    ASSERT_EQ(fut.wait_for(2s), std::future_status::ready);
    EXPECT_EQ(fut.get().error, anahy::kOk);
    server.drain();
  }  // ~ServeFrontEnd after drain
}

}  // namespace
