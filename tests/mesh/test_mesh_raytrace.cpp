// The paper's ray tracer as a distributed mesh workload: row bands of one
// frame rendered as jobs on three mesh nodes must assemble into exactly
// the image a local render produces.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "cluster/mesh/mesh_node.hpp"
#include "cluster/mesh/router.hpp"
#include "raytracer/raytracer.hpp"

namespace {

using namespace cluster;
using namespace cluster::mesh;
using namespace std::chrono_literals;

constexpr int kNodes = 3;
constexpr std::uint32_t kRouterRank = kNodes;

/// render_band payload: scene text | width | height | y0 | y1.
/// Result: RGB8 bytes of rows [y0, y1).
std::vector<std::uint8_t> render_band_fn(std::span<const std::uint8_t> in) {
  ByteReader r(in);
  const std::string scene_text = r.str();
  const int width = static_cast<int>(r.u32());
  const int height = static_cast<int>(r.u32());
  const int y0 = static_cast<int>(r.u32());
  const int y1 = static_cast<int>(r.u32());

  const auto sf = raytracer::parse_scene_string(scene_text);
  const auto camera = sf.camera(static_cast<double>(width) / height);
  raytracer::Framebuffer fb(width, height);
  raytracer::render_rows(sf.scene, camera, fb, y0, y1);

  const auto rgb = fb.to_rgb8();
  const std::size_t row_bytes = static_cast<std::size_t>(width) * 3;
  return {rgb.begin() + static_cast<std::ptrdiff_t>(y0 * row_bytes),
          rgb.begin() + static_cast<std::ptrdiff_t>(y1 * row_bytes)};
}

/// The procedural benchmark scene as scene-file text: each node re-parses
/// it, like shipping a scene file to render-farm nodes.
std::string bench_scene_text() {
  const auto bench = raytracer::build_bench_scene(30);
  raytracer::SceneFile sf;
  sf.scene = bench.scene;
  // Match build_bench_scene's camera parameters (aspect handled at parse).
  sf.cam_from = {0.0, 1.2, 2.5};
  sf.cam_at = {0.0, 0.2, -6.0};
  sf.cam_up = {0.0, 1.0, 0.0};
  sf.cam_vfov = 55.0;
  return scene_to_string(sf);
}

TEST(ClusterRaytrace, DistributedBandsMatchLocalRender) {
  constexpr int kSize = 48;
  constexpr int kBands = 6;
  const std::string scene_text = bench_scene_text();

  // Local reference from the same serialized description.
  const auto sf = raytracer::parse_scene_string(scene_text);
  raytracer::Framebuffer reference(kSize, kSize);
  raytracer::render(sf.scene, sf.camera(1.0), reference);

  auto fabric = make_memory_fabric(kNodes + 1);
  Registry reg;
  reg.add("render_band", render_band_fn);
  std::vector<std::unique_ptr<MeshNode>> nodes;
  for (int i = 0; i < kNodes; ++i) {
    MeshNodeOptions o;
    o.self = static_cast<std::uint32_t>(i);
    for (int p = 0; p < kNodes; ++p)
      if (p != i) o.peers.push_back(static_cast<std::uint32_t>(p));
    o.routers = {kRouterRank};
    o.server.runtime.num_vps = 1;
    nodes.push_back(std::make_unique<MeshNode>(
        *fabric[static_cast<std::size_t>(i)], reg, o));
  }
  MeshRouterOptions ro;
  ro.nodes = {0, 1, 2};
  ro.default_deadline = 30s;  // a band is milliseconds; never the limit
  MeshRouter router(*fabric[kRouterRank], ro);

  std::vector<std::uint64_t> ids;
  for (const auto& band : raytracer::split_rows(kSize, kBands)) {
    ByteWriter w;
    w.str(scene_text);
    w.u32(kSize);
    w.u32(kSize);
    w.u32(static_cast<std::uint32_t>(band.y0));
    w.u32(static_cast<std::uint32_t>(band.y1));
    ids.push_back(router.submit("render_band", w.take()));
  }

  std::vector<std::uint8_t> assembled;
  for (const std::uint64_t id : ids) {
    const auto reply = router.wait(id);
    ASSERT_EQ(reply.error, anahy::kOk);
    assembled.insert(assembled.end(), reply.payload.begin(),
                     reply.payload.end());
  }
  EXPECT_EQ(assembled, reference.to_rgb8());
  EXPECT_EQ(router.counters().replies, static_cast<std::uint64_t>(kBands));
}

}  // namespace
