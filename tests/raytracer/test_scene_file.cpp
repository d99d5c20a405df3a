#include "raytracer/scene_file.hpp"

#include <gtest/gtest.h>

#include "raytracer/render.hpp"

namespace {

using namespace raytracer;

constexpr const char* kValidScene = R"(
# a tiny test scene
material 0.9 0.2 0.2  0.5 0.5 0.5  32 0      # red matte
material 0.6 0.6 0.7  0.9 0.9 0.9  128 0.6   # mirror
sphere 0 0 -5  1.5  0
sphere 2 0.5 -6  1.0  1
plane 0 -1 0  0 1 0  0
triangle -1 0 -3  1 0 -3  0 1 -3  0
light 5 8 2  0.9 0.9 0.8
ambient 0.1 0.1 0.12
background 0.02 0.02 0.05
camera 0 1 2  0 0 -5  0 1 0  55
maxdepth 3
)";

TEST(SceneFile, ParsesAllDirectives) {
  const SceneFile sf = parse_scene_string(kValidScene);
  EXPECT_EQ(sf.scene.materials.size(), 2u);
  EXPECT_EQ(sf.scene.objects.size(), 4u);
  EXPECT_EQ(sf.scene.lights.size(), 1u);
  EXPECT_EQ(sf.scene.max_depth, 3);
  EXPECT_DOUBLE_EQ(sf.cam_vfov, 55.0);
  EXPECT_DOUBLE_EQ(sf.scene.materials[1].reflectivity, 0.6);
  ASSERT_TRUE(std::holds_alternative<Sphere>(sf.scene.objects[0]));
  EXPECT_DOUBLE_EQ(std::get<Sphere>(sf.scene.objects[0]).radius, 1.5);
}

TEST(SceneFile, EmptyAndCommentOnlyInputIsLegal) {
  const SceneFile sf = parse_scene_string("# nothing\n\n   \n");
  EXPECT_TRUE(sf.scene.objects.empty());
  EXPECT_EQ(sf.cam_vfov, 60.0);  // defaults apply
}

TEST(SceneFile, RendersWithoutCrashing) {
  const SceneFile sf = parse_scene_string(kValidScene);
  Framebuffer fb(32, 32);
  render(sf.scene, sf.camera(1.0), fb);
  // The sphere must be visible: not all pixels are background.
  bool non_background = false;
  for (int y = 0; y < 32 && !non_background; ++y)
    for (int x = 0; x < 32; ++x)
      if (!(fb.get(x, y) == sf.scene.background)) {
        non_background = true;
        break;
      }
  EXPECT_TRUE(non_background);
}

TEST(SceneFile, RoundTripsThroughSerialization) {
  const SceneFile a = parse_scene_string(kValidScene);
  const SceneFile b = parse_scene_string(scene_to_string(a));
  EXPECT_EQ(b.scene.materials.size(), a.scene.materials.size());
  EXPECT_EQ(b.scene.objects.size(), a.scene.objects.size());
  EXPECT_EQ(b.scene.lights.size(), a.scene.lights.size());
  EXPECT_EQ(b.cam_vfov, a.cam_vfov);
  // Rendering both must give identical pixels.
  Framebuffer fa(24, 24), fb(24, 24);
  render(a.scene, a.camera(1.0), fa);
  render(b.scene, b.camera(1.0), fb);
  EXPECT_EQ(fa, fb);
}

struct BadLine {
  const char* name;
  const char* text;
};

// Without a printer gtest dumps the struct's bytes, the two string
// addresses, and the ctest names would change with every build.
void PrintTo(const BadLine& c, std::ostream* os) { *os << c.name; }

class SceneFileErrors : public ::testing::TestWithParam<BadLine> {};

TEST_P(SceneFileErrors, MalformedInputThrowsWithLineNumber) {
  try {
    (void)parse_scene_string(GetParam().text);
    FAIL() << "expected parse error for " << GetParam().name;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SceneFileErrors,
    ::testing::Values(
        BadLine{"unknown_keyword", "blob 1 2 3\n"},
        BadLine{"sphere_without_material", "sphere 0 0 0 1 0\n"},
        BadLine{"material_out_of_range",
                "material 1 1 1 0 0 0 8 0\nsphere 0 0 0 1 5\n"},
        BadLine{"negative_radius",
                "material 1 1 1 0 0 0 8 0\nsphere 0 0 0 -1 0\n"},
        BadLine{"zero_normal",
                "material 1 1 1 0 0 0 8 0\nplane 0 0 0 0 0 0 0\n"},
        BadLine{"bad_reflectivity", "material 1 1 1 0 0 0 8 2.0\n"},
        BadLine{"short_vector", "light 1 2\n"},
        BadLine{"trailing_garbage", "ambient 1 1 1 junk\n"},
        BadLine{"bad_vfov", "camera 0 0 0 0 0 -1 0 1 0 200\n"},
        BadLine{"bad_maxdepth", "maxdepth 0\n"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(SceneFile, MissingFileThrows) {
  EXPECT_THROW((void)load_scene_file("/nonexistent/file.scn"),
               std::runtime_error);
}

}  // namespace
