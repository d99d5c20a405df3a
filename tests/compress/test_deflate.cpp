// End-to-end DEFLATE and gzip tests: round-trips across data shapes, block
// type selection, framing errors, multi-member streams, and (when a system
// gzip binary exists) interoperability with the reference implementation.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>

#include "compress/compress.hpp"

namespace {

using namespace compress;

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> pseudo_text(std::size_t size, unsigned seed) {
  // Word-like data: compressible but not trivial.
  static const char* words[] = {"alpha", "bravo",  "charlie", "delta ",
                                "echo ", "foxtrot", " golf",  "hotel\n"};
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out;
  while (out.size() < size) {
    const auto w = bytes(words[rng() % 8]);
    out.insert(out.end(), w.begin(), w.end());
  }
  out.resize(size);
  return out;
}

std::vector<std::uint8_t> random_bytes(std::size_t size, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out(size);
  for (auto& v : out) v = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Deflate, EmptyInputRoundTrips) {
  const auto compressed = deflate_compress({});
  EXPECT_FALSE(compressed.empty());
  EXPECT_TRUE(inflate_decompress(compressed).empty());
}

TEST(Deflate, TinyInputsRoundTrip) {
  for (const std::string s : {"a", "ab", "abc", "aaaa", "\x00\x01\x02"}) {
    const auto data = bytes(s);
    EXPECT_EQ(inflate_decompress(deflate_compress(data)), data) << s;
  }
}

TEST(Deflate, CompressibleTextShrinks) {
  const auto data = pseudo_text(100000, 1);
  const auto compressed = deflate_compress(data);
  EXPECT_LT(compressed.size(), data.size() / 2);
  EXPECT_EQ(inflate_decompress(compressed), data);
}

TEST(Deflate, IncompressibleDataSurvives) {
  const auto data = random_bytes(65536, 2);
  const auto compressed = deflate_compress(data);
  // Random bytes cannot shrink much, but must round-trip and the stored
  // fallback caps the blow-up at ~0.1%.
  EXPECT_LT(compressed.size(), data.size() + data.size() / 100 + 64);
  EXPECT_EQ(inflate_decompress(compressed), data);
}

TEST(Deflate, LongSingleByteRun) {
  const std::vector<std::uint8_t> data(1 << 20, 'z');
  const auto compressed = deflate_compress(data);
  EXPECT_LT(compressed.size(), 8192u);  // ~258x reduction at least
  EXPECT_EQ(inflate_decompress(compressed), data);
}

TEST(Deflate, MultiBlockStreams) {
  // > 65536 tokens forces several blocks.
  const auto data = random_bytes(200000, 3);
  EXPECT_EQ(inflate_decompress(deflate_compress(data)), data);
}

TEST(Inflate, RejectsReservedBlockType) {
  // First 3 bits: BFINAL=1, BTYPE=11 (reserved).
  const std::vector<std::uint8_t> bad = {0x07};
  EXPECT_THROW((void)inflate_decompress(bad), std::runtime_error);
}

TEST(Inflate, RejectsStoredLenMismatch) {
  // BFINAL=1 BTYPE=00, aligned, LEN=1 NLEN=1 (not complements).
  const std::vector<std::uint8_t> bad = {0x01, 0x01, 0x00, 0x01, 0x00};
  EXPECT_THROW((void)inflate_decompress(bad), std::runtime_error);
}

TEST(Inflate, RejectsTruncatedStream) {
  const auto data = pseudo_text(5000, 4);
  auto compressed = deflate_compress(data);
  compressed.resize(compressed.size() / 2);
  EXPECT_THROW((void)inflate_decompress(compressed), std::runtime_error);
}

TEST(Gzip, RoundTripWithHeaderAndTrailer) {
  const auto data = pseudo_text(10000, 5);
  const auto gz = gzip_compress(data);
  ASSERT_GE(gz.size(), 18u);
  EXPECT_EQ(gz[0], 0x1F);
  EXPECT_EQ(gz[1], 0x8B);
  EXPECT_EQ(gz[2], 8);  // deflate
  EXPECT_EQ(gzip_decompress(gz), data);
  EXPECT_EQ(gzip_member_count(gz), 1u);
}

TEST(Gzip, MultiMemberConcatenationDecodesAsWhole) {
  // The parallel compressor's output format: one member per chunk.
  const auto a = pseudo_text(3000, 6);
  const auto b = random_bytes(2000, 7);
  const auto c = bytes("tail");
  auto gz = gzip_compress(a);
  const auto gb = gzip_compress(b);
  const auto gc = gzip_compress(c);
  gz.insert(gz.end(), gb.begin(), gb.end());
  gz.insert(gz.end(), gc.begin(), gc.end());

  auto expect = a;
  expect.insert(expect.end(), b.begin(), b.end());
  expect.insert(expect.end(), c.begin(), c.end());
  EXPECT_EQ(gzip_decompress(gz), expect);
  EXPECT_EQ(gzip_member_count(gz), 3u);
}

TEST(Gzip, WrapMatchesCompress) {
  const auto data = pseudo_text(4096, 8);
  const auto manual =
      gzip_wrap(deflate_compress(data), crc32(data),
                static_cast<std::uint32_t>(data.size()));
  EXPECT_EQ(gzip_decompress(manual), data);
}

TEST(Gzip, DetectsCorruptedCrc) {
  const auto data = pseudo_text(1000, 9);
  auto gz = gzip_compress(data);
  gz[gz.size() - 5] ^= 0xFF;  // flip a CRC byte
  EXPECT_THROW((void)gzip_decompress(gz), std::runtime_error);
}

TEST(Gzip, DetectsCorruptedSize) {
  const auto data = pseudo_text(1000, 10);
  auto gz = gzip_compress(data);
  gz[gz.size() - 1] ^= 0xFF;  // flip an ISIZE byte
  EXPECT_THROW((void)gzip_decompress(gz), std::runtime_error);
}

TEST(Gzip, RejectsGarbage) {
  const auto junk = random_bytes(64, 11);
  EXPECT_THROW((void)gzip_decompress(junk), std::runtime_error);
}

TEST(Gzip, SystemGunzipAcceptsOurOutput) {
  // Interop cross-check against the reference implementation, when present.
  if (std::system("command -v gzip > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "no system gzip available";

  const auto data = pseudo_text(50000, 12);
  const auto gz = gzip_compress(data);

  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "anahy_gzip_interop";
  fs::create_directories(dir);
  const fs::path gz_path = dir / "ours.gz";
  {
    std::ofstream f(gz_path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(gz.data()),
            static_cast<std::streamsize>(gz.size()));
  }
  const std::string cmd = "gzip -dc " + gz_path.string() + " > " +
                          (dir / "out.bin").string() + " 2>/dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << "system gunzip rejected output";

  std::ifstream f(dir / "out.bin", std::ios::binary);
  std::vector<std::uint8_t> round((std::istreambuf_iterator<char>(f)),
                                  std::istreambuf_iterator<char>());
  EXPECT_EQ(round, data);
  fs::remove_all(dir);
}

struct RoundTripCase {
  const char* name;
  std::size_t size;
  int kind;  // 0 text, 1 random, 2 runs, 3 alternating
};

// Without a printer gtest dumps the struct's bytes, `name`'s address among
// them, and the ctest names would change with every build.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.name; }

class DeflateRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(DeflateRoundTrip, DeflateAndGzip) {
  const auto& p = GetParam();
  std::vector<std::uint8_t> data;
  switch (p.kind) {
    case 0: data = pseudo_text(p.size, 100); break;
    case 1: data = random_bytes(p.size, 101); break;
    case 2: data.assign(p.size, 'r'); break;
    default:
      data.resize(p.size);
      for (std::size_t i = 0; i < p.size; ++i)
        data[i] = static_cast<std::uint8_t>(i % 7);
  }
  EXPECT_EQ(inflate_decompress(deflate_compress(data)), data);
  EXPECT_EQ(gzip_decompress(gzip_compress(data)), data);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DeflateRoundTrip,
    ::testing::Values(RoundTripCase{"text_1k", 1024, 0},
                      RoundTripCase{"text_64k", 65536, 0},
                      RoundTripCase{"text_1m", 1 << 20, 0},
                      RoundTripCase{"random_1k", 1024, 1},
                      RoundTripCase{"random_512k", 512 << 10, 1},
                      RoundTripCase{"runs_100k", 100000, 2},
                      RoundTripCase{"cycle_333k", 333333, 3}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
