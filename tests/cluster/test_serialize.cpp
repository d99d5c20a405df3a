#include "cluster/serialize.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "cluster/registry.hpp"

namespace {

using namespace cluster;

TEST(Serialize, ScalarsRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  const auto buf = w.take();
  EXPECT_EQ(buf.size(), 1u + 2 + 4 + 8);

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  const auto buf = w.take();
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[1], 0x03);
  EXPECT_EQ(buf[2], 0x02);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(Serialize, BytesAndStringsRoundTrip) {
  ByteWriter w;
  const std::vector<std::uint8_t> blob = {1, 2, 3, 0, 255};
  w.bytes(blob);
  w.str("athread");
  w.str("");  // empty string is legal
  const auto buf = w.take();

  ByteReader r(buf);
  EXPECT_EQ(r.bytes(), blob);
  EXPECT_EQ(r.str(), "athread");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, TruncatedReadsThrow) {
  ByteWriter w;
  w.u32(42);
  const auto buf = w.take();
  ByteReader r(buf);
  (void)r.u16();
  EXPECT_THROW((void)r.u32(), std::runtime_error);  // only 2 bytes left
}

TEST(Serialize, TruncatedBlockThrows) {
  ByteWriter w;
  w.u32(100);  // claims a 100-byte block with no payload behind it
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_THROW((void)r.bytes(), std::runtime_error);
}

TEST(Serialize, RemainingTracksConsumption) {
  ByteWriter w;
  w.u64(7);
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.u32();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(ClusterRegistry, AddLookupAndDuplicates) {
  Registry reg;
  EXPECT_TRUE(reg.add("f", [](std::span<const std::uint8_t>) {
    return std::vector<std::uint8_t>{};
  }));
  EXPECT_FALSE(reg.add("f", [](std::span<const std::uint8_t>) {
    return std::vector<std::uint8_t>{1};
  }));
  EXPECT_TRUE(reg.contains("f"));
  EXPECT_FALSE(reg.contains("g"));
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_THROW((void)reg.get("g"), std::out_of_range);
}

}  // namespace
