#include "compress/lz77.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

namespace {

using namespace compress;

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Lz77, EmptyInputYieldsNoTokens) {
  EXPECT_TRUE(lz77_tokenize({}).empty());
}

TEST(Lz77, IncompressibleShortInputIsAllLiterals) {
  const auto data = bytes("abc");
  const auto tokens = lz77_tokenize(data);
  ASSERT_EQ(tokens.size(), 3u);
  for (const auto& t : tokens) EXPECT_FALSE(t.is_match);
}

TEST(Lz77, RepetitionProducesMatches) {
  const auto data = bytes("abcabcabcabcabcabc");
  const auto tokens = lz77_tokenize(data);
  bool any_match = false;
  for (const auto& t : tokens) any_match |= t.is_match;
  EXPECT_TRUE(any_match);
  EXPECT_LT(tokens.size(), data.size());  // actually compressed
  EXPECT_EQ(lz77_reconstruct(tokens), data);
}

TEST(Lz77, RunOfOneByteUsesOverlappingMatch) {
  const std::vector<std::uint8_t> data(300, 'x');
  const auto tokens = lz77_tokenize(data);
  // Expect one literal plus overlapping distance-1 matches.
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_FALSE(tokens[0].is_match);
  EXPECT_TRUE(tokens[1].is_match);
  EXPECT_EQ(tokens[1].distance, 1);
  EXPECT_EQ(lz77_reconstruct(tokens), data);
}

TEST(Lz77, MatchLengthNeverExceedsProtocolMax) {
  const std::vector<std::uint8_t> data(5000, 'y');
  for (const auto& t : lz77_tokenize(data)) {
    if (!t.is_match) continue;
    EXPECT_GE(t.length, kMinMatch);
    EXPECT_LE(t.length, kMaxMatch);
    EXPECT_GE(t.distance, 1);
    EXPECT_LE(t.distance, kWindowSize);
  }
}

TEST(Lz77, LazyOffFindsMatchesToo) {
  Lz77Params params;
  params.lazy = false;
  const auto data = bytes("the cat sat on the mat, the cat sat on the mat");
  const auto tokens = lz77_tokenize(data, params);
  EXPECT_EQ(lz77_reconstruct(tokens), data);
  bool any_match = false;
  for (const auto& t : tokens) any_match |= t.is_match;
  EXPECT_TRUE(any_match);
}

TEST(Lz77, ReconstructRejectsBadDistance) {
  std::vector<Token> bad = {Token::lit('a'), Token::match(3, 5)};
  EXPECT_THROW((void)lz77_reconstruct(bad), std::runtime_error);
}

// gtest has no printer for this struct, so it names each case by a byte dump
// of it, padding included. The padding is therefore spelled out and zeroed:
// left implicit, it held stack and heap garbage, and the ctest names changed
// from one build to the next.
struct Lz77Case {
  Lz77Case(int seed_, std::size_t size_, int alphabet_, bool lazy_)
      : seed(seed_), size(size_), alphabet(alphabet_), lazy(lazy_) {}

  int seed;
  std::uint32_t pad0 = 0;
  std::size_t size;
  int alphabet;  // small alphabet => lots of matches
  bool lazy;
  std::uint8_t pad1[3] = {};
};
static_assert(sizeof(Lz77Case) == 24, "Lz77Case must have no implicit padding");

class Lz77RoundTrip : public ::testing::TestWithParam<Lz77Case> {};

TEST_P(Lz77RoundTrip, TokenizeReconstructIdentity) {
  const auto& p = GetParam();
  std::mt19937 rng(static_cast<unsigned>(p.seed));
  std::vector<std::uint8_t> data(p.size);
  for (auto& v : data)
    v = static_cast<std::uint8_t>('a' + rng() % static_cast<unsigned>(p.alphabet));

  Lz77Params params;
  params.lazy = p.lazy;
  const auto tokens = lz77_tokenize(data, params);
  EXPECT_EQ(lz77_reconstruct(tokens), data);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Lz77RoundTrip,
    ::testing::Values(Lz77Case{1, 0, 2, true}, Lz77Case{2, 1, 2, true},
                      Lz77Case{3, 100, 2, true}, Lz77Case{4, 1000, 3, true},
                      Lz77Case{5, 1000, 3, false},
                      Lz77Case{6, 10000, 2, true},
                      Lz77Case{7, 10000, 26, true},
                      Lz77Case{8, 70000, 4, true},   // spans the window
                      Lz77Case{9, 70000, 255, false},
                      Lz77Case{10, 200000, 5, true}));

}  // namespace
