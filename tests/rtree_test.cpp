// Packed R-tree tests: construction shape, query correctness vs brute force,
// and pair enumeration equivalence with the sweepline.
#include "geo/rtree.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "sweep/sweepline.hpp"

namespace odrc::geo {
namespace {

std::vector<rect> random_rects(int n, std::uint32_t seed, coord_t span = 5000) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<coord_t> pos(0, span);
  std::uniform_int_distribution<coord_t> size(1, 150);
  std::vector<rect> out;
  for (int i = 0; i < n; ++i) {
    const coord_t x = pos(rng), y = pos(rng);
    out.push_back({x, y, static_cast<coord_t>(x + size(rng)), static_cast<coord_t>(y + size(rng))});
  }
  return out;
}

TEST(Rtree, EmptyTree) {
  const rtree t({});
  EXPECT_EQ(t.size(), 0u);
  int hits = 0;
  t.query(rect{-100, -100, 100, 100}, [&](std::uint32_t) { ++hits; });
  EXPECT_EQ(hits, 0);
}

TEST(Rtree, SingleItem) {
  const std::vector<rect> rs{{0, 0, 10, 10}};
  const rtree t(rs);
  EXPECT_EQ(t.height(), 1u);
  std::vector<std::uint32_t> hits;
  t.query(rect{5, 5, 6, 6}, [&](std::uint32_t i) { hits.push_back(i); });
  EXPECT_EQ(hits, std::vector<std::uint32_t>{0});
  hits.clear();
  t.query(rect{20, 20, 30, 30}, [&](std::uint32_t i) { hits.push_back(i); });
  EXPECT_TRUE(hits.empty());
}

TEST(Rtree, EmptyRectsNeverReported) {
  const std::vector<rect> rs{{0, 0, 10, 10}, rect{}, {5, 5, 15, 15}};
  const rtree t(rs);
  std::set<std::uint32_t> hits;
  t.query(rect{-100, -100, 100, 100}, [&](std::uint32_t i) { hits.insert(i); });
  EXPECT_EQ(hits, (std::set<std::uint32_t>{0, 2}));
}

TEST(Rtree, HeightGrowsLogarithmically) {
  const auto rs = random_rects(10000, 3);
  const rtree t(rs, 16);
  EXPECT_GE(t.height(), 3u);
  EXPECT_LE(t.height(), 5u);  // ceil(log16(10000)) = 4 (+1 slack)
  EXPECT_FALSE(t.bounds().empty());
}

class RtreeRandom : public ::testing::TestWithParam<int> {};

TEST_P(RtreeRandom, QueryMatchesBruteForce) {
  const auto rs = random_rects(500, static_cast<std::uint32_t>(GetParam()));
  const rtree t(rs, 8);
  std::mt19937 rng(GetParam() * 7 + 1);
  std::uniform_int_distribution<coord_t> pos(0, 5000);
  for (int q = 0; q < 100; ++q) {
    const coord_t x = pos(rng), y = pos(rng);
    const rect window{x, y, static_cast<coord_t>(x + 400), static_cast<coord_t>(y + 300)};
    std::set<std::uint32_t> got, want;
    t.query(window, [&](std::uint32_t i) { got.insert(i); });
    for (std::uint32_t i = 0; i < rs.size(); ++i) {
      if (rs[i].overlaps(window)) want.insert(i);
    }
    EXPECT_EQ(got, want);
  }
}

TEST_P(RtreeRandom, PairsMatchSweepline) {
  const auto rs = random_rects(400, static_cast<std::uint32_t>(GetParam()) + 100);
  const rtree t(rs);
  std::set<std::pair<std::uint32_t, std::uint32_t>> from_tree, from_sweep;
  t.overlap_pairs([&](std::uint32_t i, std::uint32_t j) { from_tree.insert({i, j}); });
  sweep::overlap_pairs(rs, [&](std::uint32_t i, std::uint32_t j) { from_sweep.insert({i, j}); });
  EXPECT_EQ(from_tree, from_sweep);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtreeRandom, ::testing::Range(1, 6));

TEST(Rtree, QueryPruningVisitsFewNodes) {
  const auto rs = random_rects(5000, 9, 100000);
  const rtree t(rs, 16);
  int hits = 0;
  t.query(rect{0, 0, 1000, 1000}, [&](std::uint32_t) { ++hits; });
  // A tiny window must not touch most of the tree.
  EXPECT_LT(t.last_nodes_visited(), 5000u / 4);
}

}  // namespace
}  // namespace odrc::geo
