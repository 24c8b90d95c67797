// Region tests: the bucket-grid overlap tests against a scan over the rects,
// for small, huge, thin, overlapping and single-rect regions.
#include "geo/region.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <vector>

namespace odrc::geo {
namespace {

// Rects of random size up to `max_size` over [0, span]^2, plus `huge` rects
// covering most of it.
std::vector<rect> random_rects(std::mt19937& rng, int n, coord_t span, coord_t max_size,
                               int huge) {
  std::uniform_int_distribution<coord_t> pos(0, span), size(0, max_size);
  std::vector<rect> out;
  for (int i = 0; i < n; ++i) {
    const coord_t x = pos(rng), y = pos(rng);
    out.push_back({x, y, static_cast<coord_t>(x + size(rng)), static_cast<coord_t>(y + size(rng))});
  }
  for (int i = 0; i < huge; ++i) out.push_back({-span / 4, 10, span, span / 2});
  return out;
}

TEST(Region, OverlapTestsMatchScanOverRects) {
  std::mt19937 rng(0x4E610);
  struct shape {
    int n;
    coord_t max_size;
    int huge;
  };
  for (const shape s : {shape{1, 300, 0}, shape{7, 5, 0}, shape{400, 60, 0}, shape{400, 3000, 0},
                        shape{300, 40, 2}, shape{2000, 20, 0}}) {
    const std::vector<rect> rs = random_rects(rng, s.n, 20000, s.max_size, s.huge);
    const region reg(rs);
    ASSERT_EQ(reg.rects().size(), rs.size());
    std::uniform_int_distribution<coord_t> pos(-2000, 22000), size(0, 900);
    for (int q = 0; q < 3000; ++q) {
      const coord_t x = pos(rng), y = pos(rng);
      const rect probe{x, y, static_cast<coord_t>(x + size(rng)), static_cast<coord_t>(y + size(rng))};
      std::vector<std::uint32_t> want;
      for (std::uint32_t i = 0; i < rs.size(); ++i) {
        if (rs[i].overlaps(probe)) want.push_back(i);
      }
      std::vector<std::uint32_t> got;
      reg.for_each_overlapping(probe, [&](std::uint32_t i) { got.push_back(i); });
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << "n=" << s.n << " probe " << probe;  // each hit once
      ASSERT_EQ(reg.overlaps(probe), !want.empty());
    }
  }
}

TEST(Region, EmptyRectsAreDroppedAndOneRectKeepsItsMeaning) {
  const rect w{10, 20, 30, 40};
  const region one = w;
  EXPECT_EQ(one.bounds(), w);
  EXPECT_TRUE(one.overlaps({30, 40, 50, 60}));  // closed: a shared corner counts
  EXPECT_FALSE(one.overlaps({31, 20, 50, 40}));
  EXPECT_TRUE(region(rect{}).empty());
  EXPECT_FALSE(region().overlaps(w));
  const region r({rect{}, w, rect{}, {100, 100, 100, 100}});
  EXPECT_EQ(r.rects().size(), 2u);
  EXPECT_TRUE(r.overlaps({100, 100, 100, 100}));
  EXPECT_EQ(r.inflated(5).rects()[0], w.inflated(5));
}

TEST(Region, RectsSpanningTheCoordinateRange) {
  constexpr coord_t lo = std::numeric_limits<coord_t>::min();
  constexpr coord_t hi = std::numeric_limits<coord_t>::max();
  const region r({rect{lo, lo, hi, 0}, rect{5, 5, 6, 6}, rect{hi - 1, hi - 1, hi, hi}});
  EXPECT_TRUE(r.overlaps({-7, -7, -7, -7}));
  EXPECT_TRUE(r.overlaps({6, 6, 9, 9}));
  EXPECT_TRUE(r.overlaps({hi, hi, hi, hi}));
  EXPECT_FALSE(r.overlaps({10, 10, 1000, 1000}));
  int hits = 0;
  r.for_each_overlapping({lo, lo, hi, hi}, [&](std::uint32_t) { ++hits; });
  EXPECT_EQ(hits, 3);
}

}  // namespace
}  // namespace odrc::geo
