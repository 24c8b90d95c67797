// Polygon-level check driver tests.
#include "checks/poly_checks.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <random>

namespace odrc::checks {
namespace {

check_stats g_stats;

TEST(CheckWidth, CompliantRectangle) {
  std::vector<violation> out;
  check_width(polygon::from_rect({0, 0, 18, 100}), 19, 18, out, g_stats);
  EXPECT_TRUE(out.empty());
}

TEST(CheckWidth, NarrowRectangleViolatesOnce) {
  std::vector<violation> out;
  check_width(polygon::from_rect({0, 0, 10, 100}), 19, 18, out, g_stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, rule_kind::width);
  EXPECT_EQ(out[0].measured, 100);  // 10^2
}

TEST(CheckWidth, SquareBelowMinimumViolatesTwice) {
  // Both the horizontal and vertical spans are narrow.
  std::vector<violation> out;
  check_width(polygon::from_rect({0, 0, 10, 10}), 19, 18, out, g_stats);
  EXPECT_EQ(out.size(), 2u);
}

TEST(CheckWidth, LShapeWithNarrowLeg) {
  // Vertical leg 10 wide, horizontal foot 30 tall: only the leg violates 18.
  polygon l{{{0, 0}, {0, 100}, {10, 100}, {10, 30}, {60, 30}, {60, 0}}};
  ASSERT_TRUE(l.is_clockwise());
  std::vector<violation> out;
  check_width(l, 19, 18, out, g_stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].measured, 100);
}

TEST(CheckArea, FlagsSmallPolygons) {
  std::vector<violation> out;
  check_area(polygon::from_rect({0, 0, 20, 20}), 19, 1000, out, g_stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].measured, 400);
  out.clear();
  check_area(polygon::from_rect({0, 0, 20, 50}), 19, 1000, out, g_stats);
  EXPECT_TRUE(out.empty());  // exactly min_area is compliant
}

TEST(CheckRectilinear, FlagsDiagonals) {
  std::vector<violation> out;
  check_rectilinear(polygon{{{0, 0}, {5, 5}, {10, 0}, {5, -5}}}, 19, out, g_stats);
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  check_rectilinear(polygon::from_rect({0, 0, 5, 5}), 19, out, g_stats);
  EXPECT_TRUE(out.empty());
}

TEST(CheckSpacing, ParallelGapViolation) {
  const polygon a = polygon::from_rect({0, 0, 18, 100});
  const polygon b = polygon::from_rect({28, 0, 46, 100});  // gap 10
  std::vector<violation> out;
  check_spacing(a, b, 20, 18, out, g_stats);
  // 1 facing pair + 4 corner proximities (right edge vs b's horiz edges and
  // a's horiz edges vs b's left edge) + 2 collinear horizontal corner pairs.
  EXPECT_GE(out.size(), 1u);
  bool found_parallel = false;
  for (const violation& v : out) {
    if (v.measured == 100) found_parallel = true;
  }
  EXPECT_TRUE(found_parallel);
  out.clear();
  const polygon c = polygon::from_rect({36, 0, 54, 100});  // gap 18: compliant
  check_spacing(a, c, 20, 18, out, g_stats);
  EXPECT_TRUE(out.empty());
}

TEST(CheckSpacing, AbuttingShapesClean) {
  const polygon a = polygon::from_rect({0, 0, 18, 100});
  const polygon b = polygon::from_rect({18, 0, 36, 100});
  std::vector<violation> out;
  check_spacing(a, b, 20, 18, out, g_stats);
  EXPECT_TRUE(out.empty());
}

TEST(CheckSpacingNotch, UShape) {
  // U-shape with an 8-wide notch between the arms (arms 10 wide, 40 tall).
  polygon u{{{0, 0}, {0, 40}, {10, 40}, {10, 10}, {18, 10}, {18, 40}, {28, 40}, {28, 0}}};
  ASSERT_TRUE(u.is_clockwise());
  std::vector<violation> out;
  check_spacing_notch(u, 19, 18, out, g_stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].measured, 64);  // 8^2
  out.clear();
  check_spacing_notch(u, 19, 8, out, g_stats);
  EXPECT_TRUE(out.empty());  // notch exactly at min space
}

TEST(CheckSpacingNotch, RectangleHasNoNotches) {
  std::vector<violation> out;
  check_spacing_notch(polygon::from_rect({0, 0, 18, 100}), 19, 18, out, g_stats);
  EXPECT_TRUE(out.empty());
}

TEST(CheckEnclosure, FullyContainedWithMargins) {
  const polygon via = polygon::from_rect({5, 5, 13, 13});
  const polygon metal = polygon::from_rect({0, 0, 18, 18});
  std::vector<violation> out;
  EXPECT_TRUE(check_enclosure(via, metal, 21, 19, 5, out, g_stats));
  EXPECT_TRUE(out.empty());  // margin exactly 5 everywhere
  // Tighter rule: all four sides violate.
  EXPECT_TRUE(check_enclosure(via, metal, 21, 19, 6, out, g_stats));
  EXPECT_EQ(out.size(), 4u);
}

TEST(CheckEnclosure, OffCenterVia) {
  const polygon via = polygon::from_rect({1, 5, 9, 13});
  const polygon metal = polygon::from_rect({0, 0, 18, 18});
  std::vector<violation> out;
  EXPECT_TRUE(check_enclosure(via, metal, 21, 19, 5, out, g_stats));
  ASSERT_EQ(out.size(), 1u);  // left margin 1
  EXPECT_EQ(out[0].measured, 1);
}

TEST(CheckEnclosure, NotContainedReturnsFalse) {
  const polygon via = polygon::from_rect({15, 5, 23, 13});  // sticks out right
  const polygon metal = polygon::from_rect({0, 0, 18, 18});
  std::vector<violation> out;
  EXPECT_FALSE(check_enclosure(via, metal, 21, 19, 5, out, g_stats));
}

TEST(CheckEnclosure, ContainmentInLShapedMetal) {
  polygon metal{{{0, 0}, {0, 100}, {30, 100}, {30, 30}, {100, 30}, {100, 0}}};
  const polygon via_in_leg = polygon::from_rect({10, 50, 18, 58});
  const polygon via_in_notch = polygon::from_rect({50, 50, 58, 58});
  std::vector<violation> out;
  EXPECT_TRUE(check_enclosure(via_in_leg, metal, 21, 19, 5, out, g_stats));
  EXPECT_FALSE(check_enclosure(via_in_notch, metal, 21, 19, 5, out, g_stats));
}

// A U whose arms (x in [0,2] and [8,10]) and bar (y in [0,2]) hold every
// corner of an 8x8 box: the box's centre lies in the notch.
polygon u_shape() {
  polygon u{{{0, 0}, {0, 10}, {2, 10}, {2, 2}, {8, 2}, {8, 10}, {10, 10}, {10, 0}}};
  u.make_clockwise();
  return u;
}

TEST(PolygonInside, NotchOfNonConvexOuterIsOutside) {
  const polygon u = u_shape();
  const polygon box = polygon::from_rect({1, 1, 9, 9});
  for (const point& p : box.vertices()) EXPECT_TRUE(u.contains(p));
  EXPECT_FALSE(polygon_inside(box, u));
  std::vector<violation> out;
  EXPECT_FALSE(check_enclosure(box, u, 21, 19, 0, out, g_stats));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(polygon_inside(polygon::from_rect({0, 3, 2, 9}), u));     // in an arm
  EXPECT_TRUE(polygon_inside(polygon::from_rect({0, 0, 10, 2}), u));    // the bar
  EXPECT_FALSE(polygon_inside(polygon::from_rect({1, 1, 9, 3}), u));    // bar and notch
  // The notch itself: every corner on the U's boundary and no U edge
  // through the box's interior, yet the interior lies outside.
  EXPECT_FALSE(polygon_inside(polygon::from_rect({2, 2, 8, 10}), u));
  // A zero-width inner across the notch: both ends in the arms.
  EXPECT_FALSE(polygon_inside(polygon{{{1, 5}, {9, 5}, {9, 5}, {1, 5}}}, u));
  EXPECT_TRUE(polygon_inside(polygon{{{1, 1}, {9, 1}, {9, 1}, {1, 1}}}, u));
}

TEST(PolygonInside, CountsOnlyExactTests) {
  check_stats cs;
  const polygon box = polygon::from_rect({1, 1, 9, 9});
  EXPECT_TRUE(polygon_inside(box, box.mbr(), polygon::from_rect({0, 0, 10, 10}),
                             rect{0, 0, 10, 10}, cs));
  EXPECT_FALSE(polygon_inside(box, box.mbr(), polygon::from_rect({2, 0, 10, 10}),
                              rect{2, 0, 10, 10}, cs));
  EXPECT_EQ(cs.exact_containment_tests, 0u);
  EXPECT_FALSE(polygon_inside(box, box.mbr(), u_shape(), u_shape().mbr(), cs));
  EXPECT_EQ(cs.exact_containment_tests, 1u);
}

// The four corners of `r` as a ring: start at corner `start` of the
// clockwise order, walk it forwards or backwards.
polygon box_ring(const rect& r, int start, bool backwards) {
  const std::array<point, 4> cw{{{r.x_min, r.y_min}, {r.x_min, r.y_max},
                                 {r.x_max, r.y_max}, {r.x_max, r.y_min}}};
  std::vector<point> v;
  for (int k = 0; k < 4; ++k) v.push_back(cw[(start + (backwards ? 4 - k : k)) % 4]);
  return polygon{std::move(v)};
}

TEST(PolygonInside, BoxRingsInEveryOrientationAreBoxes) {
  constexpr coord_t lo = std::numeric_limits<coord_t>::min();
  constexpr coord_t hi = std::numeric_limits<coord_t>::max();
  for (const rect& r : {rect{0, 0, 10, 20}, rect{3, 3, 3, 9}, rect{3, 3, 9, 3}, rect{5, 5, 5, 5},
                        rect{lo, lo, hi, hi}, rect{lo, 0, lo, hi}}) {
    for (int start = 0; start < 4; ++start) {
      for (const bool backwards : {false, true}) {
        const polygon ring = box_ring(r, start, backwards);
        EXPECT_TRUE(is_box(ring)) << ring;
        EXPECT_EQ(ring.mbr(), r);
        // Its point set is its MBR.
        EXPECT_TRUE(polygon_inside(polygon::from_rect(r), ring)) << ring;
      }
    }
  }
  // Every edge axis-parallel, but not the MBR: runs back along one side.
  EXPECT_FALSE(is_box(polygon{{{0, 0}, {0, 10}, {0, 0}, {10, 0}}}));
  EXPECT_FALSE(polygon_inside(polygon::from_rect({0, 0, 10, 10}),
                              polygon{{{0, 0}, {0, 10}, {0, 0}, {10, 0}}}));
  EXPECT_FALSE(is_box(u_shape()));
}

// A random ring of 4 vertices with axis-parallel edges, coordinates drawn
// from `pool`; rings with repeated vertices, zero width or height and
// back-tracking sides come up often with a small pool.
template <class Rng>
polygon random_ring(Rng& rng, std::span<const coord_t> pool) {
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  for (;;) {
    std::vector<point> v(4);
    for (point& p : v) p = {pool[pick(rng)], pool[pick(rng)]};
    const polygon ring{std::move(v)};
    bool axis_parallel = true;
    for (std::size_t i = 0; i < 4; ++i) {
      const edge e = ring.edge_at(i);
      axis_parallel = axis_parallel && (e.horizontal() || e.vertical());
    }
    if (axis_parallel) return ring;
  }
}

// The O(1) path (MBR containment, then a box outer is taken as is) agrees
// with the exact test on random 4-vertex rings, and, on small coordinates,
// the exact test agrees with a dense point sample: every half-integer point
// of the coordinate range.
TEST(PolygonInside, BoxPathAgreesWithExactTest) {
  constexpr coord_t lo = std::numeric_limits<coord_t>::min();
  constexpr coord_t hi = std::numeric_limits<coord_t>::max();
  const std::array<coord_t, 5> small{-2, -1, 0, 1, 2};
  const std::array<coord_t, 6> extreme{lo, lo + 1, -1, 0, hi - 1, hi};
  std::mt19937 rng(29);
  std::uniform_int_distribution<int> coin(0, 1), corner(0, 3);
  std::size_t box_outers = 0, contained = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const bool tiny = iter % 2 == 0;
    const std::span<const coord_t> pool =
        tiny ? std::span<const coord_t>(small) : std::span<const coord_t>(extreme);
    // Half the outers are box rings in a random orientation.
    polygon outer = random_ring(rng, pool);
    if (coin(rng)) outer = box_ring(outer.mbr(), corner(rng), coin(rng) != 0);
    const polygon inner = random_ring(rng, pool);
    check_stats cs;
    const bool exact = polygon_inside(inner, outer);
    const bool fast = polygon_inside(inner, inner.mbr(), outer, outer.mbr(), cs);
    ASSERT_EQ(fast, exact) << "inner " << inner << " outer " << outer;
    if (is_box(outer)) {
      ++box_outers;
      EXPECT_EQ(cs.exact_containment_tests, 0u);
    }
    contained += exact;
    if (!tiny) continue;
    const transform twice{{}, 0, false, 2};
    const polygon i2 = inner.transformed(twice), o2 = outer.transformed(twice);
    bool sampled = true;
    for (coord_t x = -4; x <= 4 && sampled; ++x) {
      for (coord_t y = -4; y <= 4 && sampled; ++y) {
        sampled = !i2.contains({x, y}) || o2.contains({x, y});
      }
    }
    ASSERT_EQ(exact, sampled) << "inner " << inner << " outer " << outer;
  }
  EXPECT_GT(box_outers, 5000u);
  EXPECT_GT(contained, 500u);
}

TEST(ReportUncontained, EmitsNegativeMeasure) {
  std::vector<violation> out;
  report_uncontained(rect{0, 0, 8, 8}, 21, 19, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, rule_kind::enclosure);
  EXPECT_EQ(out[0].measured, -1);
}

TEST(CheckStats, CountsAccumulate) {
  check_stats s;
  std::vector<violation> out;
  check_width(polygon::from_rect({0, 0, 18, 100}), 19, 18, out, s);
  EXPECT_EQ(s.polygons_tested, 1u);
  EXPECT_EQ(s.edge_pairs_tested, 6u);  // C(4,2)
  check_spacing(polygon::from_rect({0, 0, 18, 100}), polygon::from_rect({40, 0, 58, 100}), 19,
                18, out, s);
  EXPECT_EQ(s.polygon_pairs_tested, 1u);
  EXPECT_EQ(s.edge_pairs_tested, 6u + 16u);
  check_stats t;
  t += s;
  EXPECT_EQ(t.edge_pairs_tested, s.edge_pairs_tested);
}

TEST(CheckArea, GiantPolygonIsNotFlaggedTooSmall) {
  // Regression: a polygon whose true area exceeds area_t used to wrap to a
  // negative shoelace sum and be reported as violating any minimum-area
  // rule. With saturation it reports the maximum area and passes.
  const coord_t m = std::numeric_limits<coord_t>::max() - 1;
  std::vector<violation> out;
  check_stats s;
  check_area(polygon::from_rect({-m, -m, m, m}), 19, 1000, out, s);
  EXPECT_TRUE(out.empty());
}

TEST(CheckArea, SmallPolygonStillFlagged) {
  std::vector<violation> out;
  check_stats s;
  check_area(polygon::from_rect({0, 0, 10, 10}), 19, 1000, out, s);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].measured, 100);
}

}  // namespace
}  // namespace odrc::checks
