// Multi-patterning coloring rule tests: conflict-graph construction and
// 2-colorability (odd-cycle) detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "checks/poly_checks.hpp"
#include "engine/engine.hpp"
#include "report/violation_db.hpp"
#include "workload/workload.hpp"

namespace odrc::engine {
namespace {

TEST(PolygonsWithin, DistanceSemantics) {
  const polygon a = polygon::from_rect({0, 0, 10, 10});
  const polygon near = polygon::from_rect({15, 0, 25, 10});     // gap 5
  const polygon far = polygon::from_rect({40, 0, 50, 10});      // gap 30
  const polygon touching = polygon::from_rect({10, 0, 20, 10}); // gap 0
  const polygon inside = polygon::from_rect({2, 2, 8, 8});
  EXPECT_TRUE(checks::polygons_within(a, near, 6));
  EXPECT_FALSE(checks::polygons_within(a, near, 5));  // strict
  EXPECT_FALSE(checks::polygons_within(a, far, 20));
  EXPECT_TRUE(checks::polygons_within(a, touching, 1));
  EXPECT_TRUE(checks::polygons_within(a, inside, 1));
  EXPECT_TRUE(checks::polygons_within(inside, a, 1));
}

// Three bars in a triangle-ish conflict: A-B, B-C, A-C all within 30.
db::library odd_cycle_lib() {
  db::library lib;
  const db::cell_id top = lib.add_cell("top");
  lib.at(top).add_rect(7, {0, 0, 18, 100});
  lib.at(top).add_rect(7, {40, 0, 58, 100});   // 22 from A
  lib.at(top).add_rect(7, {20, 110, 38, 210}); // within 30 of both (y gap 10)
  return lib;
}

TEST(Coloring, OddCycleFlagged) {
  drc_engine e;
  const auto r = e.run_coloring(odd_cycle_lib(), 7, 30);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].kind, checks::rule_kind::coloring);
}

// The pair reported for an odd cycle depends on the shape set only: every
// insertion order of the three bars yields the same violation key, so a
// delete/re-add edit with no geometric change cannot change the store.
TEST(Coloring, KeysIndependentOfInsertionOrder) {
  const std::array<rect, 3> bars{rect{0, 0, 18, 100}, rect{40, 0, 58, 100},
                                 rect{20, 110, 38, 210}};
  std::array<std::size_t, 3> order{0, 1, 2};
  std::vector<std::string> first;
  int orders = 0;
  do {
    db::library lib;
    const db::cell_id top = lib.add_cell("top");
    for (const std::size_t i : order) lib.at(top).add_rect(7, bars[i]);
    drc_engine e;
    report::violation_db db;
    db.add("MP", e.run_coloring(lib, 7, 30).violations);
    const std::vector<std::string> keys = db.keys();
    ASSERT_EQ(keys.size(), 1u);
    if (first.empty()) first = keys;
    EXPECT_EQ(keys, first) << "order " << order[0] << order[1] << order[2];
    ++orders;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 6);
}

TEST(Coloring, ChainIsTwoColorable) {
  db::library lib;
  const db::cell_id top = lib.add_cell("top");
  // A path of 6 bars, each conflicting only with its neighbours.
  for (int i = 0; i < 6; ++i) {
    lib.at(top).add_rect(7, {static_cast<coord_t>(i * 40), 0,
                             static_cast<coord_t>(i * 40 + 18), 100});
  }
  drc_engine e;
  EXPECT_TRUE(e.run_coloring(lib, 7, 30).violations.empty());
  // Tighter spacing creates second-neighbour conflicts (gap 62 < 70):
  // triangle chains appear -> odd cycles.
  EXPECT_FALSE(e.run_coloring(lib, 7, 70).violations.empty());
}

TEST(Coloring, EvenCycleIsClean) {
  db::library lib;
  const db::cell_id top = lib.add_cell("top");
  // Four bars on a square: each conflicts with exactly two neighbours
  // (horizontal gap 22, vertical gap 20; diagonal distance > 28).
  lib.at(top).add_rect(7, {0, 0, 18, 100});
  lib.at(top).add_rect(7, {40, 0, 58, 100});
  lib.at(top).add_rect(7, {0, 120, 18, 220});
  lib.at(top).add_rect(7, {40, 120, 58, 220});
  drc_engine e;
  EXPECT_TRUE(e.run_coloring(lib, 7, 25).violations.empty());
}

TEST(Coloring, RuleDslDispatch) {
  drc_engine e;
  const rules::rule r = rules::layer(7).two_colorable(30).named("M1.MP.1");
  EXPECT_EQ(r.kind, checks::rule_kind::coloring);
  EXPECT_EQ(r.distance, 30);
  const auto rep = e.check(odd_cycle_lib(), r);
  EXPECT_EQ(rep.violations.size(), 1u);
}

TEST(Coloring, WorkloadM2IsDecomposable) {
  // M2 tracks at 36 pitch with per-row bands: conflicts form per-track
  // chains at spacing 20 (> the 18 gap), which are bipartite.
  const auto g = workload::generate(workload::spec_for("uart", 1.0));
  drc_engine e;
  EXPECT_TRUE(e.run_coloring(g.lib, workload::layers::M2, 20).violations.empty());
}

TEST(Coloring, EmptyLayer) {
  db::library lib;
  (void)lib.add_cell("top");
  drc_engine e;
  EXPECT_TRUE(e.run_coloring(lib, 7, 30).violations.empty());
}

}  // namespace
}  // namespace odrc::engine
