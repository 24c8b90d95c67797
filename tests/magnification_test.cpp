// Magnified-reference tests (GDSII MAG): memoized results must NOT be reused
// across magnified instances — distances and areas scale, so a master-level
// violation can vanish at mag > 1 and a compliant master can violate rules
// expressed on derived quantities. All checkers must agree with the flat
// ground truth.
#include <gtest/gtest.h>

#include "baseline/baseline.hpp"
#include "checks/poly_checks.hpp"
#include "engine/engine.hpp"
#include "engine/task_prune.hpp"

namespace odrc {
namespace {

std::vector<checks::violation> norm(std::vector<checks::violation> v) {
  checks::normalize_all(v);
  return v;
}

// Master with a 10-wide bar (width violation at w=18) instantiated once
// plain and once at mag 2 (20 wide: compliant).
db::library mag_width_lib() {
  db::library lib;
  const db::cell_id m = lib.add_cell("m");
  lib.at(m).add_rect(1, {0, 0, 10, 100});
  const db::cell_id top = lib.add_cell("top");
  lib.at(top).add_ref({m, transform{{0, 0}, 0, false, 1}});
  lib.at(top).add_ref({m, transform{{500, 0}, 0, false, 2}});
  return lib;
}

TEST(Magnification, WidthNotReusedAcrossMag) {
  const db::library lib = mag_width_lib();
  drc_engine e;
  const auto r = e.run_width(lib, 1, 18);
  // Only the unmagnified instance violates.
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_LE(r.violations[0].e1.mbr().x_max, 10);

  baseline::flat_checker flat;
  baseline::deep_checker deep;
  EXPECT_EQ(norm(e.run_width(lib, 1, 18).violations),
            norm(flat.run_width(lib, 1, 18).violations));
  EXPECT_EQ(norm(deep.run_width(lib, 1, 18).violations),
            norm(flat.run_width(lib, 1, 18).violations));
}

TEST(Magnification, AreaScalesQuadratically) {
  // 20x20 master (area 400 < 1000, violating); at mag 2 it is 40x40 = 1600,
  // compliant.
  db::library lib;
  const db::cell_id m = lib.add_cell("m");
  lib.at(m).add_rect(1, {0, 0, 20, 20});
  const db::cell_id top = lib.add_cell("top");
  lib.at(top).add_ref({m, transform{{0, 0}, 0, false, 1}});
  lib.at(top).add_ref({m, transform{{500, 0}, 0, false, 2}});
  drc_engine e;
  const auto r = e.run_area(lib, 1, 1000);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].measured, 400);
  baseline::flat_checker flat;
  baseline::deep_checker deep;
  EXPECT_EQ(norm(r.violations), norm(flat.run_area(lib, 1, 1000).violations));
  EXPECT_EQ(norm(deep.run_area(lib, 1, 1000).violations),
            norm(flat.run_area(lib, 1, 1000).violations));
}

TEST(Magnification, IntraSpacingNotReused) {
  // Two bars 20 apart in the master (compliant at s=18); at mag... shrink is
  // not representable (integral mag >= 1), so test the reverse: bars 10
  // apart (violating) whose mag-2 instance is 20 apart (compliant).
  db::library lib;
  const db::cell_id m = lib.add_cell("m");
  lib.at(m).add_rect(1, {0, 0, 18, 100});
  lib.at(m).add_rect(1, {28, 0, 46, 100});  // gap 10
  const db::cell_id top = lib.add_cell("top");
  lib.at(top).add_ref({m, transform{{0, 0}, 0, false, 1}});
  lib.at(top).add_ref({m, transform{{1000, 0}, 0, false, 2}});  // gap 20: ok
  drc_engine e;
  baseline::flat_checker flat;
  const auto want = norm(flat.run_spacing(lib, 1, 18).violations);
  EXPECT_EQ(norm(e.run_spacing(lib, 1, 18).violations), want);
  ASSERT_FALSE(want.empty());
  for (const auto& v : want) {
    EXPECT_LT(v.e1.mbr().x_max, 500) << "violation leaked into the magnified instance";
  }
  baseline::deep_checker deep;
  EXPECT_EQ(norm(deep.run_spacing(lib, 1, 18).violations), want);
}

TEST(Magnification, PairMemoSkipsMagnifiedPairs) {
  // A magnified instance adjacent to a plain one: the relative-placement
  // memo must not be keyed through a non-invertible (mag != 1) transform.
  db::library lib;
  const db::cell_id m = lib.add_cell("m");
  lib.at(m).add_rect(1, {0, 0, 18, 100});
  const db::cell_id top = lib.add_cell("top");
  lib.at(top).add_ref({m, transform{{0, 0}, 0, false, 1}});
  lib.at(top).add_ref({m, transform{{28, 0}, 0, false, 2}});  // gap 10 to the first
  drc_engine e;
  baseline::flat_checker flat;
  EXPECT_EQ(norm(e.run_spacing(lib, 1, 18).violations),
            norm(flat.run_spacing(lib, 1, 18).violations));
  EXPECT_FALSE(e.run_spacing(lib, 1, 18).violations.empty());
}

// Custom and rectilinear verdicts do not depend on scale, so a magnified
// placement replays the master result through its transform — for custom
// rules the marker is the master MBR's bottom/top edges, placed, not the
// MBR of the placed polygon (they differ under rotation).
TEST(Magnification, CustomAndRectilinearReuseMasterResult) {
  db::library lib;
  const db::cell_id m = lib.add_cell("m");
  lib.at(m).add_polygon({1, 0, polygon({{0, 0}, {40, 0}, {0, 30}}), ""});  // unnamed, slanted
  const db::cell_id top = lib.add_cell("top");
  const transform plain{{0, 0}, 0, false, 1};
  const transform mag{{500, 0}, 1, false, 2};  // rotated 90 degrees, mag 2
  lib.at(top).add_ref({m, plain});
  lib.at(top).add_ref({m, mag});

  const db::polygon_elem& e = lib.at(m).polygons()[0];
  checks::check_stats cs;
  std::vector<checks::violation> master_rect;
  checks::check_rectilinear(e.poly, 1, master_rect, cs);
  ASSERT_EQ(master_rect.size(), 1u);
  const checks::violation master_custom{checks::rule_kind::custom, 1, 1,
                                        edge{{0, 0}, {40, 0}}, edge{{0, 30}, {40, 30}}, 0};
  const auto placed = [&](const checks::violation& v) {
    return norm({engine::transformed(v, plain), engine::transformed(v, mag)});
  };

  const rules::rule named =
      rules::layer(1).polygons().ensures([](const db::polygon_elem& p) { return !p.name.empty(); });
  for (const engine::mode md : {engine::mode::sequential, engine::mode::parallel}) {
    drc_engine eng({.run_mode = md});
    EXPECT_EQ(norm(eng.check(lib, rules::layer(1).polygons().is_rectilinear()).violations),
              placed(master_rect[0]))
        << "mode " << static_cast<int>(md);
    EXPECT_EQ(norm(eng.check(lib, named).violations), placed(master_custom))
        << "mode " << static_cast<int>(md);
  }
}

TEST(Magnification, ParallelModeHandlesMag) {
  const db::library lib = mag_width_lib();
  drc_engine par({.run_mode = engine::mode::parallel});
  drc_engine seq;
  EXPECT_EQ(norm(par.run_width(lib, 1, 18).violations),
            norm(seq.run_width(lib, 1, 18).violations));
}

}  // namespace
}  // namespace odrc
