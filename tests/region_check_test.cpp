// Region-of-interest (incremental) checking tests: check_region must equal
// the window-filtered full check while examining far fewer objects.
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/engine.hpp"
#include "engine/plan.hpp"
#include "engine/snapshot.hpp"
#include "workload/workload.hpp"

namespace odrc::engine {
namespace {

using workload::layers;
using workload::tech;

std::vector<checks::violation> norm(std::vector<checks::violation> v) {
  checks::normalize_all(v);
  return v;
}

// Window-filter a full-check result with the documented semantics: keep
// violations with an offending edge intersecting the window.
std::vector<checks::violation> filtered(std::vector<checks::violation> vs, const rect& w) {
  std::erase_if(vs, [&](const checks::violation& v) {
    return !w.overlaps(v.e1.mbr()) && !w.overlaps(v.e2.mbr());
  });
  return vs;
}

class RegionCheck : public ::testing::Test {
 protected:
  RegionCheck() {
    auto spec = workload::spec_for("ibex", 0.6);
    spec.inject = {2, 2, 2, 2};
    gen_ = workload::generate(spec);
  }
  workload::generated gen_;
};

TEST_F(RegionCheck, SpacingMatchesFilteredFullCheck) {
  drc_engine e;
  const rules::rule r = rules::layer(layers::M1).spacing().greater_than(tech::wire_space);
  const auto full = e.check(gen_.lib, r).violations;
  ASSERT_FALSE(full.empty());

  // Several windows including the injection strip and empty areas.
  const rect die{0, -500, 100000, 100000};
  for (const rect w : {rect{0, -450, 2000, -250},    // injection strip
                       rect{0, 0, 3000, 3000},       // placement corner
                       rect{-10000, -10000, -5000, -5000},  // empty
                       die}) {
    EXPECT_EQ(norm(e.check_region(gen_.lib, r, w).violations), norm(filtered(full, w)))
        << w;
  }
}

// A window on a long wire's edge, far from where the wire violates spacing
// with a shape of another object: the violation touches the window, its
// partner lies beyond the window's interaction halo.
TEST(RegionCheckReach, LongEdgeFindsFarPartner) {
  db::library lib("reach");
  const db::cell_id wire = lib.add_cell("wire");
  lib.at(wire).add_rect(layers::M1, {0, 0, 1000, 30});
  lib.at(wire).add_rect(layers::V1, {100, 5, 120, 25});
  const db::cell_id top = lib.add_cell("top");
  lib.at(top).add_ref({wire, transform{}});
  lib.at(top).add_rect(layers::M1, {990, 40, 1010, 100});  // 10 above the wire's end
  lib.at(top).add_rect(layers::M1, {-200, -10, -20, 20});  // 20 left of the wire
  const rect w{400, 20, 420, 40};                             // the wire's top edge only
  drc_engine e;
  for (const rules::rule& r :
       {rules::layer(layers::M1).spacing().greater_than(25),
        rules::layer(layers::V1).enclosed_by(layers::M1).greater_than(15)}) {
    const auto full = e.check(lib, r).violations;
    ASSERT_FALSE(filtered(full, w).empty());
    EXPECT_EQ(norm(e.check_region(lib, r, w).violations), norm(filtered(full, w)));
  }
}

TEST_F(RegionCheck, ExaminesFewerObjects) {
  drc_engine e;
  const rules::rule r = rules::layer(layers::M1).spacing().greater_than(tech::wire_space);
  const auto full = e.check(gen_.lib, r);
  const auto region =
      e.check_region(gen_.lib, r, rect{0, 0, 1000, 1000});
  EXPECT_LT(region.instances, full.instances / 4);
  EXPECT_LT(region.check_stats.edge_pairs_tested + 1, full.check_stats.edge_pairs_tested + 1);
}

TEST_F(RegionCheck, WorksForAllRuleKinds) {
  drc_engine e;
  const rect strip{0, -450, 10000, -250};  // covers every injection site
  const std::vector<rules::rule> deck{
      rules::layer(layers::M1).width().greater_than(tech::wire_width),
      rules::layer(layers::M1).area().greater_than(tech::min_area),
      rules::layer(layers::M2).spacing().greater_than(tech::wire_space),
      rules::layer(layers::V1).enclosed_by(layers::M1).greater_than(tech::via_enclosure),
  };
  for (const rules::rule& r : deck) {
    const auto full = e.check(gen_.lib, r).violations;
    EXPECT_EQ(norm(e.check_region(gen_.lib, r, strip).violations), norm(filtered(full, strip)));
  }
}

TEST_F(RegionCheck, EmptyWindowFindsNothing) {
  drc_engine e;
  const rules::rule r = rules::layer(layers::M1).spacing().greater_than(tech::wire_space);
  EXPECT_TRUE(
      e.check_region(gen_.lib, r, rect{900000, 900000, 900100, 900100}).violations.empty());
}

TEST_F(RegionCheck, EngineStateResetsAfterRegionCheck) {
  drc_engine e;
  const rules::rule r = rules::layer(layers::M1).spacing().greater_than(tech::wire_space);
  const auto before = e.check(gen_.lib, r).violations;
  (void)e.check_region(gen_.lib, r, rect{0, 0, 100, 100});
  const auto after = e.check(gen_.lib, r).violations;
  EXPECT_EQ(norm(before), norm(after));  // the region must not leak
}

TEST_F(RegionCheck, ParallelModeAgrees) {
  drc_engine seq({.run_mode = mode::sequential});
  drc_engine par({.run_mode = mode::parallel});
  const rules::rule r = rules::layer(layers::M2).spacing().greater_than(tech::wire_space);
  const rect w{0, -450, 5000, 2000};
  EXPECT_EQ(norm(seq.check_region(gen_.lib, r, w).violations),
            norm(par.check_region(gen_.lib, r, w).violations));
}

// A windowed deck run reports each rule's scope: the window for intra and
// distance rules; for a whole-clip rule the window plus exactly the extents
// of the partition clips it overlaps.
TEST(RegionScope, WholeClipScopeJoinsOverlappingClipExtents) {
  constexpr db::layer_t M1 = layers::M1;
  constexpr db::layer_t V1 = layers::V1;
  db::library lib("scope");
  const db::cell_id top = lib.add_cell("top");
  // Nine M1 bars, so the single-use top splits into per-polygon objects.
  // Derived-area clips (inflate 0): {A + via}, {B} and {C} apart, plus a
  // far row of six.
  lib.at(top).add_rect(M1, {0, 0, 400, 30});        // A
  lib.at(top).add_rect(V1, {10, 27, 30, 47});       // 60 < 64 on A, far from w
  lib.at(top).add_rect(M1, {1000, 0, 1400, 30});    // B
  lib.at(top).add_rect(M1, {0, 1000, 400, 1030});   // C
  for (int k = 0; k < 6; ++k) {
    lib.at(top).add_rect(M1, {3000 + 600 * k, 5000, 3400 + 600 * k, 5030});
  }
  const std::vector<exec_plan> plans = {
      compile_plan(rules::layer(M1).width().greater_than(18).named("W")),
      compile_plan(rules::layer(M1).spacing().greater_than(25).named("S")),
      compile_plan(rules::layer(V1).overlap_with(M1).area_at_least(64).named("OV")),
  };
  ASSERT_TRUE(plans[2].whole_clip);
  layout_snapshot snap(lib);
  drc_engine e;
  const rect w{350, 10, 1100, 20};  // overlaps A and B, not C
  const deck_report dr = e.check_deck(plans, snap, w);
  ASSERT_EQ(dr.scope.size(), plans.size());
  EXPECT_EQ(dr.scope[0], w);
  EXPECT_EQ(dr.scope[1], w);
  EXPECT_EQ(dr.scope[2].bounds(), (rect{0, 0, 1400, 47}));
  std::vector<rect> got(dr.scope[2].rects().begin(), dr.scope[2].rects().end());
  std::ranges::sort(got, {}, [](const rect& r) { return std::pair(r.x_min, r.y_max); });
  EXPECT_EQ(got, (std::vector<rect>{{0, 0, 400, 47}, w, {1000, 0, 1400, 30}}));
  // The run evaluates A's clip whole, so it finds the via outside w; the
  // exact-window check_region drops it.
  EXPECT_EQ(dr.per_rule[2].violations.size(), 1u);
  EXPECT_TRUE(e.check_region(plans, snap, w).per_rule[2].violations.empty());
}

}  // namespace
}  // namespace odrc::engine
