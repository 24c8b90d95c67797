// Enclosure containment runs one path in both modes: candidate (inner, outer)
// object pairs come from the partition clips' sweepline, so parallel mode
// enumerates exactly the sequential mode's candidates (it used to test every
// inner object against every outer one), and the work grows linearly with
// the layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <numbers>
#include <string>

#include "baseline/baseline.hpp"
#include "engine/engine.hpp"
#include "report/violation_db.hpp"
#include "workload/workload.hpp"

namespace odrc::engine {
namespace {

using workload::layers;
using workload::tech;

std::vector<checks::violation> norm(std::vector<checks::violation> v) {
  checks::normalize_all(v);
  return v;
}

workload::generated make_layout(const char* design, double scale) {
  auto spec = workload::spec_for(design, scale);
  spec.inject = {0, 0, 2, 0};
  return workload::generate(spec);
}

deck_report check_enclosures(const db::library& lib, const engine_config& cfg) {
  drc_engine e(cfg);
  e.add_rules({
      rules::layer(layers::V1).enclosed_by(layers::M1).greater_than(tech::via_enclosure),
      rules::layer(layers::V2).enclosed_by(layers::M2).greater_than(tech::via_enclosure),
      rules::layer(layers::V2).enclosed_by(layers::M3).greater_than(tech::via_enclosure),
  });
  return e.check_deck(lib);
}

// `cfg` enumerates the same candidates and reports the same violations as
// the default sequential engine.
void expect_same_candidates(const db::library& lib, const engine_config& cfg) {
  const deck_report seq = check_enclosures(lib, {});
  const deck_report other = check_enclosures(lib, cfg);
  EXPECT_GT(seq.total.sweep_stats.pairs_reported, 0u);
  EXPECT_EQ(other.total.sweep_stats.pairs_reported, seq.total.sweep_stats.pairs_reported);
  EXPECT_EQ(norm(other.total.violations), norm(seq.total.violations));
  EXPECT_FALSE(seq.total.violations.empty());
}

TEST(ContainmentCandidates, ParEnumeratesSeqPairs) {
  for (const char* design : {"jpeg", "aes"}) {
    SCOPED_TRACE(design);
    expect_same_candidates(make_layout(design, 0.25).lib, {.run_mode = mode::parallel});
  }
}

// Doubling the flat polygon count (workload scale grows both die sides, so
// x sqrt(2)) at most 2.5x's the candidate pairs. Every generated metal shape
// is a box, so every containment test takes the O(1) box path: none reaches
// the exact test.
TEST(ContainmentCandidates, PairsGrowLinearlyWithPolygonCount) {
  const auto small = make_layout("jpeg", 0.5);
  const auto large = make_layout("jpeg", 0.5 * std::numbers::sqrt2);
  const auto polys = [](const workload::generated& g) {
    return static_cast<double>(g.lib.expanded_polygon_count());
  };
  const double poly_ratio = polys(large) / polys(small);
  EXPECT_GT(poly_ratio, 1.8);
  EXPECT_LT(poly_ratio, 2.2);
  for (const mode m : {mode::sequential, mode::parallel}) {
    const check_report rs = check_enclosures(small.lib, {.run_mode = m}).total;
    const check_report rl = check_enclosures(large.lib, {.run_mode = m}).total;
    const double small_pairs = static_cast<double>(rs.sweep_stats.pairs_reported);
    ASSERT_GT(small_pairs, 0) << "mode=" << static_cast<int>(m);
    EXPECT_LE(static_cast<double>(rl.sweep_stats.pairs_reported), 2.5 * small_pairs)
        << "mode=" << static_cast<int>(m);
    EXPECT_EQ(rs.check_stats.exact_containment_tests, 0u) << "mode=" << static_cast<int>(m);
    EXPECT_EQ(rl.check_stats.exact_containment_tests, 0u) << "mode=" << static_cast<int>(m);
  }
}

constexpr db::layer_t metal = 1, via = 2;

// Content keys of a deck's violations, sorted.
std::vector<std::string> keys(const std::vector<rules::rule>& deck,
                              const std::vector<std::vector<checks::violation>>& per_rule) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < deck.size(); ++i) {
    for (const checks::violation& v : per_rule[i]) {
      out.push_back(report::violation_key(deck[i].name, v));
    }
  }
  std::ranges::sort(out);
  return out;
}

std::vector<std::string> engine_keys(const db::library& lib, const std::vector<rules::rule>& deck,
                                     const engine_config& cfg) {
  drc_engine e(cfg);
  e.add_rules(deck);
  const deck_report dr = e.check_deck(lib);
  std::vector<std::vector<checks::violation>> per_rule;
  for (const check_report& r : dr.per_rule) per_rule.push_back(r.violations);
  return keys(deck, per_rule);
}

// Every engine configuration whose pair path differs: seq and par, with
// memoization on and off.
std::vector<engine_config> pair_path_configs() {
  std::vector<engine_config> out;
  for (const mode m : {mode::sequential, mode::parallel}) {
    for (const bool memo : {true, false}) out.push_back({.run_mode = m, .enable_memoization = memo});
  }
  return out;
}

// An 8x8 via whose corners all lie in a U-shaped metal (arms x in [0,2] and
// [8,10] over a bar y in [0,2]) while its centre lies in the notch. A vertex
// test calls it contained; it is not, so every checker reports it
// uncontained, even at enclosure 0.
TEST(ContainmentExact, ViaOverUNotchIsUncontained) {
  db::library lib;
  const db::cell_id top = lib.add_cell("top");
  polygon u{{{0, 0}, {0, 10}, {2, 10}, {2, 2}, {8, 2}, {8, 10}, {10, 10}, {10, 0}}};
  u.make_clockwise();
  lib.at(top).add_polygon({metal, 0, u, {}});
  lib.at(top).add_rect(via, {1, 1, 9, 9});
  const rules::rule rule = rules::layer(via).enclosed_by(metal).greater_than(0);

  const auto expect_uncontained = [](const std::vector<checks::violation>& vs, const char* who) {
    ASSERT_EQ(vs.size(), 1u) << who;
    EXPECT_EQ(vs[0].kind, checks::rule_kind::enclosure) << who;
    EXPECT_EQ(vs[0].measured, -1) << who;
    EXPECT_EQ(vs[0].e1.mbr().join(vs[0].e2.mbr()), (rect{1, 1, 9, 9})) << who;
  };
  for (const engine_config& cfg : pair_path_configs()) {
    drc_engine e(cfg);
    e.add_rules({rule});
    const deck_report dr = e.check_deck(lib);
    expect_uncontained(dr.total.violations, "engine");
    EXPECT_GT(dr.total.check_stats.exact_containment_tests, 0u);
  }
  expect_uncontained(baseline::flat_checker{}.run_enclosure(lib, via, metal, 0).violations, "flat");
  expect_uncontained(baseline::deep_checker{}.run_enclosure(lib, via, metal, 0).violations, "deep");
  expect_uncontained(baseline::tile_checker{}.run_enclosure(lib, via, metal, 0).violations, "tile");
  expect_uncontained(baseline::xcheck{}.run_enclosure(lib, via, metal, 0).violations, "xcheck");
}

// A master placed once with more than split_poly_threshold shapes splits
// into polygon objects in its placement's frame, which is not the identity
// here: the pair path places them once per clip. Contained, partly
// contained and outside vias, an L-shaped metal and tight metal spacing;
// a twice-placed small master adds whole-cell pairs (memo path when
// memoization is on). The content keys equal the flat baseline's.
TEST(ContainmentExact, PlacedSplitMasterMatchesFlat) {
  const std::vector<rules::rule> deck = {
      rules::layer(via).enclosed_by(metal).greater_than(5).named("EN"),
      rules::layer(metal).spacing().greater_than(18).named("S"),
  };
  for (const transform& t : {transform{{5000, 0}, 1, false, 1}, transform{{0, 5000}, 0, true, 1},
                             transform{{-3000, 0}, 0, false, 2},
                             transform{{0, -4000}, 3, true, 3}}) {
    SCOPED_TRACE(testing::Message() << t);
    db::library lib;
    const db::cell_id block = lib.add_cell("block");
    db::cell& b = lib.at(block);
    for (coord_t i = 0; i < 6; ++i) {
      const coord_t x = static_cast<coord_t>(i * 60);
      b.add_rect(metal, {x, 0, static_cast<coord_t>(x + 40), 200});
      // Contained with margin 6 or 4, partly outside, or outside the metal.
      const coord_t vx = static_cast<coord_t>(x + (i % 2 ? 6 : 4));
      const coord_t vy = static_cast<coord_t>(i % 3 == 2 ? 196 : 20 + 10 * i);
      b.add_rect(via, {vx, vy, static_cast<coord_t>(vx + 8), static_cast<coord_t>(vy + 8)});
    }
    polygon l{{{0, 300}, {0, 400}, {30, 400}, {30, 330}, {200, 330}, {200, 300}}};
    l.make_clockwise();
    b.add_polygon({metal, 0, l, {}});
    b.add_rect(via, {10, 380, 18, 388});  // in the L's leg
    b.add_rect(via, {100, 380, 108, 388});  // in its notch
    b.add_rect(via, {100, 306, 108, 314});  // in its foot, margin 6
    b.add_rect(metal, {50, 350, 100, 352});  // 18 from the foot: a spacing violation
    b.add_rect(metal, {400, 0, 440, 200});
    b.add_rect(metal, {450, 0, 490, 200});  // 10 from its neighbour
    ASSERT_GT(b.polygons().size(), 16u);

    const db::cell_id cellx = lib.add_cell("cellx");
    lib.at(cellx).add_rect(metal, {0, 0, 30, 30});
    lib.at(cellx).add_rect(via, {11, 11, 19, 19});
    const db::cell_id top = lib.add_cell("top");
    lib.at(top).add_ref({block, t});
    // Pairs across frames: a top via in a placed block metal, a top metal
    // around the placed via in the L's notch.
    const rect m0 = t.apply(rect{0, 0, 40, 200});
    lib.at(top).add_rect(via, {static_cast<coord_t>(m0.x_min + 10),
                               static_cast<coord_t>(m0.y_min + 10),
                               static_cast<coord_t>(m0.x_min + 18),
                               static_cast<coord_t>(m0.y_min + 18)});
    lib.at(top).add_rect(metal, t.apply(rect{100, 380, 108, 388}).inflated(6));
    lib.at(top).add_ref({cellx, transform{{-200, -200}, 1, false, 1}});
    lib.at(top).add_ref({cellx, transform{{-160, -200}, 2, true, 1}});

    baseline::flat_checker flat;
    const std::vector<std::string> want =
        keys(deck, {flat.run_enclosure(lib, via, metal, 5).violations,
                    flat.run_spacing(lib, metal, 18).violations});
    EXPECT_GT(want.size(), 8u);
    for (const engine_config& cfg : pair_path_configs()) {
      EXPECT_EQ(engine_keys(lib, deck, cfg), want)
          << "mode=" << static_cast<int>(cfg.run_mode) << " memo=" << cfg.enable_memoization;
    }
  }
}

}  // namespace
}  // namespace odrc::engine
