// Adversarial property test: random hierarchical layouts (random masters,
// nested references with rotations/reflections, one magnified reference,
// random top-level shapes) are checked by the engine (seq and par, rule by
// rule and as one deck run on check_concurrent's group tasks) against an
// INDEPENDENT brute-force oracle that flattens by
// explicit transform application and tests every edge pair (every polygon
// pair for enclosure containment) with the shared predicates — no sweepline,
// no partition, no memoization, no MBR filters. Any transform, partitioning,
// memo-reuse, candidate-enumeration or containment bug shows up as a set
// difference. Derived-area and coloring rules are checked against their
// shape-set predicate (exec_plan::check_shapes) run once over each whole
// flattened layer, so a derived region or conflict component split across
// partition clips or cut by a window shows up the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <string_view>
#include <tuple>

#include "checks/edge_checks.hpp"
#include "checks/poly_checks.hpp"
#include "db/flatten.hpp"
#include "engine/engine.hpp"
#include "engine/plan.hpp"
#include "engine/snapshot.hpp"
#include "geo/region.hpp"
#include "infra/trace.hpp"

namespace odrc {
namespace {

using checks::violation;

// An 8x8 via on layer 2 inside `metal`, inset by `inset` on its lower-left
// sides when it fits; partly outside it otherwise (or for negative insets).
void add_via_in(db::cell& c, const rect& metal, coord_t inset) {
  const coord_t x = static_cast<coord_t>(metal.x_min + inset);
  const coord_t y = static_cast<coord_t>(metal.y_min + inset);
  c.add_rect(2, {x, y, static_cast<coord_t>(x + 8), static_cast<coord_t>(y + 8)});
}

// Build a random 2-level library on layers 1 (metal) and 2 (via-ish). Vias
// are contained, partly contained or outside the metal; the top cell holds
// more than split_poly_threshold shapes per layer (per-polygon objects).
db::library random_library(std::mt19937& rng) {
  std::uniform_int_distribution<coord_t> pos(0, 600);
  std::uniform_int_distribution<coord_t> size(8, 90);
  std::uniform_int_distribution<coord_t> inset(-4, 12);
  std::uniform_int_distribution<int> count(1, 5);
  std::uniform_int_distribution<int> rot(0, 3), flip(0, 1);

  db::library lib;
  std::vector<db::cell_id> masters;
  const int n_masters = count(rng);
  for (int mi = 0; mi < n_masters; ++mi) {
    const db::cell_id m = lib.add_cell("m" + std::to_string(mi));
    const int polys = count(rng);
    for (int p = 0; p < polys; ++p) {
      const coord_t x = pos(rng), y = pos(rng);
      const rect metal{x, y, static_cast<coord_t>(x + size(rng)),
                       static_cast<coord_t>(y + size(rng))};
      lib.at(m).add_rect(1, metal);
      if (flip(rng)) add_via_in(lib.at(m), metal, inset(rng));
    }
    if (flip(rng)) {
      const coord_t x = pos(rng), y = pos(rng);
      lib.at(m).add_rect(2, {x, y, static_cast<coord_t>(x + 8), static_cast<coord_t>(y + 8)});
    }
    masters.push_back(m);
  }
  // A mid-level cell referencing masters with random isometries.
  const db::cell_id mid = lib.add_cell("mid");
  for (int i = 0; i < 3; ++i) {
    std::uniform_int_distribution<std::size_t> pick(0, masters.size() - 1);
    transform t{{static_cast<coord_t>(pos(rng) * 2), static_cast<coord_t>(pos(rng) * 2)},
                static_cast<std::uint16_t>(rot(rng)), flip(rng) != 0, 1};
    lib.at(mid).add_ref({masters[pick(rng)], t});
  }
  // Top: the mid cell twice + direct masters + direct shapes.
  const db::cell_id top = lib.add_cell("top");
  lib.at(top).add_ref({mid, transform{{0, 0}, 0, false, 1}});
  lib.at(top).add_ref(
      {mid, transform{{static_cast<coord_t>(1000 + pos(rng)), static_cast<coord_t>(pos(rng))},
                      static_cast<std::uint16_t>(rot(rng)), flip(rng) != 0, 1}});
  std::uniform_int_distribution<std::size_t> pick(0, masters.size() - 1);
  for (int i = 0; i < 4; ++i) {
    transform t{{static_cast<coord_t>(pos(rng) * 3), static_cast<coord_t>(pos(rng) * 3)},
                static_cast<std::uint16_t>(rot(rng)), flip(rng) != 0, 1};
    lib.at(top).add_ref({masters[pick(rng)], t});
  }
  // One magnified reference, away from the rest.
  lib.at(top).add_ref(
      {masters[pick(rng)],
       transform{{static_cast<coord_t>(pos(rng) * 2), static_cast<coord_t>(4000 + pos(rng))},
                 static_cast<std::uint16_t>(rot(rng)), flip(rng) != 0, 2}});
  for (int i = 0; i < 10; ++i) {
    const coord_t x = pos(rng), y = static_cast<coord_t>(pos(rng) + 2000);
    const rect metal{x, y, static_cast<coord_t>(x + size(rng)),
                     static_cast<coord_t>(y + size(rng))};
    lib.at(top).add_rect(1, metal);
    add_via_in(lib.at(top), metal, inset(rng));
  }
  return lib;
}

std::vector<violation> norm(std::vector<violation> v) {
  checks::normalize_all(v);
  return v;
}

// The oracle: flatten with db::flatten_layer (transform application only —
// itself covered by direct unit tests) and run all-pairs predicates.
std::vector<violation> oracle_spacing(const db::library& lib, db::layer_t layer, coord_t d) {
  std::vector<violation> out;
  for (const db::cell_id top : lib.top_cells()) {
    const auto flat = db::flatten_layer(lib, top, layer);
    for (std::size_t i = 0; i < flat.size(); ++i) {
      const polygon& a = flat[i].poly;
      for (std::size_t ii = 0; ii < a.edge_count(); ++ii) {
        for (std::size_t jj = ii + 1; jj < a.edge_count(); ++jj) {
          if (auto d2 = checks::check_space_pair_any(a.edge_at(ii), a.edge_at(jj), true, d)) {
            out.push_back(checks::make_space_violation(layer, a.edge_at(ii), a.edge_at(jj), *d2));
          }
        }
      }
      for (std::size_t j = i + 1; j < flat.size(); ++j) {
        const polygon& b = flat[j].poly;
        for (std::size_t ii = 0; ii < a.edge_count(); ++ii) {
          for (std::size_t jj = 0; jj < b.edge_count(); ++jj) {
            if (auto d2 =
                    checks::check_space_pair_any(a.edge_at(ii), b.edge_at(jj), false, d)) {
              out.push_back(
                  checks::make_space_violation(layer, a.edge_at(ii), b.edge_at(jj), *d2));
            }
          }
        }
      }
    }
  }
  return out;
}

std::vector<violation> oracle_width(const db::library& lib, db::layer_t layer, coord_t w) {
  std::vector<violation> out;
  for (const db::cell_id top : lib.top_cells()) {
    for (const auto& fp : db::flatten_layer(lib, top, layer)) {
      const polygon& p = fp.poly;
      for (std::size_t i = 0; i < p.edge_count(); ++i) {
        for (std::size_t j = i + 1; j < p.edge_count(); ++j) {
          if (auto d = checks::check_width_pair(p.edge_at(i), p.edge_at(j), w)) {
            out.push_back(checks::make_width_violation(layer, p.edge_at(i), p.edge_at(j), *d));
          }
        }
      }
    }
  }
  return out;
}

// Area markers are the polygon MBR's bottom and top edges in the frame the
// check ran in; a rotated placement replays its master's marker, so compare
// what does not depend on the frame: the marker box and the measured area.
std::vector<std::tuple<coord_t, coord_t, coord_t, coord_t, area_t>> area_marks(
    const std::vector<violation>& vs) {
  std::vector<std::tuple<coord_t, coord_t, coord_t, coord_t, area_t>> out;
  for (const violation& v : vs) {
    const rect m = v.e1.mbr().join(v.e2.mbr());
    out.emplace_back(m.x_min, m.y_min, m.x_max, m.y_max, v.measured);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<violation> oracle_area(const db::library& lib, db::layer_t layer, area_t min_area) {
  std::vector<violation> out;
  checks::check_stats cs;
  for (const db::cell_id top : lib.top_cells()) {
    for (const auto& fp : db::flatten_layer(lib, top, layer)) {
      checks::check_area(fp.poly, layer, min_area, out, cs);
    }
  }
  return out;
}

// Flatten both layers, run check_enclosure on every (inner, outer) pair, OR
// the containment verdicts, and report every inner shape contained by none.
std::vector<violation> oracle_enclosure(const db::library& lib, db::layer_t inner,
                                        db::layer_t outer, coord_t d) {
  std::vector<violation> out;
  checks::check_stats cs;
  for (const db::cell_id top : lib.top_cells()) {
    const auto outers = db::flatten_layer(lib, top, outer);
    for (const auto& in : db::flatten_layer(lib, top, inner)) {
      bool contained = false;
      for (const auto& o : outers) {
        contained |= checks::check_enclosure(in.poly, o.poly, inner, outer, d, out, cs);
      }
      if (!contained) checks::report_uncontained(in.poly.mbr(), inner, outer, out);
    }
  }
  return out;
}

// Whole-layer run of a derived-area or coloring rule: the rule's shape-set
// predicate over each top cell's flattened operand layers.
std::vector<violation> oracle_shapes(const db::library& lib, const rules::rule& r) {
  const engine::exec_plan plan = engine::compile_plan(r);
  engine::check_report report;
  for (const db::cell_id top : lib.top_cells()) {
    std::vector<polygon> a, b;
    for (const auto& fp : db::flatten_layer(lib, top, r.layer1)) a.push_back(fp.poly);
    for (const auto& fp : db::flatten_layer(lib, top, r.layer2)) b.push_back(fp.poly);
    plan.check_shapes(a, b, report);
  }
  return report.violations;
}

std::vector<violation> in_window(std::vector<violation> vs, const rect& w) {
  std::erase_if(vs, [&](const violation& v) {
    return !w.overlaps(v.e1.mbr()) && !w.overlaps(v.e2.mbr());
  });
  return vs;
}

class RandomLayout : public ::testing::TestWithParam<int> {};

TEST_P(RandomLayout, EngineMatchesOracle) {
  std::mt19937 rng(static_cast<std::uint32_t>(GetParam()) * 2654435761u + 1);
  // Windows draw from their own stream so the layouts stay those of rng.
  std::mt19937 wrng(static_cast<std::uint32_t>(GetParam()));
  std::uniform_int_distribution<coord_t> corner(-200, 4600), extent(50, 1500);
  auto random_window = [&] {
    const coord_t x = corner(wrng), y = corner(wrng);
    return rect{x, y, static_cast<coord_t>(x + extent(wrng)),
                static_cast<coord_t>(y + extent(wrng))};
  };
  for (int iter = 0; iter < 8; ++iter) {
    const db::library lib = random_library(rng);
    drc_engine seq({.run_mode = engine::mode::sequential});
    drc_engine par({.run_mode = engine::mode::parallel});
    // The spacing, width and enclosure rules of both distances as one deck,
    // with the oracle's violations of every rule concatenated.
    std::vector<rules::rule> deck;
    std::vector<violation> want_deck;

    for (const coord_t d : {coord_t{12}, coord_t{25}}) {
      const auto want_s = norm(oracle_spacing(lib, 1, d));
      EXPECT_EQ(norm(seq.run_spacing(lib, 1, d).violations), want_s)
          << "seq spacing d=" << d << " iter=" << iter;
      EXPECT_EQ(norm(par.run_spacing(lib, 1, d).violations), want_s)
          << "par spacing d=" << d << " iter=" << iter;

      const auto want_w = norm(oracle_width(lib, 1, d));
      EXPECT_EQ(norm(seq.run_width(lib, 1, d).violations), want_w)
          << "seq width d=" << d << " iter=" << iter;
      EXPECT_EQ(norm(par.run_width(lib, 1, d).violations), want_w)
          << "par width d=" << d << " iter=" << iter;

      // Area thresholds around the random metal sizes (8..90 per side).
      const area_t min_area = static_cast<area_t>(d) * d * 8;
      const auto want_a = area_marks(oracle_area(lib, 1, min_area));
      const auto seq_a = norm(seq.run_area(lib, 1, min_area).violations);
      EXPECT_EQ(area_marks(seq_a), want_a) << "seq area " << min_area << " iter=" << iter;
      EXPECT_EQ(norm(par.run_area(lib, 1, min_area).violations), seq_a)
          << "par area " << min_area << " iter=" << iter;

      for (int k = 0; k < 4; ++k) {
        const rect w = random_window();
        const rules::rule width = rules::layer(1).width().greater_than(d);
        const rules::rule area = rules::layer(1).area().greater_than(min_area);
        for (drc_engine* e : {&seq, &par}) {
          const int m = static_cast<int>(e->config().run_mode);
          EXPECT_EQ(norm(e->check_region(lib, width, w).violations), norm(in_window(want_w, w)))
              << "width window mode=" << m << " d=" << d << " iter=" << iter;
          EXPECT_EQ(norm(e->check_region(lib, area, w).violations), norm(in_window(seq_a, w)))
              << "area window mode=" << m << " d=" << d << " iter=" << iter;
        }
      }

      const auto want_e = norm(oracle_enclosure(lib, 2, 1, d));
      EXPECT_EQ(norm(seq.run_enclosure(lib, 2, 1, d).violations), want_e)
          << "seq enclosure d=" << d << " iter=" << iter;
      EXPECT_EQ(norm(par.run_enclosure(lib, 2, 1, d).violations), want_e)
          << "par enclosure d=" << d << " iter=" << iter;

      deck.push_back(rules::layer(1).spacing().greater_than(d));
      deck.push_back(rules::layer(1).width().greater_than(d));
      deck.push_back(rules::layer(2).enclosed_by(1).greater_than(d));
      for (const auto* w : {&want_s, &want_w, &want_e}) {
        want_deck.insert(want_deck.end(), w->begin(), w->end());
      }
    }

    // The deck on check_concurrent's group tasks, which share one snapshot.
    for (const engine::mode m : {engine::mode::sequential, engine::mode::parallel}) {
      drc_engine conc({.run_mode = m});
      conc.add_rules(deck);
      EXPECT_EQ(norm(conc.check_concurrent(lib).violations), norm(want_deck))
          << "check_concurrent mode=" << static_cast<int>(m) << " iter=" << iter;
    }
  }
}

// Derived-area (overlap, not-cut) and coloring rules run per partition clip;
// every mode, and every window, must match the whole-layer oracle.
TEST_P(RandomLayout, DerivedAndColoringMatchWholeLayerOracle) {
  std::mt19937 rng(static_cast<std::uint32_t>(GetParam()) * 2246822519u + 7);
  std::uniform_int_distribution<coord_t> corner(-200, 4600), extent(50, 1500);
  for (int iter = 0; iter < 6; ++iter) {
    const db::library lib = random_library(rng);
    drc_engine seq({.run_mode = engine::mode::sequential});
    drc_engine par({.run_mode = engine::mode::parallel});

    const std::vector<rules::rule> deck = {
        rules::layer(2).overlap_with(1).area_at_least(64),
        rules::layer(1).not_cut_by(2).area_at_least(900),
        rules::layer(1).two_colorable(25),
        rules::layer(1).two_colorable(90),
        rules::layer(2).two_colorable(150),
    };
    std::vector<violation> want_deck;
    for (std::size_t ri = 0; ri < deck.size(); ++ri) {
      const rules::rule& r = deck[ri];
      const auto want = norm(oracle_shapes(lib, r));
      want_deck.insert(want_deck.end(), want.begin(), want.end());
      EXPECT_EQ(norm(seq.check(lib, r).violations), want) << "seq rule " << ri << " iter=" << iter;
      EXPECT_EQ(norm(par.check(lib, r).violations), want) << "par rule " << ri << " iter=" << iter;
      // Random windows, and small windows at a random point of a violation's
      // bounding box — often off the region's shapes yet on its edges.
      for (int k = 0; k < 6; ++k) {
        rect w;
        if (k % 2 == 0 || want.empty()) {
          const coord_t x = corner(rng), y = corner(rng);
          w = {x, y, static_cast<coord_t>(x + extent(rng)), static_cast<coord_t>(y + extent(rng))};
        } else {
          const violation& v = want[rng() % want.size()];
          const rect m = v.e1.mbr().join(v.e2.mbr());
          const coord_t x = static_cast<coord_t>(m.x_min + rng() % (m.width() + 1));
          const coord_t y = static_cast<coord_t>(m.y_min + rng() % (m.height() + 1));
          w = rect{x, y, x, y}.inflated(static_cast<coord_t>(rng() % 20));
        }
        EXPECT_EQ(norm(seq.check_region(lib, r, w).violations), norm(in_window(want, w)))
            << "window rule " << ri << " iter=" << iter;
      }
    }
    for (const engine::mode m : {engine::mode::sequential, engine::mode::parallel}) {
      drc_engine conc({.run_mode = m});
      conc.add_rules(deck);
      EXPECT_EQ(norm(conc.check_concurrent(lib).violations), norm(want_deck))
          << "check_concurrent mode=" << static_cast<int>(m) << " iter=" << iter;
    }
  }
}

std::vector<violation> in_region(std::vector<violation> vs, const geo::region& r) {
  std::erase_if(vs, [&](const violation& v) {
    return !r.overlaps(v.e1.mbr()) && !r.overlaps(v.e2.mbr());
  });
  return vs;
}

// A windowed deck run over a region of k rects, disjoint and overlapping,
// restricted to each rule's scope, equals the full check restricted the same
// way, in seq and par mode and for whole-clip rules too. A one-rect region
// restricted to its window equals check_region.
TEST_P(RandomLayout, RegionRunMatchesFullCheckInScope) {
  std::mt19937 rng(static_cast<std::uint32_t>(GetParam()) * 40503u + 3);
  std::uniform_int_distribution<coord_t> corner(-200, 4600), extent(20, 700), shift(-300, 300);
  const std::vector<rules::rule> deck = {
      rules::layer(1).width().greater_than(25),
      rules::layer(1).area().greater_than(5000),
      rules::polygons().is_rectilinear(),
      rules::layer(1).spacing().greater_than(25),
      rules::layer(2).enclosed_by(1).greater_than(12),
      rules::layer(2).overlap_with(1).area_at_least(64),
      rules::layer(1).not_cut_by(2).area_at_least(900),
      rules::layer(1).two_colorable(90),
  };
  std::vector<engine::exec_plan> plans;
  for (const rules::rule& r : deck) plans.push_back(engine::compile_plan(r));
  drc_engine seq({.run_mode = engine::mode::sequential});
  drc_engine par({.run_mode = engine::mode::parallel});
  for (int iter = 0; iter < 4; ++iter) {
    const db::library lib = random_library(rng);
    for (drc_engine* e : {&seq, &par}) {
      const int m = static_cast<int>(e->config().run_mode);
      engine::layout_snapshot snap(lib);
      const engine::deck_report full = e->check_deck(plans, snap);
      for (const int k : {1, 2, 5, 9}) {
        // Odd rects overlap their predecessor; the others fall anywhere.
        std::vector<rect> rs;
        for (int i = 0; i < k; ++i) {
          if (i % 2 == 1) {
            rs.push_back(rs.back().translated({shift(rng), shift(rng)}));
            continue;
          }
          const coord_t x = corner(rng), y = corner(rng);
          rs.push_back({x, y, static_cast<coord_t>(x + extent(rng)),
                        static_cast<coord_t>(y + extent(rng))});
        }
        const engine::deck_report dr = e->check_deck(plans, snap, geo::region(rs));
        ASSERT_EQ(dr.scope.size(), plans.size());
        for (std::size_t ri = 0; ri < plans.size(); ++ri) {
          const geo::region& scope = dr.scope[ri];
          for (const rect& r : rs) EXPECT_TRUE(scope.overlaps(r));
          EXPECT_EQ(norm(in_region(dr.per_rule[ri].violations, scope)),
                    norm(in_region(full.per_rule[ri].violations, scope)))
              << "rule " << ri << " k=" << k << " mode=" << m << " iter=" << iter;
        }
        if (k != 1) continue;
        const engine::deck_report cr = e->check_region(plans, snap, rs[0]);
        for (std::size_t ri = 0; ri < plans.size(); ++ri) {
          EXPECT_EQ(norm(in_window(dr.per_rule[ri].violations, rs[0])),
                    norm(cr.per_rule[ri].violations))
              << "check_region rule " << ri << " mode=" << m << " iter=" << iter;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLayout, ::testing::Range(1, 7));

// A 4x3 translated array of one unit cell plus a reflected-and-rotated and a
// magnified (mag 2) copy of the array. The unit holds a metal finger (layer
// 1) with a via (layer 2) half off it, and a three-square odd cycle on layer
// 1; a separate via cell sits half off the finger's upper end. Each unit is
// one partition clip of every whole-clip group, and every clip carries
// violations, so within each copy all clips but one replay a memoized
// result.
db::library clip_array_library() {
  db::library lib;
  const db::cell_id unit = lib.add_cell("unit");
  lib.at(unit).add_rect(1, {0, 0, 20, 100});
  lib.at(unit).add_rect(2, {16, 40, 24, 48});
  for (const rect& sq : {rect{40, 0, 50, 10}, rect{56, 0, 66, 10}, rect{48, 14, 58, 24}}) {
    lib.at(unit).add_rect(1, sq);
  }
  const db::cell_id via = lib.add_cell("via");
  lib.at(via).add_rect(2, {0, 0, 8, 8});
  const db::cell_id array = lib.add_cell("array");
  for (coord_t i = 0; i < 4; ++i) {
    for (coord_t j = 0; j < 3; ++j) {
      const point o{static_cast<coord_t>(i * 200), static_cast<coord_t>(j * 300)};
      lib.at(array).add_ref({unit, transform{o}});
      lib.at(array).add_ref(
          {via, transform{{static_cast<coord_t>(o.x + 16), static_cast<coord_t>(o.y + 70)}}});
    }
  }
  const db::cell_id top = lib.add_cell("top");
  lib.at(top).add_ref({array, transform{}});
  lib.at(top).add_ref({array, transform{{0, 3000}, 1, true, 1}});
  lib.at(top).add_ref({array, transform{{3000, 0}, 0, false, 2}});
  return lib;
}

// Overlap, not-cut and coloring rules that every clip of clip_array_library
// violates, magnified copy included.
std::vector<rules::rule> clip_array_deck() {
  return {
      rules::layer(2).overlap_with(1).area_at_least(200),
      rules::layer(1).not_cut_by(2).area_at_least(2500),
      rules::layer(1).two_colorable(13),
  };
}

// Every clip memo setting of `cfg` against the whole-layer oracle on
// clip_array_library: the memo replays 33 of the 36 clips per group (one
// distinct clip per copy), and with the memo off it replays none.
void expect_clip_memo_exact(engine_config cfg) {
  const db::library lib = clip_array_library();
  const int m = static_cast<int>(cfg.run_mode);
  for (const rules::rule& r : clip_array_deck()) {
    const auto want = norm(oracle_shapes(lib, r));
    ASSERT_FALSE(want.empty()) << checks::rule_kind_name(r.kind);
    // The window holds the first unit and cuts the second, a replayed clip:
    // it keeps the second unit's lower via and drops its upper one.
    const rect window{-10, -10, 218, 60};
    for (const bool memo : {true, false}) {
      cfg.enable_memoization = memo;
      drc_engine eng(cfg);
      const engine::check_report rep = eng.check(lib, r);
      EXPECT_EQ(norm(rep.violations), want) << "memo=" << memo << " mode=" << m;
      const engine::check_report win = eng.check_region(lib, r, window);
      EXPECT_EQ(norm(win.violations), norm(in_window(want, window)))
          << "window memo=" << memo << " mode=" << m;
      if (!memo) {
        EXPECT_EQ(rep.prune.clips_reused, 0u);
        EXPECT_EQ(rep.prune.clips_computed, 36u);
        EXPECT_EQ(win.prune.clips_reused, 0u);
      } else {
        EXPECT_EQ(rep.prune.clips_reused, 33u) << "mode=" << m;
        EXPECT_EQ(rep.prune.clips_computed, 3u) << "mode=" << m;
        EXPECT_EQ(win.prune.clips_reused, 1u) << "mode=" << m;
      }
      // Whole-clip reuse is not pair reuse.
      EXPECT_EQ(rep.prune.pairs_reused + rep.prune.pairs_computed, 0u);
    }
  }
}

TEST(ClipMemo, SequentialMatchesOracleAndMemoOff) {
  expect_clip_memo_exact({.run_mode = engine::mode::sequential});
}

TEST(ClipMemo, ParallelMatchesOracleAndMemoOff) {
  expect_clip_memo_exact({.run_mode = engine::mode::parallel});
}

// A traced check: only evaluated clips open a pipeline:clip span; the group
// span closes with the clip totals, and the metrics summary carries the
// reuse counters.
TEST(ClipMemo, TraceCountsReplayedClips) {
  const db::library lib = clip_array_library();
  drc_engine eng;
  trace::recorder& rec = trace::recorder::instance();
  rec.enable();
  const engine::check_report rep = eng.check(lib, clip_array_deck().front());
  rec.disable();
  EXPECT_EQ(rep.prune.clips_reused, 33u);

  const trace::metrics_summary m = rec.metrics();
  auto span_count = [&](const std::string& key) {
    for (const trace::span_stats& s : m.spans) {
      if (s.key == key) return s.count;
    }
    return std::size_t{0};
  };
  auto counter = [&](const std::string& key) {
    for (const trace::counter_stats& c : m.counters) {
      if (c.key == key) return c.last;
    }
    return std::int64_t{-1};
  };
  EXPECT_EQ(span_count("pipeline:clip"), 3u);
  EXPECT_EQ(counter("prune:clips_computed"), 3);
  EXPECT_EQ(counter("prune:clips_reused"), 33);
  int group_ends = 0;
  for (const trace::tagged_event& te : rec.snapshot()) {
    const trace::event& e = te.e;
    if (e.k != trace::event::kind::end || std::string_view(e.name) != "run_pair_group") continue;
    ++group_ends;
    ASSERT_NE(e.arg0_key, nullptr);
    EXPECT_EQ(std::string_view(e.arg0_key), "clips");
    EXPECT_EQ(e.arg0, 36);
    ASSERT_NE(e.arg1_key, nullptr);
    EXPECT_EQ(std::string_view(e.arg1_key), "reused");
    EXPECT_EQ(e.arg1, 33);
  }
  EXPECT_EQ(group_ends, 1);
  rec.clear();
}

// One odd cycle placed twice, 1000 right and 500 up: the second clip replays
// the first, and its reported conflict pair is the first one translated.
TEST(ClipMemo, OddCycleAtTranslatedPlacementsReportsTranslatedPairs) {
  db::library lib;
  const db::cell_id tri = lib.add_cell("tri");
  for (const rect& sq : {rect{0, 0, 10, 10}, rect{16, 0, 26, 10}, rect{8, 14, 18, 24}}) {
    lib.at(tri).add_rect(1, sq);
  }
  const db::cell_id top = lib.add_cell("top");
  const transform shift{{1000, 500}};
  lib.at(top).add_ref({tri, transform{}});
  lib.at(top).add_ref({tri, shift});
  const rules::rule r = rules::layer(1).two_colorable(10);

  drc_engine eng;
  const engine::check_report rep = eng.check(lib, r);
  EXPECT_EQ(rep.prune.clips_reused, 1u);
  const auto got = norm(rep.violations);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], checks::normalized(engine::transformed(got[0], shift)));
  EXPECT_EQ(got, norm(oracle_shapes(lib, r)));
}

}  // namespace
}  // namespace odrc
