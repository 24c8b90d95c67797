// Session-layer tests for odrc::serve: the edit/dirty-rect machinery and the
// central correctness property of the subsystem — an incremental recheck()
// produces exactly the violation key set of a fresh full check, including
// edits that straddle partition-row boundaries and touch array instances.
#include "serve/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "db/layout.hpp"
#include "engine/rule.hpp"
#include "engine/shard.hpp"
#include "serve/edits.hpp"

namespace odrc::serve {
namespace {

constexpr db::layer_t M1 = 19;
constexpr db::layer_t M2 = 20;
constexpr db::layer_t V1 = 21;

// Hierarchical fixture: `unit` is instantiated twice as plain refs and once
// as a 4x3 array, so a master edit dirties many disjoint top regions; `blk`
// has one reference (removing it changes the top-cell set).
db::library make_lib() {
  db::library lib("serve_test");
  const db::cell_id unit = lib.add_cell("unit");
  lib.at(unit).add_rect(M1, {0, 0, 200, 30});
  lib.at(unit).add_rect(M1, {0, 60, 200, 90});
  lib.at(unit).add_rect(V1, {20, 5, 40, 25});
  const db::cell_id blk = lib.add_cell("blk");
  lib.at(blk).add_rect(M1, {0, 0, 30, 400});
  lib.at(blk).add_rect(M2, {0, 0, 300, 30});
  const db::cell_id top = lib.add_cell("top");
  lib.at(top).add_rect(M1, {0, 1000, 2000, 1030});
  // Baseline violations so the first full check has a nonempty key set:
  // a pair 20 < 25 apart (spacing), a 15x15 speck (width + area), and a via
  // 2 dbu from its wire edges (enclosure 2 < 4).
  lib.at(top).add_rect(M1, {8000, 0, 8200, 30});
  lib.at(top).add_rect(M1, {8000, 50, 8200, 80});
  lib.at(top).add_rect(M1, {7000, 7000, 7015, 7015});
  lib.at(top).add_rect(V1, {9000, 1002, 9020, 1028});
  lib.at(top).add_rect(M2, {500, 0, 530, 2000});
  lib.at(top).add_ref({unit, transform{{0, 0}, 0, false, 1}});
  lib.at(top).add_ref({unit, transform{{3000, 0}, 0, false, 1}});
  lib.at(top).add_ref({blk, transform{{5000, 500}, 0, false, 1}});
  db::cell_array a;
  a.target = unit;
  a.trans.offset = {0, 4000};
  a.cols = 4;
  a.rows = 3;
  a.col_step = {400, 0};
  a.row_step = {0, 300};
  lib.at(top).add_array(a);
  return lib;
}

std::vector<rules::rule> make_deck() {
  return {
      rules::layer(M1).width().greater_than(18).named("M1.W"),
      rules::layer(M1).spacing().greater_than(25).named("M1.S"),
      rules::layer(M2).spacing().greater_than(25).named("M2.S"),
      rules::layer(M1).area().greater_than(800).named("M1.A"),
      rules::layer(V1).enclosed_by(M1).greater_than(4).named("V1.EN"),
  };
}

std::vector<edit_op> ops(const std::string& script) { return parse_edit_script(script); }

TEST(ServeSession, FullCheckPopulatesStore) {
  session s(make_lib(), make_deck());
  const auto rows = s.check_full();
  // Summary rows cover the rules with hits: spacing, width, area, enclosure.
  EXPECT_EQ(rows.size(), 4u);
  EXPECT_FALSE(s.keys().empty());
  EXPECT_EQ(s.stats().checks, 1u);
}

TEST(ServeSession, EditScriptParseErrorsNameTheLine) {
  EXPECT_THROW((void)parse_edit_script("add_poly top 19 0 0"), std::runtime_error);
  EXPECT_THROW((void)parse_edit_script("frobnicate x"), std::runtime_error);
  EXPECT_TRUE(parse_edit_script("# just a comment\n\n").empty());
}

TEST(ServeSession, RecheckFindsIntroducedViolation) {
  session s(make_lib(), make_deck());
  s.check_full();
  // A 10x10 M1 speck in empty space: too narrow and below min area.
  s.apply(ops("add_poly top 19 9000 9000 9010 9010"));
  const recheck_result r = s.recheck();
  EXPECT_FALSE(r.full);
  EXPECT_TRUE(r.diff.fixed.empty());
  EXPECT_FALSE(r.diff.introduced.empty());
  // Undo: remove the polygon we just added (last M1 polygon of top).
  const recheck_result r2 = [&] {
    s.apply(ops("remove_poly top 19 4"));
    return s.recheck();
  }();
  EXPECT_FALSE(r2.full);
  EXPECT_TRUE(r2.diff.introduced.empty());
  EXPECT_EQ(r2.diff.fixed.size(), r.diff.introduced.size());
}

TEST(ServeSession, FirstRecheckFallsBackToFull) {
  session s(make_lib(), make_deck());
  const recheck_result r = s.recheck();
  EXPECT_TRUE(r.full);
}

TEST(ServeSession, TopsChangeForcesFullRecheck) {
  session s(make_lib(), make_deck());
  s.check_full();
  // Removing blk's only reference promotes blk to a top cell.
  const edit_result er = s.apply(ops("remove_inst top 2"));
  EXPECT_TRUE(er.tops_changed);
  const recheck_result r = s.recheck();
  EXPECT_TRUE(r.full);

  // Equivalence still holds through the fallback.
  session fresh(make_lib(), make_deck());
  fresh.apply(ops("remove_inst top 2"));
  fresh.check_full();
  EXPECT_EQ(s.keys(), fresh.keys());
}

TEST(ServeSession, FailedScriptPoisonsUntilFullCheck) {
  session s(make_lib(), make_deck());
  s.check_full();
  EXPECT_THROW((void)s.apply(ops("add_poly nosuchcell 19 0 0 10 10")), std::runtime_error);
  EXPECT_TRUE(s.recheck().full);
  s.apply(ops("add_poly top 19 9000 9000 9010 9010"));
  EXPECT_FALSE(s.recheck().full);
}

// `er` holds exactly one dirty rect per placement of `master` under `top`,
// and each placement's images of `before` and `after` (master coordinates)
// lie inside some dirty rect.
void expect_rect_per_placement(const db::library& lib, const edit_result& er,
                               const std::string& master, const rect& before,
                               const rect& after) {
  const std::vector<transform> ps =
      placements_of(lib, lib.top_cells().front(), *lib.find(master));
  ASSERT_EQ(er.dirty.size(), ps.size());
  for (const transform& t : ps) {
    for (const rect& local : {before, after}) {
      const rect img = t.apply(local);
      EXPECT_TRUE(std::any_of(er.dirty.begin(), er.dirty.end(),
                              [&](const dirty_rect& d) { return d.box.contains(img); }))
          << "uncovered image " << img;
    }
  }
}

TEST(ServeSession, ArrayMasterEditDirtiesEveryInstance) {
  db::library lib = make_lib();
  engine::layout_snapshot snap(lib);
  // Moving a unit wire must dirty every instance of the 4x3 array (plus
  // both plain refs): one rect per placement.
  const edit_result er =
      apply_edits(lib, snap, ops("move_poly unit 19 0 0 7000"));
  ASSERT_FALSE(er.dirty.empty());
  EXPECT_EQ(er.dirty.size(), 14u);  // 12 array instances + 2 refs
  rect all;
  for (const dirty_rect& d : er.dirty) all = all.join(d.box);
  // Array spans x in [0, 400*3+200], y in [4000, 4000+300*2+90].
  EXPECT_LE(all.x_min, 0);
  EXPECT_GE(all.x_max, 1400);
  EXPECT_GE(all.y_max, 4690);
  expect_rect_per_placement(lib, er, "unit", {0, 0, 200, 30}, {0, 7000, 200, 7030});

  // A rotated and reflected 3x2 array of `leaf` inside `row`, arrayed 2x2
  // (rotated) in the top, plus one plain ref of `row`: 6 * (4 + 1) leaf
  // placements, each with its own rect.
  db::library nested("nested");
  const db::cell_id leaf = nested.add_cell("leaf");
  nested.at(leaf).add_rect(M1, {0, 0, 40, 10});
  nested.at(leaf).add_rect(M1, {0, 30, 40, 40});
  const db::cell_id row = nested.add_cell("row");
  db::cell_array inner;
  inner.target = leaf;
  inner.trans = transform{{100, 50}, 1, true, 1};
  inner.cols = 3;
  inner.rows = 2;
  inner.col_step = {0, 80};
  inner.row_step = {-70, 0};
  nested.at(row).add_array(inner);
  const db::cell_id top = nested.add_cell("top");
  db::cell_array outer;
  outer.target = row;
  outer.trans = transform{{5000, 0}, 3, false, 1};
  outer.cols = 2;
  outer.rows = 2;
  outer.col_step = {0, -600};
  outer.row_step = {900, 0};
  nested.at(top).add_array(outer);
  nested.at(top).add_ref({row, transform{{-3000, 2000}, 2, true, 1}});
  engine::layout_snapshot nsnap(nested);
  const edit_result ner = apply_edits(nested, nsnap, ops("move_poly leaf 19 1 25 -12"));
  EXPECT_EQ(ner.dirty.size(), 30u);
  expect_rect_per_placement(nested, ner, "leaf", {0, 30, 40, 40}, {25, 18, 65, 28});
  // An added leaf polygon is dirty at every placement too.
  const edit_result add = apply_edits(nested, nsnap, ops("add_poly leaf 21 5 5 15 15"));
  expect_rect_per_placement(nested, add, "leaf", {5, 5, 15, 15}, {5, 5, 15, 15});
}

// Every dirty rect of `er` carries exactly `want`.
void expect_layers(const edit_result& er, const std::vector<db::layer_t>& want) {
  ASSERT_FALSE(er.dirty.empty());
  for (const dirty_rect& d : er.dirty) EXPECT_EQ(d.layers, want);
}

TEST(ServeSession, InstanceEditDirtiesSubtreeLayers) {
  db::library lib = make_lib();
  engine::layout_snapshot snap(lib);
  using ls = std::vector<db::layer_t>;
  // A polygon op touches its own layer; `unit` holds M1 and V1, `blk` M1
  // and M2.
  expect_layers(apply_edits(lib, snap, ops("add_poly top 20 0 0 10 10")), ls{M2});
  expect_layers(apply_edits(lib, snap, ops("move_inst top 0 5 0")), ls{M1, V1});
  // Nesting blk in unit touches blk's layers at every unit placement...
  expect_layers(apply_edits(lib, snap, ops("add_inst unit blk 200 100")), ls{M1, M2});
  // ...after which unit's subtree carries M2 too, though unit itself does not.
  expect_layers(apply_edits(lib, snap, ops("move_inst top 1 5 0")), ls{M1, M2, V1});
  expect_layers(apply_edits(lib, snap, ops("remove_inst top 0")), ls{M1, M2, V1});
}

TEST(ServeSession, PlacementsOfCoversArrayInstances) {
  const db::library lib = make_lib();
  const auto top = lib.find("top");
  const auto unit = lib.find("unit");
  ASSERT_TRUE(top && unit);
  // 2 plain refs + 12 array instances.
  EXPECT_EQ(placements_of(lib, *top, *unit).size(), 14u);
}

// The tentpole acceptance property, randomized: an incremental session and a
// full-check session fed the identical edit stream must agree on the exact
// violation key set after every round. The op mix deliberately includes tall
// polygons and large vertical moves (straddling partition-row boundaries)
// and edits to the array master `unit`.
TEST(ServeIncremental, RandomizedEquivalence) {
  session inc(make_lib(), make_deck());
  session full(make_lib(), make_deck());
  inc.check_full();
  full.check_full();
  ASSERT_EQ(inc.keys(), full.keys());

  std::mt19937 rng(0x5EED);
  // Mirror of layer-local polygon counts so remove/move indices stay valid.
  std::map<std::pair<std::string, int>, int> npolys{
      {{"unit", M1}, 2}, {{"unit", V1}, 1}, {{"blk", M1}, 1},
      {{"blk", M2}, 1},  {{"top", M1}, 4},  {{"top", M2}, 1},
  };
  const std::vector<std::pair<std::string, int>> slots = {
      {"unit", M1}, {"blk", M1}, {"blk", M2}, {"top", M1}, {"top", M2}};

  std::size_t incremental_rounds = 0;
  for (int round = 0; round < 8; ++round) {
    std::ostringstream script;
    for (int k = 0; k < 3; ++k) {
      const auto& [cell, layer] = slots[rng() % slots.size()];
      const int x = static_cast<int>(rng() % 8000);
      const int y = static_cast<int>(rng() % 8000);
      switch (rng() % 4) {
        case 0: {  // add: sometimes a tall sliver spanning many rows
          const int w = 10 + static_cast<int>(rng() % 30);
          const int h = (rng() % 3 == 0) ? 2500 : 10 + static_cast<int>(rng() % 30);
          script << "add_poly " << cell << ' ' << layer << ' ' << x << ' ' << y << ' '
                 << (x + w) << ' ' << (y + h) << '\n';
          ++npolys[{cell, layer}];
          break;
        }
        case 1: {  // move: large dy crosses partition-row boundaries
          const int n = npolys[{cell, layer}];
          if (n == 0) break;
          const int dy = static_cast<int>(rng() % 3000) - 1500;
          script << "move_poly " << cell << ' ' << layer << ' ' << (rng() % n) << " 17 "
                 << dy << '\n';
          break;
        }
        case 2: {  // remove (keep at least one polygon on the layer)
          auto& n = npolys[{cell, layer}];
          if (n <= 1) break;
          script << "remove_poly " << cell << ' ' << layer << ' ' << (rng() % n) << '\n';
          --n;
          break;
        }
        case 3: {  // nudge a unit placement (refs 0/1 of top target unit)
          script << "move_inst top " << (rng() % 2) << " " << (rng() % 100) << ' '
                 << (rng() % 100) << '\n';
          break;
        }
      }
    }
    const auto batch = ops(script.str());
    if (batch.empty()) continue;
    inc.apply(batch);
    full.apply(batch);
    const recheck_result r = inc.recheck();
    full.check_full();
    if (!r.full) ++incremental_rounds;
    ASSERT_EQ(inc.keys(), full.keys()) << "round " << round << " script:\n" << script.str();
  }
  // The point of the test is the incremental path; require it actually ran.
  EXPECT_GE(incremental_rounds, 5u);
}

// Derived-area and coloring rules recheck through the same windowed path as
// pair rules: their recheck windows close over whole partition clips.
std::vector<rules::rule> derived_deck() {
  return {
      rules::layer(V1).overlap_with(M1).area_at_least(400).named("V1.M1.OV"),
      rules::layer(M1).not_cut_by(V1).area_at_least(25000).named("M1.NC"),
      rules::layer(M2).two_colorable(40).named("M2.MP"),
      rules::layer(M1).spacing().greater_than(25).named("M1.S"),
  };
}

// Mixed layer sets: a whole-clip rule and a distance rule read the same
// objects and run as one group (V1 in M1, and M2), so a windowed recheck
// closes the distance rule's scope over whole clips too; M1 width and
// spacing share a group that the any-layer shape rule joins for an M1 edit.
std::vector<rules::rule> mixed_deck() {
  return {
      rules::layer(V1).enclosed_by(M1).greater_than(4).named("V1.EN"),
      rules::layer(V1).overlap_with(M1).area_at_least(400).named("V1.M1.OV"),
      rules::layer(M2).spacing().greater_than(25).named("M2.S"),
      rules::layer(M2).two_colorable(40).named("M2.MP"),
      rules::layer(M1).width().greater_than(18).named("M1.W"),
      rules::layer(M1).spacing().greater_than(25).named("M1.S"),
      rules::polygons().is_rectilinear().named("SHAPES"),
  };
}

// Keys of a fresh deck check of make() with `scripts` applied, on a new
// engine and snapshot.
std::vector<std::string> fresh_keys(const std::vector<std::string>& scripts,
                                    const std::vector<rules::rule>& deck,
                                    db::library (*make)() = make_lib) {
  db::library lib = make();
  {
    engine::layout_snapshot snap(lib);
    for (const std::string& sc : scripts) (void)apply_edits(lib, snap, ops(sc));
  }
  engine::drc_engine e;
  e.add_rules(deck);
  const engine::deck_report dr = e.check_deck(lib);
  report::violation_db db;
  for (std::size_t i = 0; i < deck.size(); ++i) db.add(deck[i].name, dr.per_rule[i].violations);
  return db.keys();
}

TEST(ServeRecheck, DerivedAndColoringMatchFreshCheck) {
  const std::vector<rules::rule> deck = derived_deck();
  const std::vector<rect> bands = engine::plan_shards(make_lib(), 2);
  ASSERT_EQ(bands.size(), 2u);
  const int seam = bands[0].y_max;

  session inc(make_lib(), deck);
  session shard0(make_lib(), deck), shard1(make_lib(), deck);
  shard0.set_shard({bands[0], 0, 2});
  shard1.set_shard({bands[1], 1, 2});
  for (session* s : {&inc, &shard0, &shard1}) s->check_full();

  // Scripted edits first, then seeded random wire / instance / master edits.
  std::vector<std::string> scripts;
  auto rect_line = [](const char* cell, db::layer_t layer, int x1, int y1, int x2, int y2) {
    std::ostringstream os;
    os << "add_poly " << cell << ' ' << layer << ' ' << x1 << ' ' << y1 << ' ' << x2 << ' '
       << y2 << '\n';
    return os.str();
  };
  const int ly = seam + 200;
  // An L-shaped not-cut region (23100 < 25000) as two touching M1 bars...
  scripts.push_back(rect_line("top", M1, 10000, ly, 10400, ly + 30) +
                    rect_line("top", M1, 10370, ly + 30, 10400, ly + 400));
  // ...then a speck in its notch reaching the L's top bounding-box edge:
  // the window touches the L's violation edge but none of its shapes.
  scripts.push_back(rect_line("top", M1, 10200, ly + 380, 10210, ly + 400));
  scripts.push_back("remove_poly top 19 6\n");
  // A tab on the L's vertical bar, far from the L's bounding-box edges,
  // lifts its area to 26100: the stored L entry must go.
  scripts.push_back(rect_line("top", M1, 10400, ly + 200, 10450, ly + 260));
  // A not-cut region and an M2 odd cycle straddling the band seam.
  scripts.push_back(rect_line("top", M1, 12000, seam - 100, 12030, seam + 100) +
                    rect_line("top", M2, 12500, seam - 60, 12518, seam - 10) +
                    rect_line("top", M2, 12540, seam - 60, 12558, seam - 10) +
                    rect_line("top", M2, 12520, seam + 5, 12538, seam + 55));
  // A V1 via moved half off its M1 finger in the arrayed master.
  scripts.push_back("move_poly unit 21 0 -30 0\n");
  // Instance edit: a unit placement onto the seam structures.
  scripts.push_back("move_inst top 0 11950 " + std::to_string(seam - 40) + "\n");

  std::mt19937 rng(0xC0105);
  std::map<std::pair<std::string, int>, int> npolys{
      {{"unit", M1}, 2}, {{"unit", V1}, 1}, {{"top", M1}, 8}, {{"top", M2}, 4},
      {{"top", V1}, 1},
  };
  const std::vector<std::pair<std::string, int>> slots = {
      {"unit", M1}, {"unit", V1}, {"top", M1}, {"top", M2}, {"top", V1}};
  for (int round = 0; round < 16; ++round) {
    std::ostringstream script;
    for (int k = 0; k < 2; ++k) {
      const auto& [cell, layer] = slots[rng() % slots.size()];
      const int x = 9800 + static_cast<int>(rng() % 900);
      const int y = seam - 300 + static_cast<int>(rng() % 1000);
      switch (rng() % 4) {
        case 0: {
          const int w = 10 + static_cast<int>(rng() % 200);
          const int h = 10 + static_cast<int>(rng() % 200);
          script << "add_poly " << cell << ' ' << layer << ' ' << x << ' ' << y << ' ' << (x + w)
                 << ' ' << (y + h) << '\n';
          ++npolys[{cell, layer}];
          break;
        }
        case 1: {
          const int n = npolys[{cell, layer}];
          if (n == 0) break;
          script << "move_poly " << cell << ' ' << layer << ' ' << (rng() % n) << ' '
                 << static_cast<int>(rng() % 80) - 40 << ' ' << static_cast<int>(rng() % 80) - 40
                 << '\n';
          break;
        }
        case 2: {
          auto& n = npolys[{cell, layer}];
          if (n <= 1) break;
          script << "remove_poly " << cell << ' ' << layer << ' ' << (rng() % n) << '\n';
          --n;
          break;
        }
        case 3:
          script << "move_inst top " << (rng() % 2) << ' ' << static_cast<int>(rng() % 60) - 30
                 << ' ' << static_cast<int>(rng() % 60) - 30 << '\n';
          break;
      }
    }
    if (!ops(script.str()).empty()) scripts.push_back(script.str());
  }

  std::vector<std::string> applied;
  std::size_t incremental = 0;
  for (const std::string& sc : scripts) {
    applied.push_back(sc);
    const std::vector<std::string> want = fresh_keys(applied, deck);
    for (session* s : {&inc, &shard0, &shard1}) {
      s->apply(ops(sc));
      if (!s->recheck().full) ++incremental;
    }
    ASSERT_EQ(inc.keys(), want) << "after script:\n" << sc;
    std::vector<std::string> both = shard0.keys();
    const std::vector<std::string> k1 = shard1.keys();
    both.insert(both.end(), k1.begin(), k1.end());
    std::sort(both.begin(), both.end());
    both.erase(std::unique(both.begin(), both.end()), both.end());
    ASSERT_EQ(both, want) << "bands, after script:\n" << sc;
  }
  EXPECT_EQ(incremental, 3 * scripts.size());
}

// Layer-aware rechecks: edits on every layer, one that no rule reads
// included, and instance moves whose child carries a nested subtree (blk
// inside unit), single-process and as two band sessions. After every round
// the stores equal a fresh check, and edits confined to some layers rerun
// fewer plans than the deck has.
TEST(ServeRecheck, LayerSkipMatchesFreshCheck) {
  constexpr db::layer_t UNREAD = 30;
  const std::vector<rect> bands = engine::plan_shards(make_lib(), 2);
  ASSERT_EQ(bands.size(), 2u);
  const int seam = bands[0].y_max;
  for (const std::vector<rules::rule>& deck :
       {make_deck(), derived_deck(), mixed_deck()}) {
    session inc(make_lib(), deck);
    session shard0(make_lib(), deck), shard1(make_lib(), deck);
    shard0.set_shard({bands[0], 0, 2});
    shard1.set_shard({bands[1], 1, 2});
    for (session* s : {&inc, &shard0, &shard1}) s->check_full();

    // Nest blk in unit, then one edit on an unread layer and one on M2 only.
    std::vector<std::string> scripts = {"add_inst unit blk 200 100\n",
                                        "add_poly top 30 100 100 140 140\n",
                                        "add_poly top 20 540 300 560 340\n"};
    std::map<std::pair<std::string, int>, int> npolys{
        {{"unit", M1}, 2}, {{"unit", V1}, 1}, {{"unit", UNREAD}, 0}, {{"blk", M2}, 1},
        {{"top", M1}, 4},  {{"top", M2}, 2},  {{"top", V1}, 1},      {{"top", UNREAD}, 1}};
    std::vector<std::pair<std::string, int>> slots;
    for (const auto& [slot, n] : npolys) slots.push_back(slot);
    std::mt19937 rng(0x1A7E5);
    for (int round = 0; round < 24; ++round) {
      std::ostringstream script;
      for (int k = 0; k < 2; ++k) {
        const auto& [cell, layer] = slots[rng() % slots.size()];
        // Near the nested blk and top's M2 line, or across the band seam.
        const int x = static_cast<int>(rng() % 1600);
        const int y = (rng() % 2 ? 0 : seam - 400) + static_cast<int>(rng() % 1600);
        switch (rng() % 5) {
          case 0: {
            const int w = 10 + static_cast<int>(rng() % 200);
            const int h = 10 + static_cast<int>(rng() % 200);
            script << "add_poly " << cell << ' ' << layer << ' ' << x << ' ' << y << ' '
                   << (x + w) << ' ' << (y + h) << '\n';
            ++npolys[{cell, layer}];
            break;
          }
          case 1: {
            const int n = npolys[{cell, layer}];
            if (n == 0) break;
            script << "move_poly " << cell << ' ' << layer << ' ' << (rng() % n) << ' '
                   << static_cast<int>(rng() % 80) - 40 << ' '
                   << static_cast<int>(rng() % 80) - 40 << '\n';
            break;
          }
          case 2: {
            auto& n = npolys[{cell, layer}];
            if (n <= 1) break;
            script << "remove_poly " << cell << ' ' << layer << ' ' << (rng() % n) << '\n';
            --n;
            break;
          }
          case 3:  // a unit placement, nested blk included
            script << "move_inst top " << (rng() % 2) << ' ' << static_cast<int>(rng() % 60) - 30
                   << ' ' << static_cast<int>(rng() % 60) - 30 << '\n';
            break;
          case 4:  // blk inside the unit master: every unit placement moves it
            script << "move_inst unit 0 " << static_cast<int>(rng() % 60) - 30 << ' '
                   << static_cast<int>(rng() % 60) - 30 << '\n';
            break;
        }
      }
      if (!ops(script.str()).empty()) scripts.push_back(script.str());
    }

    std::vector<std::string> applied;
    std::size_t incremental = 0, fewer = 0;
    for (const std::string& sc : scripts) {
      applied.push_back(sc);
      const std::vector<std::string> want = fresh_keys(applied, deck);
      for (session* s : {&inc, &shard0, &shard1}) {
        s->apply(ops(sc));
        const recheck_result r = s->recheck();
        if (!r.full) ++incremental;
        if (s == &inc && r.plans < deck.size()) ++fewer;
      }
      ASSERT_EQ(inc.keys(), want) << "after script:\n" << sc;
      std::vector<std::string> both = shard0.keys();
      const std::vector<std::string> k1 = shard1.keys();
      both.insert(both.end(), k1.begin(), k1.end());
      std::sort(both.begin(), both.end());
      both.erase(std::unique(both.begin(), both.end()), both.end());
      ASSERT_EQ(both, want) << "bands, after script:\n" << sc;
    }
    EXPECT_EQ(incremental, 3 * scripts.size());
    EXPECT_GE(fewer, 2u);
  }
}

// Two top cells share the plane but are checked apart. An edit on T1 sits
// in the corner of T1's L-shaped not-cut region, so the rule's scope grows
// to the L's extent and reaches T2's speck, whose clip misses the edit
// window. The speck's stored entry touches the scope, so the run must
// evaluate T2's clip too, or the purge loses it.
TEST(ServeRecheck, ClosureAcrossTopCellsMatchesFreshCheck) {
  auto make = [] {
    db::library lib("two_tops");
    const db::cell_id t1 = lib.add_cell("T1");
    lib.at(t1).add_rect(M1, {0, 0, 800, 30});      // the L: 35100 < 50000
    lib.at(t1).add_rect(M1, {770, 30, 800, 400});
    const db::cell_id t2 = lib.add_cell("T2");
    lib.at(t2).add_rect(M1, {600, 300, 610, 310});  // a speck inside the L's box
    return lib;
  };
  const std::vector<rules::rule> deck = {
      rules::layer(M1).not_cut_by(V1).area_at_least(50000).named("M1.NC"),
      rules::layer(M1).spacing().greater_than(25).named("M1.S"),
  };
  const std::vector<std::string> scripts = {
      "add_poly T1 19 -20 0 0 30\n",       // grows the L at its far corner
      "add_poly T2 19 650 300 660 340\n",  // a second T2 speck, away from T1's edit
      "move_poly T1 19 2 -5 0\n",
      "remove_poly T1 19 2\n",
  };
  // Bands split between the edit window and T2's specks.
  const rect lo{-1000000, -1000000, 1000000, 150};
  const rect hi{-1000000, 151, 1000000, 1000000};
  session inc(make(), deck);
  session shard0(make(), deck), shard1(make(), deck);
  shard0.set_shard({lo, 0, 2});
  shard1.set_shard({hi, 1, 2});
  for (session* s : {&inc, &shard0, &shard1}) s->check_full();
  db::library fresh = make();
  for (const std::string& sc : scripts) {
    {
      engine::layout_snapshot snap(fresh);
      (void)apply_edits(fresh, snap, ops(sc));
    }
    engine::drc_engine e;
    e.add_rules(deck);
    const engine::deck_report dr = e.check_deck(fresh);
    report::violation_db db;
    for (std::size_t i = 0; i < deck.size(); ++i) db.add(deck[i].name, dr.per_rule[i].violations);
    const std::vector<std::string> want = db.keys();
    for (session* s : {&inc, &shard0, &shard1}) {
      s->apply(ops(sc));
      EXPECT_FALSE(s->recheck().full);
    }
    ASSERT_EQ(inc.keys(), want) << "after script:\n" << sc;
    std::vector<std::string> both = shard0.keys();
    const std::vector<std::string> k1 = shard1.keys();
    both.insert(both.end(), k1.begin(), k1.end());
    std::sort(both.begin(), both.end());
    both.erase(std::unique(both.begin(), both.end()), both.end());
    ASSERT_EQ(both, want) << "bands, after script:\n" << sc;
  }
}

// Overlapping edits on different layers in one recheck: each dirty rect
// keeps its own layers, so a plan runs over exactly the rects of the layers
// it reads and a rect of another layer does not widen its region.
TEST(ServeRecheck, OverlappingRectsKeepTheirOwnLayers) {
  const std::vector<rules::rule> deck = make_deck();
  const std::vector<std::string> scripts = {
      // M2 and V1 rects overlapping each other and top's M1 line at y 1000.
      "add_poly top 20 600 990 640 1040\n"
      "add_poly top 21 610 1003 628 1027\n"
      "add_poly top 20 620 1020 700 1060\n",
      // Adds on M1 and V1 overlapping, far from the M2 wire.
      "add_poly top 19 9000 9000 9100 9030\n"
      "add_poly top 21 9010 9005 9030 9025\n",
  };
  // Plans reading M2 or V1 (M2.S, V1.EN), then M1 or V1 (all but M2.S).
  const std::size_t want_plans[] = {2, 4};
  session inc(make_lib(), deck);
  inc.check_full();
  std::vector<std::string> applied;
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    applied.push_back(scripts[i]);
    const edit_result er = inc.apply(ops(scripts[i]));
    const recheck_result r = inc.recheck();
    EXPECT_FALSE(r.full);
    EXPECT_EQ(r.windows, er.dirty.size()) << "script " << i;
    EXPECT_EQ(r.plans, want_plans[i]) << "script " << i;
    ASSERT_EQ(inc.keys(), fresh_keys(applied, deck)) << "after script:\n" << scripts[i];
  }
}

// A master inside a nested AREF: `bit` is arrayed 4x1 (and reflected 4x1)
// in `word`, and `word` is arrayed 1x3 in the top, which also routes M1 and
// M2 far from the arrays. The arrays straddle the band seam.
db::library make_nested_lib() {
  db::library lib("nested_serve");
  const db::cell_id bit = lib.add_cell("bit");
  lib.at(bit).add_rect(M1, {0, 0, 200, 30});
  lib.at(bit).add_rect(M1, {0, 60, 200, 90});
  lib.at(bit).add_rect(V1, {20, 5, 40, 25});
  lib.at(bit).add_rect(M2, {100, 0, 130, 90});
  const db::cell_id word = lib.add_cell("word");
  db::cell_array a;
  a.target = bit;
  a.cols = 4;
  a.rows = 1;
  a.col_step = {400, 0};
  lib.at(word).add_array(a);
  a.trans = transform{{0, 400}, 0, true, 1};
  lib.at(word).add_array(a);
  const db::cell_id top = lib.add_cell("top");
  db::cell_array w;
  w.target = word;
  w.rows = 3;
  w.row_step = {0, 1500};
  lib.at(top).add_array(w);
  for (coord_t k = 0; k < 40; ++k) {
    lib.at(top).add_rect(M1, {20000, 200 * k, 26000, 200 * k + 30});
    lib.at(top).add_rect(M2, {30000 + 100 * k, 0, 30000 + 100 * k + 30, 8000});
  }
  lib.at(top).add_rect(M1, {20000, 8010, 26000, 8040});  // 10 < 25 from the last wire
  lib.at(top).add_rect(V1, {21000, 7802, 21020, 7828});  // enclosure 2 < 4
  return lib;
}

// Array master edits recheck only their placements, single-process and as
// two band sessions: after every round the stores equal a fresh check, and
// the recheck examines fewer check objects than a full check of the deck.
TEST(ServeRecheck, ArrayMasterEditMatchesFreshCheck) {
  const std::vector<rect> bands = engine::plan_shards(make_nested_lib(), 2);
  ASSERT_EQ(bands.size(), 2u);
  for (const std::vector<rules::rule>& deck :
       {make_deck(), derived_deck(), mixed_deck()}) {
    session inc(make_nested_lib(), deck);
    session shard0(make_nested_lib(), deck), shard1(make_nested_lib(), deck);
    shard0.set_shard({bands[0], 0, 2});
    shard1.set_shard({bands[1], 1, 2});
    for (session* s : {&inc, &shard0, &shard1}) s->check_full();

    std::vector<std::string> scripts = {"move_poly bit 19 0 0 45\n",  // closes the gap to 15
                                        "move_poly bit 21 0 -30 0\n",
                                        "add_poly bit 20 150 40 165 50\n"};
    std::map<std::pair<std::string, int>, int> npolys{
        {{"bit", M1}, 2}, {{"bit", V1}, 1}, {{"bit", M2}, 1}, {{"top", M1}, 41}};
    std::vector<std::pair<std::string, int>> slots;
    for (const auto& [slot, n] : npolys) slots.push_back(slot);
    std::mt19937 rng(0xA44E7);
    for (int round = 0; round < 12; ++round) {
      std::ostringstream script;
      const auto& [cell, layer] = slots[rng() % slots.size()];
      const bool in_bit = cell == "bit";
      const int x = in_bit ? static_cast<int>(rng() % 250) : 20000 + static_cast<int>(rng() % 6000);
      const int y = in_bit ? static_cast<int>(rng() % 120) : static_cast<int>(rng() % 8000);
      switch (rng() % 3) {
        case 0:
          script << "add_poly " << cell << ' ' << layer << ' ' << x << ' ' << y << ' '
                 << (x + 10 + static_cast<int>(rng() % 60)) << ' '
                 << (y + 10 + static_cast<int>(rng() % 60)) << '\n';
          ++npolys[{cell, layer}];
          break;
        case 1:
          script << "move_poly " << cell << ' ' << layer << ' '
                 << (rng() % npolys[{cell, layer}]) << ' ' << static_cast<int>(rng() % 60) - 30
                 << ' ' << static_cast<int>(rng() % 60) - 30 << '\n';
          break;
        case 2: {
          auto& n = npolys[{cell, layer}];
          if (n <= 1) break;
          script << "remove_poly " << cell << ' ' << layer << ' ' << (rng() % n) << '\n';
          --n;
          break;
        }
      }
      if (!ops(script.str()).empty()) scripts.push_back(script.str());
    }

    std::vector<std::string> applied;
    std::size_t bit_rounds = 0;
    for (const std::string& sc : scripts) {
      applied.push_back(sc);
      const std::vector<std::string> want = fresh_keys(applied, deck, make_nested_lib);
      db::library now = make_nested_lib();
      {
        engine::layout_snapshot snap(now);
        for (const std::string& a : applied) (void)apply_edits(now, snap, ops(a));
      }
      engine::drc_engine e;
      e.add_rules(deck);
      const std::size_t whole = e.check_deck(now).total.instances;
      for (session* s : {&inc, &shard0, &shard1}) {
        const edit_result er = s->apply(ops(sc));
        const recheck_result r = s->recheck();
        ASSERT_FALSE(r.full);
        if (s == &inc && sc.find(" bit ") != std::string::npos) {
          ++bit_rounds;
          EXPECT_EQ(er.dirty.size(), 24u);  // 8 bits per word, 3 words
          EXPECT_LT(r.objects, whole) << "after script:\n" << sc;
        }
      }
      ASSERT_EQ(inc.keys(), want) << "after script:\n" << sc;
      std::vector<std::string> both = shard0.keys();
      const std::vector<std::string> k1 = shard1.keys();
      both.insert(both.end(), k1.begin(), k1.end());
      std::sort(both.begin(), both.end());
      both.erase(std::unique(both.begin(), both.end()), both.end());
      ASSERT_EQ(both, want) << "bands, after script:\n" << sc;
    }
    EXPECT_GE(bit_rounds, 5u);
  }
}

// make_lib() plus non-rectilinear shapes on three layers: a diamond in the
// arrayed `unit` master on M1, and diamonds on M2 and V1 on top, over the
// first array instance.
db::library make_shapes_lib() {
  db::library lib = make_lib();
  const auto diamond = [](db::layer_t l, coord_t x, coord_t y) {
    return db::polygon_elem{
        l, 0, polygon({{x, y + 10}, {x + 10, y + 20}, {x + 20, y + 10}, {x + 10, y}}), {}};
  };
  lib.at(*lib.find("unit")).add_polygon(diamond(M1, 100, 35));
  lib.at(*lib.find("top")).add_polygon(diamond(M2, 110, 4040));
  lib.at(*lib.find("top")).add_polygon(diamond(V1, 150, 4030));
  return lib;
}

// An any-layer shape rule rechecks only the layers an edit touched, and
// purges only those layers' entries: an M1 edit of `unit` dirties the rects
// holding top's M2 and V1 diamonds, whose entries must survive untouched.
TEST(ServeRecheck, AnyLayerRuleRechecksTouchedLayersOnly) {
  const std::vector<rules::rule> deck = {
      rules::polygons().is_rectilinear().named("SHAPES"),
      rules::layer(M1).width().greater_than(18).named("M1.W"),
      rules::layer(M2).spacing().greater_than(25).named("M2.S"),
  };
  const std::vector<rect> bands = engine::plan_shards(make_shapes_lib(), 2);
  ASSERT_EQ(bands.size(), 2u);
  session inc(make_shapes_lib(), deck);
  session shard0(make_shapes_lib(), deck), shard1(make_shapes_lib(), deck);
  shard0.set_shard({bands[0], 0, 2});
  shard1.set_shard({bands[1], 1, 2});
  for (session* s : {&inc, &shard0, &shard1}) s->check_full();
  ASSERT_EQ(inc.keys(), fresh_keys({}, deck, make_shapes_lib));

  std::vector<std::string> scripts = {"move_poly unit 19 2 4 0\n",  // the M1 diamond
                                      "move_poly unit 19 0 0 3\n",
                                      "move_poly top 20 1 -7 5\n"};  // the M2 diamond
  std::map<std::pair<std::string, int>, int> npolys{
      {{"unit", M1}, 3}, {{"top", M1}, 4}, {{"top", M2}, 2}, {{"top", V1}, 2}};
  std::vector<std::pair<std::string, int>> slots;
  for (const auto& [slot, n] : npolys) slots.push_back(slot);
  std::mt19937 rng(0x54A9E5);
  for (int round = 0; round < 16; ++round) {
    std::ostringstream script;
    const auto& [cell, layer] = slots[rng() % slots.size()];
    const int x = static_cast<int>(rng() % 400);
    const int y = (cell == "unit" ? 0 : 4000) + static_cast<int>(rng() % 100);
    switch (rng() % 3) {
      case 0:
        script << "add_poly " << cell << ' ' << layer << ' ' << x << ' ' << y << ' ' << (x + 30)
               << ' ' << (y + 20) << '\n';
        ++npolys[{cell, layer}];
        break;
      case 1:
        script << "move_poly " << cell << ' ' << layer << ' ' << (rng() % npolys[{cell, layer}])
               << ' ' << static_cast<int>(rng() % 40) - 20 << ' '
               << static_cast<int>(rng() % 40) - 20 << '\n';
        break;
      case 2:
        script << "move_inst top " << (rng() % 2) << ' ' << static_cast<int>(rng() % 60) - 30
               << ' ' << static_cast<int>(rng() % 60) - 30 << '\n';
        break;
    }
    scripts.push_back(script.str());
  }

  std::vector<std::string> applied;
  for (const std::string& sc : scripts) {
    applied.push_back(sc);
    const std::vector<std::string> want = fresh_keys(applied, deck, make_shapes_lib);
    for (session* s : {&inc, &shard0, &shard1}) {
      s->apply(ops(sc));
      ASSERT_FALSE(s->recheck().full);
    }
    ASSERT_EQ(inc.keys(), want) << "after script:\n" << sc;
    std::vector<std::string> both = shard0.keys();
    const std::vector<std::string> k1 = shard1.keys();
    both.insert(both.end(), k1.begin(), k1.end());
    std::sort(both.begin(), both.end());
    both.erase(std::unique(both.begin(), both.end()), both.end());
    ASSERT_EQ(both, want) << "bands, after script:\n" << sc;
  }
  // The shape entries the M1 edits left standing span M2 and V1.
  std::set<std::string> shape_layers;
  for (const std::string& k : inc.keys()) {
    std::istringstream key(k);  // rule|kind|layer1|...
    std::string rule, kind, layer;
    std::getline(key, rule, '|');
    std::getline(key, kind, '|');
    std::getline(key, layer, '|');
    if (rule == "SHAPES") shape_layers.insert(layer);
  }
  EXPECT_EQ(shape_layers, (std::set<std::string>{"19", "20", "21"}));
}

TEST(ServeIncremental, DiffAccountsForEveryKeyChange) {
  session s(make_lib(), make_deck());
  s.check_full();
  const auto before = s.keys();
  s.apply(ops("add_poly top 19 9000 9000 9010 9010\n"
              "move_poly unit 19 1 0 7\n"));
  const recheck_result r = s.recheck();
  const auto after = s.keys();
  // |after| = |before| - fixed + introduced, and unchanged = |before| - fixed.
  EXPECT_EQ(after.size(), before.size() - r.diff.fixed.size() + r.diff.introduced.size());
  EXPECT_EQ(r.diff.unchanged.size(), before.size() - r.diff.fixed.size());
}

// Two sessions driven by parallel edit/recheck loops (the TSan CI target):
// sessions serialize internally but run concurrently against each other,
// sharing thread_pool::global() through the engine. Each thread's edit
// stream is serial per session, so the end state is deterministic and must
// match a fresh session fed the same stream.
TEST(ServeConcurrent, TwoSessionsParallelEditRecheckLoops) {
  session_manager mgr;
  const std::uint32_t ids[2] = {mgr.create(make_lib(), make_deck()),
                                mgr.create(make_lib(), make_deck())};
  auto script_for = [](int which, int i) {
    std::ostringstream s;
    const int x = 9000 + which * 2000 + i * 50;
    s << "add_poly top 19 " << x << " 9000 " << (x + 10) << " 9010\n";
    return s.str();
  };
  std::vector<std::string> streams[2];
  std::vector<std::thread> threads;
  for (int which = 0; which < 2; ++which) {
    for (int i = 0; i < 6; ++i) streams[which].push_back(script_for(which, i));
    threads.emplace_back([&, which] {
      auto s = mgr.get(ids[which]);
      s->check_full();
      for (const std::string& sc : streams[which]) {
        s->apply(parse_edit_script(sc));
        (void)s->recheck();
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int which = 0; which < 2; ++which) {
    session fresh(make_lib(), make_deck());
    for (const std::string& sc : streams[which]) fresh.apply(parse_edit_script(sc));
    fresh.check_full();
    EXPECT_EQ(mgr.get(ids[which])->keys(), fresh.keys()) << "session " << which;
  }
}

TEST(ServeSession, ManagerLifecycle) {
  session_manager mgr;
  const std::uint32_t id = mgr.create(make_lib(), make_deck());
  EXPECT_EQ(id, 1u);
  EXPECT_EQ(mgr.count(), 1u);
  ASSERT_NE(mgr.get(id), nullptr);
  EXPECT_EQ(mgr.get(99), nullptr);
  EXPECT_TRUE(mgr.close(id));
  EXPECT_FALSE(mgr.close(id));
  EXPECT_EQ(mgr.count(), 0u);
}

}  // namespace
}  // namespace odrc::serve
