// Deck-batching equivalence tests: rules grouped onto a shared pipeline pass
// must report exactly the violations of solo per-rule execution
// (check(lib, rule), each over its own snapshot), in every mode, with
// per-rule attribution preserved.
#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "engine/plan.hpp"
#include "workload/workload.hpp"

namespace odrc::engine {
namespace {

using workload::layers;
using workload::tech;

std::vector<checks::violation> norm(std::vector<checks::violation> v) {
  checks::normalize_all(v);
  return v;
}

// A deck built to batch: 11 rules over 4 layers in 3 groups, one per layer
// set, each mixing evaluators. M1: spacing ×3 (one with a PRL tier), width
// and area; M2: spacing ×2 and coloring; V1-in-M1: enclosure ×2 and
// derived-area. Every plan_class and every member role (per-object,
// distance, whole-clip, containment) is present.
std::vector<rules::rule> batched_deck() {
  return {
      rules::layer(layers::M1).spacing().greater_than(tech::wire_space),
      rules::layer(layers::M1).spacing().greater_than(tech::wire_space - 4),
      rules::layer(layers::M1).spacing().greater_than(12).when_projection_over(40, 24),
      rules::layer(layers::M2).spacing().greater_than(tech::wire_space),
      rules::layer(layers::M2).spacing().greater_than(10),
      rules::layer(layers::V1).enclosed_by(layers::M1).greater_than(tech::via_enclosure),
      rules::layer(layers::V1).enclosed_by(layers::M1).greater_than(2),
      rules::layer(layers::M1).width().greater_than(tech::wire_width),
      rules::layer(layers::M1).area().greater_than(tech::min_area),
      // One dbu^2 above a full via, so every V1 landing reports; M2 shows odd
      // conflict cycles from a 60 dbu same-mask spacing.
      rules::layer(layers::V1).overlap_with(layers::M1)
          .area_at_least(tech::via_size * tech::via_size + 1),
      rules::layer(layers::M2).two_colorable(60),
  };
}

db::library make_lib() {
  workload::design_spec spec = workload::spec_for("uart", 0.15);
  spec.inject = {2, 3, 2, 1};
  return workload::generate(spec).lib;
}

TEST(DeckBatching, GroupingKeyIsLayerSet) {
  std::vector<exec_plan> plans;
  for (const rules::rule& r : batched_deck()) plans.push_back(compile_plan(r));
  const std::vector<plan_group> groups = group_plans(plans);

  // One group per layer set, whatever the members' evaluators; deck order
  // preserved.
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].layer1, layers::M1);
  EXPECT_EQ(groups[0].layer2, layers::M1);
  EXPECT_FALSE(groups[0].two_layer);
  EXPECT_EQ(groups[0].members, (std::vector<std::size_t>{0, 1, 2, 7, 8}));
  // Group inflation is the max over pair-class members: the PRL rule's 24
  // dbu tier, not the width rule's distance.
  EXPECT_EQ(groups[0].inflate, 24);

  // Spacing and coloring on M2: the same-mask spacing of 60 dominates.
  EXPECT_EQ(groups[1].layer1, layers::M2);
  EXPECT_FALSE(groups[1].two_layer);
  EXPECT_EQ(groups[1].members, (std::vector<std::size_t>{3, 4, 10}));
  EXPECT_EQ(groups[1].inflate, 60);

  // Enclosure and derived-area over (V1, M1): the derived-area rule's inflate
  // 0 does not lower the enclosure distance.
  EXPECT_EQ(groups[2].layer1, layers::V1);
  EXPECT_EQ(groups[2].layer2, layers::M1);
  EXPECT_TRUE(groups[2].two_layer);
  EXPECT_EQ(groups[2].members, (std::vector<std::size_t>{5, 6, 9}));
  EXPECT_EQ(groups[2].inflate, tech::via_enclosure);

  // SHAPES-style rules (any layer) share one group apart from the per-layer
  // intra rules.
  const std::vector<exec_plan> shapes = {
      compile_plan(rules::polygons().is_rectilinear()),
      compile_plan(rules::layer(layers::M1).polygons().is_rectilinear()),
      compile_plan(rules::polygons().ensures([](const db::polygon_elem&) { return true; })),
  };
  const std::vector<plan_group> sg = group_plans(shapes);
  ASSERT_EQ(sg.size(), 2u);
  EXPECT_EQ(sg[0].layer1, rules::any_layer);
  EXPECT_EQ(sg[0].members, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(sg[1].layer1, layers::M1);
  EXPECT_EQ(sg[1].members, (std::vector<std::size_t>{1}));
}

// check(lib) == check_deck(lib).total == check_concurrent(lib) == the union
// of solo check(lib, rule) runs, for both modes.
TEST(DeckBatching, BatchedDeckMatchesPerRuleExecution) {
  const db::library lib = make_lib();
  const std::vector<rules::rule> deck = batched_deck();

  for (const mode m : {mode::sequential, mode::parallel}) {
    engine_config cfg;
    cfg.run_mode = m;
    drc_engine e(cfg);
    e.add_rules(deck);
    const auto vb = norm(e.check(lib).violations);
    EXPECT_FALSE(vb.empty());

    std::vector<checks::violation> solo;
    for (const rules::rule& r : deck) {
      const auto vs = e.check(lib, r).violations;
      solo.insert(solo.end(), vs.begin(), vs.end());
    }
    EXPECT_EQ(vb, norm(solo)) << "mode=" << static_cast<int>(m);
    EXPECT_EQ(vb, norm(e.check_deck(lib).total.violations)) << "mode=" << static_cast<int>(m);
    EXPECT_EQ(vb, norm(e.check_concurrent(lib).violations)) << "mode=" << static_cast<int>(m);
  }
}

// check_deck keeps per-rule reports separable: each rule's batched report
// holds exactly the violations of a solo run of that rule.
TEST(DeckBatching, PerRuleAttributionSurvivesBatching) {
  const db::library lib = make_lib();
  const std::vector<rules::rule> deck = batched_deck();

  drc_engine e;
  e.add_rules(deck);
  deck_report dr = e.check_deck(lib);
  ASSERT_EQ(dr.per_rule.size(), deck.size());

  std::vector<checks::violation> merged;
  for (std::size_t i = 0; i < deck.size(); ++i) {
    const auto solo = e.check(lib, deck[i]);
    EXPECT_EQ(norm(dr.per_rule[i].violations), norm(solo.violations)) << "rule " << i;
    merged.insert(merged.end(), dr.per_rule[i].violations.begin(),
                  dr.per_rule[i].violations.end());
  }
  EXPECT_EQ(norm(dr.total.violations), norm(merged));
}

TEST(DeckBatching, AmortizationStatsRecorded) {
  const db::library lib = make_lib();
  const std::vector<rules::rule> deck = batched_deck();

  drc_engine batched;
  batched.add_rules(deck);
  const deck_report dr = batched.check_deck(lib);
  ASSERT_EQ(dr.groups.size(), 3u);
  std::vector<int> seen(deck.size(), 0);
  std::size_t shared = 0;  // rules in multi-member groups
  for (const group_timing& g : dr.groups) {
    for (const std::size_t i : g.members) ++seen[i];
    if (g.members.size() > 1) shared += g.members.size();
    EXPECT_GT(g.seconds, 0.0);
  }
  EXPECT_EQ(shared, 11u);  // one-member groups batch nothing
  EXPECT_EQ(seen, std::vector<int>(deck.size(), 1));
}

// The ablation switches compose with batching: partition off and memoization
// off must not change the batched violation set.
TEST(DeckBatching, AblationsComposeWithBatching) {
  const db::library lib = make_lib();
  const std::vector<rules::rule> deck = batched_deck();

  engine_config base;
  drc_engine ref(base);
  ref.add_rules(deck);
  const auto expected = norm(ref.check(lib).violations);

  engine_config no_part = base;
  no_part.enable_partition = false;
  drc_engine a(no_part);
  a.add_rules(deck);
  EXPECT_EQ(expected, norm(a.check(lib).violations));

  engine_config no_memo = base;
  no_memo.enable_memoization = false;
  drc_engine b(no_memo);
  b.add_rules(deck);
  EXPECT_EQ(expected, norm(b.check(lib).violations));
}

// A single-use master with many polygons is split into polygon objects, and
// the per-object pass evaluates one placement's split polygons as one batch:
// check_single only, since the clip sweep checks their pairs. A spacing
// violation between two top-cell polygons is reported once, in both modes,
// next to a width rule in the same group.
TEST(DeckBatching, SplitMasterPairReportedOnce) {
  constexpr db::layer_t L = 1;
  db::library lib;
  const db::cell_id top = lib.add_cell("top");
  for (coord_t i = 0; i < 12; ++i) lib.at(top).add_rect(L, rect{i * 100, 0, i * 100 + 20, 200});
  lib.at(top).add_rect(L, rect{30, 0, 50, 200});  // 10 from the first rect
  const std::vector<rules::rule> deck = {rules::layer(L).width().greater_than(18),
                                         rules::layer(L).spacing().greater_than(18)};

  const exec_plan spacing = compile_plan(deck[1]);
  const polygon a = polygon::from_rect({0, 0, 20, 200});
  const polygon b = polygon::from_rect({30, 0, 50, 200});
  std::vector<checks::violation> want;
  checks::check_stats cs;
  spacing.check_pair(a, a.mbr(), b, b.mbr(), want, cs);
  ASSERT_FALSE(want.empty());

  for (const mode m : {mode::sequential, mode::parallel}) {
    engine_config cfg;
    cfg.run_mode = m;
    drc_engine e(cfg);
    e.add_rules(deck);
    const deck_report dr = e.check_deck(lib);
    ASSERT_EQ(dr.groups.size(), 1u);
    EXPECT_TRUE(dr.per_rule[0].violations.empty()) << "mode=" << static_cast<int>(m);
    // Sizes first: norm() drops duplicates.
    EXPECT_EQ(dr.per_rule[1].violations.size(), want.size()) << "mode=" << static_cast<int>(m);
    EXPECT_EQ(norm(dr.per_rule[1].violations), norm(want)) << "mode=" << static_cast<int>(m);
  }
}

}  // namespace
}  // namespace odrc::engine
