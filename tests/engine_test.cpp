// Engine tests: rule DSL, check drivers, hierarchy memoization, partition
// ablation invariance, and the parallel/sequential equivalence.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

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

// A tiny hand-built library: one master instantiated 4 times (translation,
// rotation, mirror) + a narrow bar and a close pair in the top cell.
struct fixture {
  db::library lib;
  db::cell_id master, top;

  fixture() {
    master = lib.add_cell("m");
    lib.at(master).add_rect(1, {0, 0, 18, 100});
    lib.at(master).add_rect(1, {36, 0, 54, 100});
    top = lib.add_cell("top");
    lib.at(top).add_ref({master, transform{{0, 0}, 0, false, 1}});
    lib.at(top).add_ref({master, transform{{200, 0}, 0, false, 1}});
    lib.at(top).add_ref({master, transform{{500, 0}, 1, false, 1}});
    lib.at(top).add_ref({master, transform{{800, 200}, 0, true, 1}});
    // Direct top geometry: a narrow bar (width violation) and a close pair.
    lib.at(top).add_rect(1, {1000, 0, 1010, 100});
    lib.at(top).add_rect(1, {1100, 0, 1118, 100});
    lib.at(top).add_rect(1, {1128, 0, 1146, 100});  // gap 10 to previous
  }
};

TEST(RuleDsl, BuildsRules) {
  const rules::rule w = rules::layer(19).width().greater_than(18);
  EXPECT_EQ(w.kind, checks::rule_kind::width);
  EXPECT_EQ(w.layer1, 19);
  EXPECT_EQ(w.distance, 18);

  const rules::rule s = rules::layer(20).spacing().greater_than(21).named("M2.S.1");
  EXPECT_EQ(s.kind, checks::rule_kind::spacing);
  EXPECT_EQ(s.name, "M2.S.1");

  const rules::rule e = rules::layer(21).enclosed_by(19).greater_than(5);
  EXPECT_EQ(e.kind, checks::rule_kind::enclosure);
  EXPECT_EQ(e.layer1, 21);
  EXPECT_EQ(e.layer2, 19);

  const rules::rule a = rules::layer(19).area().greater_than(1000);
  EXPECT_EQ(a.kind, checks::rule_kind::area);
  EXPECT_EQ(a.min_area, 1000);

  const rules::rule r = rules::polygons().is_rectilinear();
  EXPECT_EQ(r.kind, checks::rule_kind::rectilinear);
  EXPECT_EQ(r.layer1, rules::any_layer);

  const rules::rule c = rules::layer(20).polygons().ensures(
      [](const db::polygon_elem& p) { return !p.name.empty(); });
  EXPECT_EQ(c.kind, checks::rule_kind::custom);
  EXPECT_TRUE(c.predicate);
}

TEST(Engine, WidthFindsDirectTopViolation) {
  fixture f;
  drc_engine e;
  const check_report r = e.run_width(f.lib, 1, 18);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].e1.mbr().join(r.violations[0].e2.mbr()),
            (rect{1000, 0, 1010, 100}));
}

TEST(Engine, IntraMemoizationCountsMasters) {
  fixture f;
  drc_engine e;
  const check_report r = e.run_width(f.lib, 1, 18);
  // master checked once, reused 3x; top's own polygons are one more master.
  EXPECT_EQ(r.prune.intra_computed, 2u);
  EXPECT_EQ(r.prune.intra_reused, 3u);
}

TEST(Engine, MemoizationAblationGivesSameViolations) {
  fixture f;
  drc_engine memo({.enable_memoization = true});
  drc_engine nomemo({.enable_memoization = false});
  EXPECT_EQ(norm(memo.run_spacing(f.lib, 1, 18).violations),
            norm(nomemo.run_spacing(f.lib, 1, 18).violations));
  EXPECT_EQ(norm(memo.run_width(f.lib, 1, 18).violations),
            norm(nomemo.run_width(f.lib, 1, 18).violations));
}

TEST(Engine, PartitionAblationGivesSameViolations) {
  fixture f;
  drc_engine part({.enable_partition = true});
  drc_engine nopart({.enable_partition = false});
  EXPECT_EQ(norm(part.run_spacing(f.lib, 1, 18).violations),
            norm(nopart.run_spacing(f.lib, 1, 18).violations));
  const check_report with = part.run_spacing(f.lib, 1, 18);
  const check_report without = nopart.run_spacing(f.lib, 1, 18);
  EXPECT_GT(with.clips, without.clips);
}

TEST(Engine, SpacingFindsInjectedGap) {
  fixture f;
  drc_engine e;
  const check_report r = e.run_spacing(f.lib, 1, 18);
  ASSERT_FALSE(r.violations.empty());
  // All violations cluster at the injected close pair around x=1118..1128.
  for (const checks::violation& v : r.violations) {
    const rect m = v.e1.mbr().join(v.e2.mbr());
    EXPECT_GE(m.x_min, 1100);
    EXPECT_LE(m.x_max, 1146);
  }
}

TEST(Engine, PairMemoizationReusesRelativePlacements) {
  // A row of identical masters at uniform pitch: every adjacent pair has the
  // same relative placement, so the pair memo computes one entry and reuses
  // it for all other adjacencies. Pitch 36 leaves exactly the minimum 18 nm
  // gap — compliant, but close enough that candidate pairs are generated.
  db::library lib;
  const db::cell_id m = lib.add_cell("m");
  lib.at(m).add_rect(1, {0, 0, 18, 100});
  const db::cell_id top = lib.add_cell("top");
  for (int i = 0; i < 10; ++i) {
    lib.at(top).add_ref({m, transform{{static_cast<coord_t>(i * 36), 0}, 0, false, 1}});
  }
  drc_engine e;
  const check_report r = e.run_spacing(lib, 1, 18);
  EXPECT_TRUE(r.violations.empty());  // gap exactly 18 everywhere
  EXPECT_EQ(r.prune.pairs_computed, 1u);  // one relative placement
  EXPECT_EQ(r.prune.pairs_reused, 8u);    // reused for the other 8 adjacencies
}

TEST(Engine, RuleDeckRunsAllRules) {
  auto spec = workload::spec_for("uart", 0.5);
  spec.inject = {1, 1, 1, 1};
  const auto g = workload::generate(spec);

  drc_engine e;
  e.add_rules({
      rules::polygons().is_rectilinear(),
      rules::layer(layers::M1).width().greater_than(tech::wire_width),
      rules::layer(layers::M1).spacing().greater_than(tech::wire_space),
      rules::layer(layers::M1).area().greater_than(tech::min_area),
      rules::layer(layers::V1).enclosed_by(layers::M1).greater_than(tech::via_enclosure),
  });
  EXPECT_EQ(e.deck().size(), 5u);
  const check_report all = e.check(g.lib);
  EXPECT_FALSE(all.violations.empty());

  // The merged report equals the union of individual runs.
  std::vector<checks::violation> merged;
  for (const rules::rule& r : e.deck()) {
    auto one = e.check(g.lib, r);
    merged.insert(merged.end(), one.violations.begin(), one.violations.end());
  }
  EXPECT_EQ(norm(all.violations), norm(merged));
}

TEST(Engine, CustomPredicateRule) {
  db::library lib;
  const db::cell_id top = lib.add_cell("top");
  lib.at(top).add_polygon({20, 0, polygon::from_rect({0, 0, 50, 50}), "named"});
  lib.at(top).add_polygon({20, 0, polygon::from_rect({100, 0, 150, 50}), ""});
  drc_engine e;
  const check_report r = e.check(
      lib, rules::layer(20).polygons().ensures(
               [](const db::polygon_elem& p) { return !p.name.empty(); }));
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].kind, checks::rule_kind::custom);
  EXPECT_EQ(r.violations[0].e1.mbr().join(r.violations[0].e2.mbr()), (rect{100, 0, 150, 50}));
}

TEST(Engine, RectilinearRuleAcrossAllLayers) {
  db::library lib;
  const db::cell_id top = lib.add_cell("top");
  lib.at(top).add_polygon({1, 0, polygon{{{0, 0}, {5, 5}, {10, 0}, {5, -5}}}, ""});
  lib.at(top).add_rect(2, {0, 0, 10, 10});
  drc_engine e;
  const check_report r = e.check(lib, rules::polygons().is_rectilinear());
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].layer1, 1);
}

TEST(Engine, ParallelModeMatchesSequential) {
  auto spec = workload::spec_for("uart", 0.6);
  spec.inject = {2, 2, 2, 1};
  const auto g = workload::generate(spec);

  drc_engine seq({.run_mode = mode::sequential});
  drc_engine par({.run_mode = mode::parallel});

  for (const db::layer_t m : {layers::M1, layers::M2, layers::M3}) {
    EXPECT_EQ(norm(seq.run_spacing(g.lib, m, tech::wire_space).violations),
              norm(par.run_spacing(g.lib, m, tech::wire_space).violations))
        << "layer " << m;
    EXPECT_EQ(norm(seq.run_width(g.lib, m, tech::wire_width).violations),
              norm(par.run_width(g.lib, m, tech::wire_width).violations));
  }
  EXPECT_EQ(
      norm(seq.run_enclosure(g.lib, layers::V1, layers::M1, tech::via_enclosure).violations),
      norm(par.run_enclosure(g.lib, layers::V1, layers::M1, tech::via_enclosure).violations));
  EXPECT_EQ(
      norm(seq.run_enclosure(g.lib, layers::V2, layers::M2, tech::via_enclosure).violations),
      norm(par.run_enclosure(g.lib, layers::V2, layers::M2, tech::via_enclosure).violations));
}

TEST(Engine, ParallelModeUsesDevice) {
  auto spec = workload::spec_for("uart", 0.5);
  const auto g = workload::generate(spec);
  drc_engine par({.run_mode = mode::parallel});
  const check_report r = par.run_spacing(g.lib, layers::M1, tech::wire_space);
  EXPECT_GT(r.device_stats.edges_uploaded, 0u);
  EXPECT_GT(r.device_stats.sweep_launches + r.device_stats.brute_launches, 0u);
}

TEST(Engine, Fig4PhasesRecorded) {
  auto spec = workload::spec_for("uart", 1.0);
  const auto g = workload::generate(spec);
  drc_engine e;
  const check_report r = e.run_spacing(g.lib, layers::M1, tech::wire_space);
  EXPECT_GT(r.phases.phases().count("partition"), 0u);
  EXPECT_GT(r.phases.phases().count("sweepline"), 0u);
  EXPECT_GT(r.phases.phases().count("edge_check"), 0u);
  EXPECT_GT(r.rows, 1u);
  EXPECT_GT(r.clips, r.rows);

  // The phase names are a closed set (perfbench reads them by name): a seq
  // deck with a derived-area rule adds boolean, par mode adds pack + device.
  const std::vector<rules::rule> deck = {
      rules::layer(layers::M1).spacing().greater_than(tech::wire_space),
      rules::layer(layers::V1).overlap_with(layers::M1).area_at_least(1),
  };
  const std::set<std::string> names = {"partition", "sweepline", "edge_check", "pack",
                                       "device",    "boolean",   "flatten"};
  for (const mode m : {mode::sequential, mode::parallel}) {
    drc_engine de({.run_mode = m});
    de.add_rules(deck);
    const auto ph = de.check(g.lib).phases.phases();
    for (const auto& [name, _] : ph) EXPECT_TRUE(names.count(name)) << name;
    const std::vector<std::string> want =
        m == mode::sequential
            ? std::vector<std::string>{"partition", "sweepline", "edge_check", "boolean"}
            : std::vector<std::string>{"pack", "device"};
    for (const std::string& name : want) EXPECT_EQ(ph.count(name), 1u) << name;
  }
}

TEST(Engine, ExecutorChoiceAblation) {
  auto spec = workload::spec_for("uart", 0.5);
  const auto g = workload::generate(spec);
  drc_engine brute({.run_mode = mode::parallel, .executor = sweep::executor_choice::brute});
  drc_engine sweep_only({.run_mode = mode::parallel, .executor = sweep::executor_choice::sweep});
  EXPECT_EQ(norm(brute.run_spacing(g.lib, layers::M2, tech::wire_space).violations),
            norm(sweep_only.run_spacing(g.lib, layers::M2, tech::wire_space).violations));
}

TEST(Engine, ConcurrentDeckMatchesSerial) {
  auto spec = workload::spec_for("uart", 0.5);
  spec.inject = {1, 1, 1, 1};
  const auto g = workload::generate(spec);
  drc_engine e;
  e.add_rules({
      rules::layer(layers::M1).width().greater_than(tech::wire_width),
      rules::layer(layers::M1).spacing().greater_than(tech::wire_space),
      rules::layer(layers::M2).spacing().greater_than(tech::wire_space),
      rules::layer(layers::M1).area().greater_than(tech::min_area),
      rules::layer(layers::V1).enclosed_by(layers::M1).greater_than(tech::via_enclosure),
  });
  auto serial = e.check(g.lib).violations;
  auto parallel = e.check_concurrent(g.lib).violations;
  checks::normalize_all(serial);
  checks::normalize_all(parallel);
  EXPECT_EQ(serial, parallel);
  EXPECT_FALSE(serial.empty());
}

TEST(Engine, ConcurrentDeckInParallelMode) {
  auto spec = workload::spec_for("uart", 0.4);
  spec.inject = {1, 1, 0, 0};
  const auto g = workload::generate(spec);
  drc_engine e({.run_mode = mode::parallel});
  e.add_rules({
      rules::layer(layers::M1).spacing().greater_than(tech::wire_space),
      rules::layer(layers::M2).spacing().greater_than(tech::wire_space),
  });
  auto serial = e.check(g.lib).violations;
  auto conc = e.check_concurrent(g.lib).violations;
  checks::normalize_all(serial);
  checks::normalize_all(conc);
  EXPECT_EQ(serial, conc);
}

TEST(Engine, EmptyLayerProducesNothing) {
  fixture f;
  drc_engine e;
  EXPECT_TRUE(e.run_spacing(f.lib, 42, 18).violations.empty());
  EXPECT_TRUE(e.run_width(f.lib, 42, 18).violations.empty());
  EXPECT_TRUE(e.run_enclosure(f.lib, 42, 43, 5).violations.empty());
}

// reads() decides which plans an edit's recheck reruns: it must cover every
// layer a plan takes check objects from, or a recheck misses a change.
TEST(PlanReads, EveryRuleKind) {
  constexpr db::layer_t M1 = 19, M2 = 20, V1 = 21, OTHER = 30;
  const auto reads = [](const rules::rule& r) {
    const exec_plan p = compile_plan(r);
    std::vector<db::layer_t> out;
    for (const db::layer_t l : {M1, M2, V1, OTHER}) {
      if (p.reads(l)) out.push_back(l);
    }
    return out;
  };
  using ls = std::vector<db::layer_t>;
  EXPECT_EQ(reads(rules::layer(M1).width().greater_than(18)), ls{M1});
  EXPECT_EQ(reads(rules::layer(M1).area().greater_than(800)), ls{M1});
  EXPECT_EQ(reads(rules::layer(M2).polygons().is_rectilinear()), ls{M2});
  EXPECT_EQ(reads(rules::polygons().is_rectilinear()), (ls{M1, M2, V1, OTHER}));
  const auto named = [](const db::polygon_elem& p) { return !p.name.empty(); };
  EXPECT_EQ(reads(rules::layer(V1).polygons().ensures(named)), ls{V1});
  EXPECT_EQ(reads(rules::polygons().ensures(named)), (ls{M1, M2, V1, OTHER}));
  EXPECT_EQ(reads(rules::layer(M2).spacing().greater_than(25)), ls{M2});
  // Enclosure reads its inner (layer1) and its outer (layer2) layer.
  EXPECT_EQ(reads(rules::layer(V1).enclosed_by(M1).greater_than(4)), (ls{M1, V1}));
  EXPECT_EQ(reads(rules::layer(M1).enclosed_by(M2).greater_than(4)), (ls{M1, M2}));
  // Derived layers read both operands, coloring its one layer.
  EXPECT_EQ(reads(rules::layer(V1).overlap_with(M2).area_at_least(400)), (ls{M2, V1}));
  EXPECT_EQ(reads(rules::layer(M1).not_cut_by(V1).area_at_least(400)), (ls{M1, V1}));
  EXPECT_EQ(reads(rules::layer(M2).two_colorable(40)), ls{M2});
}

}  // namespace
}  // namespace odrc::engine
