// The strongest integration property in the repository: all six checkers
// (OpenDRC sequential, OpenDRC parallel, KLayout-analogue flat/deep/tile,
// X-Check) share the edge-pair predicates and must therefore produce
// IDENTICAL violation sets on every design and rule — they only differ in
// candidate enumeration. Also verifies injected ground-truth sites are all
// found and that the clean fabric produces no stray violations.
#include <gtest/gtest.h>
#include <string>

#include "baseline/baseline.hpp"
#include "engine/engine.hpp"
#include "workload/workload.hpp"

namespace odrc {
namespace {

using workload::layers;
using workload::tech;

std::vector<checks::violation> norm(std::vector<checks::violation> v) {
  checks::normalize_all(v);
  return v;
}

struct rule_case {
  const char* label;
  checks::rule_kind kind;
  db::layer_t l1;
  db::layer_t l2;
  coord_t dist;
};

const rule_case kRules[] = {
    {"M1.W.1", checks::rule_kind::width, layers::M1, layers::M1, tech::wire_width},
    {"M2.W.1", checks::rule_kind::width, layers::M2, layers::M2, tech::wire_width},
    {"M3.W.1", checks::rule_kind::width, layers::M3, layers::M3, tech::wire_width},
    {"M1.S.1", checks::rule_kind::spacing, layers::M1, layers::M1, tech::wire_space},
    {"M2.S.1", checks::rule_kind::spacing, layers::M2, layers::M2, tech::wire_space},
    {"M3.S.1", checks::rule_kind::spacing, layers::M3, layers::M3, tech::wire_space},
    {"V1.M1.EN.1", checks::rule_kind::enclosure, layers::V1, layers::M1, tech::via_enclosure},
    {"V2.M2.EN.1", checks::rule_kind::enclosure, layers::V2, layers::M2, tech::via_enclosure},
    {"V2.M3.EN.1", checks::rule_kind::enclosure, layers::V2, layers::M3, tech::via_enclosure},
    {"M1.A.1", checks::rule_kind::area, layers::M1, layers::M1, 0},
    {"M2.A.1", checks::rule_kind::area, layers::M2, layers::M2, 0},
};

// The design is a std::string, not a const char*, so gtest prints its value
// rather than its address and the registered test names stay the same from
// one build to the next.
class CrossChecker : public ::testing::TestWithParam<std::tuple<std::string, int>> {
 protected:
  static workload::generated make(const std::string& design) {
    auto spec = workload::spec_for(design, 0.25);
    spec.inject = {2, 2, 2, 2};
    return workload::generate(spec);
  }
};

TEST_P(CrossChecker, AllCheckersAgree) {
  const std::string& design = std::get<0>(GetParam());
  const rule_case& rc = kRules[static_cast<std::size_t>(std::get<1>(GetParam()))];
  const auto g = make(design);

  drc_engine seq({.run_mode = engine::mode::sequential});
  drc_engine par({.run_mode = engine::mode::parallel});
  baseline::flat_checker flat;
  baseline::deep_checker deep;
  baseline::tile_checker tile(4);
  baseline::xcheck xc;

  std::vector<checks::violation> reference;
  std::vector<std::pair<const char*, std::vector<checks::violation>>> results;

  switch (rc.kind) {
    case checks::rule_kind::width:
      reference = norm(flat.run_width(g.lib, rc.l1, rc.dist).violations);
      results = {
          {"seq", norm(seq.run_width(g.lib, rc.l1, rc.dist).violations)},
          {"par", norm(par.run_width(g.lib, rc.l1, rc.dist).violations)},
          {"deep", norm(deep.run_width(g.lib, rc.l1, rc.dist).violations)},
          {"tile", norm(tile.run_width(g.lib, rc.l1, rc.dist).violations)},
          {"xcheck", norm(xc.run_width(g.lib, rc.l1, rc.dist).violations)},
      };
      break;
    case checks::rule_kind::spacing:
      reference = norm(flat.run_spacing(g.lib, rc.l1, rc.dist).violations);
      results = {
          {"seq", norm(seq.run_spacing(g.lib, rc.l1, rc.dist).violations)},
          {"par", norm(par.run_spacing(g.lib, rc.l1, rc.dist).violations)},
          {"deep", norm(deep.run_spacing(g.lib, rc.l1, rc.dist).violations)},
          {"tile", norm(tile.run_spacing(g.lib, rc.l1, rc.dist).violations)},
          {"xcheck", norm(xc.run_spacing(g.lib, rc.l1, rc.dist).violations)},
      };
      break;
    case checks::rule_kind::enclosure:
      reference = norm(flat.run_enclosure(g.lib, rc.l1, rc.l2, rc.dist).violations);
      results = {
          {"seq", norm(seq.run_enclosure(g.lib, rc.l1, rc.l2, rc.dist).violations)},
          {"par", norm(par.run_enclosure(g.lib, rc.l1, rc.l2, rc.dist).violations)},
          {"deep", norm(deep.run_enclosure(g.lib, rc.l1, rc.l2, rc.dist).violations)},
          {"tile", norm(tile.run_enclosure(g.lib, rc.l1, rc.l2, rc.dist).violations)},
          {"xcheck", norm(xc.run_enclosure(g.lib, rc.l1, rc.l2, rc.dist).violations)},
      };
      break;
    case checks::rule_kind::area:
      reference = norm(flat.run_area(g.lib, rc.l1, tech::min_area).violations);
      results = {
          {"seq", norm(seq.run_area(g.lib, rc.l1, tech::min_area).violations)},
          {"deep", norm(deep.run_area(g.lib, rc.l1, tech::min_area).violations)},
          {"tile", norm(tile.run_area(g.lib, rc.l1, tech::min_area).violations)},
      };
      // X-Check cannot run area checks (paper Table I).
      EXPECT_FALSE(xc.run_area(g.lib, rc.l1, tech::min_area).has_value());
      break;
    default:
      FAIL();
  }

  for (const auto& [name, vs] : results) {
    EXPECT_EQ(vs, reference) << rc.label << " on " << design << ": " << name
                             << " disagrees with flat (" << vs.size() << " vs "
                             << reference.size() << ")";
  }

  // Ground truth: every injected site of this rule is hit by at least one
  // violation, and every violation lies inside some injected site marker
  // (the generated fabric is violation-free by construction).
  std::size_t matched_sites = 0;
  for (const workload::site& s : g.sites) {
    if (s.kind != rc.kind || s.layer1 != rc.l1) continue;
    if (rc.kind == checks::rule_kind::enclosure && s.layer2 != rc.l2) continue;
    ++matched_sites;
    bool hit = false;
    for (const checks::violation& v : reference) {
      if (s.marker.inflated(1).overlaps(v.e1.mbr().join(v.e2.mbr()))) {
        hit = true;
        break;
      }
    }
    EXPECT_TRUE(hit) << rc.label << " site not detected";
  }
  EXPECT_GT(matched_sites, 0u) << rc.label;
  for (const checks::violation& v : reference) {
    const rect m = v.e1.mbr().join(v.e2.mbr());
    bool inside_site = false;
    for (const workload::site& s : g.sites) {
      if (s.marker.inflated(1).overlaps(m)) {
        inside_site = true;
        break;
      }
    }
    EXPECT_TRUE(inside_site) << rc.label << " stray violation at " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DesignsAndRules, CrossChecker,
    ::testing::Combine(::testing::Values(std::string("uart"), std::string("ibex"),
                                         std::string("sha3")),
                       ::testing::Range(0, static_cast<int>(std::size(kRules)))),
    [](const auto& info) {
      std::string label = kRules[static_cast<std::size_t>(std::get<1>(info.param))].label;
      for (char& c : label) {
        if (c == '.') c = '_';
      }
      return std::get<0>(info.param) + "_" + label;
    });

// Clean designs (no injection) must produce zero violations everywhere.
class CleanFabric : public ::testing::TestWithParam<const char*> {};

TEST_P(CleanFabric, NoViolationsAnywhere) {
  auto spec = workload::spec_for(GetParam(), 0.2);
  const auto g = workload::generate(spec);
  drc_engine seq;
  for (const db::layer_t m : {layers::M1, layers::M2, layers::M3}) {
    EXPECT_TRUE(seq.run_width(g.lib, m, tech::wire_width).violations.empty()) << "W" << m;
    EXPECT_TRUE(seq.run_spacing(g.lib, m, tech::wire_space).violations.empty()) << "S" << m;
    EXPECT_TRUE(seq.run_area(g.lib, m, tech::min_area).violations.empty()) << "A" << m;
  }
  EXPECT_TRUE(
      seq.run_enclosure(g.lib, layers::V1, layers::M1, tech::via_enclosure).violations.empty());
  EXPECT_TRUE(
      seq.run_enclosure(g.lib, layers::V2, layers::M2, tech::via_enclosure).violations.empty());
  EXPECT_TRUE(
      seq.run_enclosure(g.lib, layers::V2, layers::M3, tech::via_enclosure).violations.empty());
  EXPECT_TRUE(seq.check(g.lib, rules::polygons().is_rectilinear()).violations.empty());
}

INSTANTIATE_TEST_SUITE_P(Designs, CleanFabric,
                         ::testing::Values("aes", "ethmac", "ibex", "jpeg", "sha3", "uart"));

}  // namespace
}  // namespace odrc
