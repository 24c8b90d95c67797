// Full-scale integration spot checks: the three largest designs at their
// benchmark size, key rules, all execution strategies at once (sequential,
// device-parallel, flat reference), plus a whole-deck concurrent run. Slower than the unit suites (seconds), still well inside
// CI budgets.
#include <gtest/gtest.h>

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

class FullScale : public ::testing::TestWithParam<const char*> {};

TEST_P(FullScale, AllStrategiesAgreeAtBenchmarkSize) {
  auto spec = workload::spec_for(GetParam(), 1.0);
  spec.inject = {3, 3, 3, 3};
  const auto g = workload::generate(spec);

  drc_engine seq({.run_mode = engine::mode::sequential});
  drc_engine par({.run_mode = engine::mode::parallel, .pipeline_depth = 3});
  baseline::flat_checker flat;

  // Spacing on the cell layer (hierarchy-heavy) and the routing layer
  // (split-object-heavy).
  for (const db::layer_t m : {layers::M1, layers::M2}) {
    const auto want = norm(flat.run_spacing(g.lib, m, tech::wire_space).violations);
    EXPECT_EQ(norm(seq.run_spacing(g.lib, m, tech::wire_space).violations), want)
        << "seq layer " << m;
    EXPECT_EQ(norm(par.run_spacing(g.lib, m, tech::wire_space).violations), want)
        << "par layer " << m;
  }

  // Enclosure across the hierarchy (V1 lives in masters, M1 around it).
  const auto enc = norm(flat.run_enclosure(g.lib, layers::V1, layers::M1,
                                           tech::via_enclosure).violations);
  EXPECT_EQ(norm(seq.run_enclosure(g.lib, layers::V1, layers::M1, tech::via_enclosure)
                     .violations),
            enc);
  EXPECT_EQ(norm(par.run_enclosure(g.lib, layers::V1, layers::M1, tech::via_enclosure)
                     .violations),
            enc);

  // Every injected site is found, and the hierarchy actually pays off.
  const auto r = seq.run_spacing(g.lib, layers::M1, tech::wire_space);
  EXPECT_GT(r.prune.intra_reused + r.prune.pairs_reused, 1000u) << "memoization inactive?";
}

INSTANTIATE_TEST_SUITE_P(Designs, FullScale, ::testing::Values("aes", "ethmac", "jpeg"));

TEST(FullScaleDeck, ConcurrentWholeDeckOnAes) {
  auto spec = workload::spec_for("aes", 1.0);
  spec.inject = {2, 2, 2, 2};
  const auto g = workload::generate(spec);

  drc_engine e;
  e.add_rules({
      rules::polygons().is_rectilinear().named("SHAPES"),
      rules::layer(layers::M1).width().greater_than(tech::wire_width).named("M1.W.1"),
      rules::layer(layers::M2).width().greater_than(tech::wire_width).named("M2.W.1"),
      rules::layer(layers::M3).width().greater_than(tech::wire_width).named("M3.W.1"),
      rules::layer(layers::M1).spacing().greater_than(tech::wire_space).named("M1.S.1"),
      rules::layer(layers::M2).spacing().greater_than(tech::wire_space).named("M2.S.1"),
      rules::layer(layers::M3).spacing().greater_than(tech::wire_space).named("M3.S.1"),
      rules::layer(layers::M1).area().greater_than(tech::min_area).named("M1.A.1"),
      rules::layer(layers::M2).area().greater_than(tech::min_area).named("M2.A.1"),
      rules::layer(layers::M3).area().greater_than(tech::min_area).named("M3.A.1"),
      rules::layer(layers::V1).enclosed_by(layers::M1).greater_than(tech::via_enclosure)
          .named("V1.M1.EN.1"),
      rules::layer(layers::V2).enclosed_by(layers::M2).greater_than(tech::via_enclosure)
          .named("V2.M2.EN.1"),
      rules::layer(layers::V2).enclosed_by(layers::M3).greater_than(tech::via_enclosure)
          .named("V2.M3.EN.1"),
  });

  const auto serial = norm(e.check(g.lib).violations);
  const auto concurrent = norm(e.check_concurrent(g.lib).violations);
  EXPECT_EQ(serial, concurrent);
  ASSERT_FALSE(serial.empty());

  // Site coverage: every injected marker is hit by at least one violation.
  for (const workload::site& s : g.sites) {
    bool hit = false;
    for (const checks::violation& v : serial) {
      if (s.marker.inflated(1).overlaps(v.e1.mbr().join(v.e2.mbr()))) {
        hit = true;
        break;
      }
    }
    EXPECT_TRUE(hit) << "missed injected " << checks::rule_kind_name(s.kind) << " site on layer "
                     << s.layer1;
  }
}

TEST(FullScaleDeterminism, RepeatedRunsAreIdentical) {
  auto spec = workload::spec_for("sha3", 1.0);
  spec.inject = {1, 1, 1, 1};
  const auto g1 = workload::generate(spec);
  const auto g2 = workload::generate(spec);
  drc_engine e;
  using workload::layers;
  EXPECT_EQ(norm(e.run_spacing(g1.lib, layers::M2, tech::wire_space).violations),
            norm(e.run_spacing(g2.lib, layers::M2, tech::wire_space).violations));
}

}  // namespace
}  // namespace odrc
