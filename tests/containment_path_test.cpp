// Enclosure containment runs one path in both modes: candidate (inner, outer)
// object pairs come from the partition clips' sweepline, so parallel mode
// enumerates exactly the sequential mode's candidates (it used to test every
// inner object against every outer one), and the work grows linearly with
// the layout.
#include <gtest/gtest.h>

#include <numbers>

#include "engine/engine.hpp"
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
// x sqrt(2)) at most 2.5x's the candidate pairs.
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
    const auto pairs = [&](const workload::generated& g) {
      return static_cast<double>(
          check_enclosures(g.lib, {.run_mode = m}).total.sweep_stats.pairs_reported);
    };
    const double small_pairs = pairs(small);
    ASSERT_GT(small_pairs, 0) << "mode=" << static_cast<int>(m);
    EXPECT_LE(pairs(large), 2.5 * small_pairs) << "mode=" << static_cast<int>(m);
  }
}

}  // namespace
}  // namespace odrc::engine
