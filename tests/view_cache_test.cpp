// Regression tests for the view_cache key scheme and the windowed instance
// enumeration. The cache used to pack (cell, layer) into one integer as
// (cell << 16) | uint16(layer) — injective only by accident of the current
// type widths; these tests pin the struct-key semantics that cannot alias.
#include "engine/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "db/layout.hpp"
#include "db/mbr_index.hpp"
#include "engine/rule.hpp"
#include "workload/workload.hpp"

namespace odrc::engine {
namespace {

// The retired packing, reproduced here as documentation of the failure mode.
std::uint64_t old_packed_key(std::uint64_t cell, std::int32_t layer) {
  return (cell << 16) | static_cast<std::uint16_t>(layer);
}

TEST(ViewCacheKey, OldPackingAliasedWideInputs) {
  // A cell id using bit 48 shifts off the top: its key equals cell 0's.
  EXPECT_EQ(old_packed_key(std::uint64_t{1} << 48, 3), old_packed_key(0, 3));
  // A layer wider than 16 bits truncates onto another layer of the same cell.
  EXPECT_EQ(old_packed_key(7, 0x1FFFF), old_packed_key(7, std::int32_t{0xFFFF}));
  // any_layer (-1) truncated to 0xFFFF collides with a real layer 0xFFFF.
  EXPECT_EQ(old_packed_key(7, rules::any_layer), old_packed_key(7, std::int32_t{0xFFFF}));
}

TEST(ViewCacheKey, StructKeyCannotAlias) {
  using key = view_cache::key;
  const key wide_cell = view_cache::make_key(std::uint64_t{1} << 48, 3);
  const key cell0 = view_cache::make_key(0, 3);
  EXPECT_FALSE(wide_cell == cell0);

  const key wide_layer = view_cache::make_key(7, 0x1FFFF);
  const key narrow_layer = view_cache::make_key(7, 0xFFFF);
  EXPECT_FALSE(wide_layer == narrow_layer);

  const key any = view_cache::make_key(7, rules::any_layer);
  EXPECT_FALSE(any == narrow_layer);
  EXPECT_TRUE(any == view_cache::make_key(7, rules::any_layer));

  // Distinct keys should (in practice) hash apart; equal keys must agree.
  view_cache::key_hash h;
  EXPECT_EQ(h(any), h(view_cache::make_key(7, rules::any_layer)));
  EXPECT_NE(h(wide_cell), h(cell0));
  EXPECT_NE(h(wide_layer), h(narrow_layer));
}

TEST(ViewCache, PerLayerAndAnyLayerViewsAreDistinct) {
  db::library lib;
  const db::cell_id c = lib.add_cell("c");
  lib.at(c).add_rect(1, {0, 0, 10, 10});
  lib.at(c).add_rect(2, {20, 0, 30, 10});

  view_cache views(lib);
  const master_layer_view& v1 = views.get(c, 1);
  EXPECT_EQ(v1.poly_indices.to_vector(), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(v1.mbr, (rect{0, 0, 10, 10}));

  const master_layer_view& v2 = views.get(c, 2);
  EXPECT_EQ(v2.poly_indices.to_vector(), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(v2.mbr, (rect{20, 0, 30, 10}));

  const master_layer_view& vall = views.get(c, rules::any_layer);
  EXPECT_EQ(vall.poly_indices.size(), 2u);
  EXPECT_EQ(vall.mbr, (rect{0, 0, 30, 10}));

  // References are stable across further lookups (unordered_map nodes).
  EXPECT_EQ(&views.get(c, 1), &v1);
  EXPECT_EQ(&views.get(c, 2), &v2);
}

TEST(CollectInstances, WindowPruneEqualsHaloFilterOfFullEnumeration) {
  auto spec = workload::spec_for("uart", 0.6);
  const auto g = workload::generate(spec);
  const auto tops = g.lib.top_cells();
  ASSERT_FALSE(tops.empty());

  const db::layer_t layer = workload::layers::M1;
  const coord_t inflate = workload::tech::wire_space;
  const rect window{0, 0, 2500, 1500};
  const rect halo = window.inflated(inflate);

  layout_snapshot full_snap(g.lib);
  layout_snapshot win_snap(g.lib);
  const std::vector<inst> full = collect_instances(full_snap, tops[0], layer);
  const std::vector<inst> windowed =
      collect_instances(win_snap, tops[0], layer, geo::region(halo));
  ASSERT_FALSE(full.empty());

  // The windowed enumeration is exactly the full enumeration filtered by
  // halo overlap.
  std::vector<std::tuple<db::cell_id, std::uint32_t, rect>> expect;
  for (const inst& in : full) {
    if (halo.overlaps(in.mbr)) expect.emplace_back(in.master, in.poly_index, in.mbr);
  }
  std::vector<std::tuple<db::cell_id, std::uint32_t, rect>> got;
  for (const inst& in : windowed) got.emplace_back(in.master, in.poly_index, in.mbr);
  EXPECT_EQ(got, expect);
  EXPECT_LT(windowed.size(), full.size());  // the window must actually prune
}

}  // namespace
}  // namespace odrc::engine
