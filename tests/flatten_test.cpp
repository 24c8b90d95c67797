#include "db/flatten.hpp"

#include <gtest/gtest.h>

#include "db/mbr_index.hpp"

namespace odrc::db {
namespace {

struct fixture {
  library lib;
  cell_id leaf, mid, top;

  fixture() {
    leaf = lib.add_cell("leaf");
    lib.at(leaf).add_rect(1, {0, 0, 10, 4});
    lib.at(leaf).add_rect(2, {0, 0, 2, 2});
    mid = lib.add_cell("mid");
    lib.at(mid).add_ref({leaf, transform{{100, 0}, 0, false, 1}});
    lib.at(mid).add_rect(1, {0, 0, 5, 5});
    top = lib.add_cell("top");
    lib.at(top).add_ref({mid, transform{{0, 1000}, 0, false, 1}});
    // Mirrored leaf directly under top.
    lib.at(top).add_ref({leaf, transform{{0, 0}, 0, true, 1}});
  }
};

TEST(Flatten, LayerExpansion) {
  fixture f;
  const auto flat = flatten_layer(f.lib, f.top, 1);
  ASSERT_EQ(flat.size(), 3u);  // leaf-in-mid, mid's own, mirrored leaf
  rect all;
  for (const auto& fp : flat) all = all.join(fp.poly.mbr());
  EXPECT_EQ(all, (rect{0, -4, 110, 1005}));
  for (const auto& fp : flat) EXPECT_EQ(fp.layer, 1);
}

TEST(Flatten, MirroredGeometryStaysClockwise) {
  fixture f;
  for (const auto& fp : flatten_layer(f.lib, f.top, 1)) {
    EXPECT_TRUE(fp.poly.is_clockwise());
  }
}

TEST(Flatten, AllLayers) {
  fixture f;
  // leaf holds 2 polygons; mid = 1 own + 2 via the leaf ref; top = mid(3) +
  // the mirrored leaf(2) = 5 expanded polygons.
  const auto flat = flatten_all(f.lib, f.top);
  EXPECT_EQ(flat.size(), 5u);
  EXPECT_EQ(f.lib.expanded_polygon_count(), 5u);
}

TEST(Flatten, OriginTracksDefinition) {
  fixture f;
  const auto flat = flatten_layer(f.lib, f.top, 2);
  ASSERT_EQ(flat.size(), 2u);
  for (const auto& fp : flat) EXPECT_EQ(fp.origin.cell, f.leaf);
}

TEST(FlatInstanceList, LayerFilteredUsesIndex) {
  fixture f;
  const mbr_index idx(f.lib);
  const auto on2 = flat_instance_list(idx, f.top, 2);
  ASSERT_EQ(on2.size(), 2u);  // only leaf instances carry layer 2
  for (const auto& pc : on2) EXPECT_EQ(pc.master, f.leaf);
  const auto on1 = flat_instance_list(idx, f.top, 1);
  EXPECT_EQ(on1.size(), 3u);
}

TEST(FlatInstanceList, ArrayExpansion) {
  library lib;
  const cell_id leaf = lib.add_cell("leaf");
  lib.at(leaf).add_rect(5, {0, 0, 1, 1});
  const cell_id top = lib.add_cell("top");
  cell_array a;
  a.target = leaf;
  a.cols = 4;
  a.rows = 3;
  a.col_step = {10, 0};
  a.row_step = {0, 20};
  lib.at(top).add_array(a);

  const auto flat = flatten_layer(lib, top, 5);
  EXPECT_EQ(flat.size(), 12u);
  rect all;
  for (const auto& fp : flat) all = all.join(fp.poly.mbr());
  EXPECT_EQ(all, (rect{0, 0, 31, 41}));
}

}  // namespace
}  // namespace odrc::db
