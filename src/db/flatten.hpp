// Hierarchy expansion.
//
// Baseline checkers (KLayout-flat analogue) and the parallel mode's edge
// packing need flat per-layer geometry. `flatten_layer` expands a top cell's
// hierarchy into transformed polygons on one layer; `flat_instance_list`
// expands to (cell master, transform) instance pairs without copying
// geometry, which the row partitioner consumes.
#pragma once

#include <cstdint>
#include <vector>

#include "db/layout.hpp"
#include "db/mbr_index.hpp"

namespace odrc::db {

/// One fully transformed polygon in top-cell coordinates.
struct flat_polygon {
  odrc::polygon poly;
  layer_t layer = 0;
  element_ref origin;  ///< defining cell + polygon index (for reporting)
};

/// Expand every polygon on `layer` under `top` into top coordinates.
[[nodiscard]] std::vector<flat_polygon> flatten_layer(const library& lib, cell_id top,
                                                      layer_t layer);

/// Expand every polygon on every layer under `top`.
[[nodiscard]] std::vector<flat_polygon> flatten_all(const library& lib, cell_id top);

/// One placed instance of a cell master.
struct placed_cell {
  cell_id master = invalid_cell;
  transform to_top;
};

/// Expand the hierarchy into a flat list of *leaf-level placements* on
/// `layer`: one entry per instantiation of every cell that directly contains
/// polygons on it (pruned via the MBR index's per-layer duplicated
/// children). Cells that only aggregate references produce no entries of
/// their own.
[[nodiscard]] std::vector<placed_cell> flat_instance_list(const mbr_index& index, cell_id top,
                                                          layer_t layer);

}  // namespace odrc::db
