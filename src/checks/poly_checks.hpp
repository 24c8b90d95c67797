// Polygon-level check drivers.
//
// These functions enumerate edge pairs for one polygon (width, area, shape)
// or one polygon pair (spacing, enclosure) and apply the shared edge-pair
// predicates from edge_checks.hpp. The sequential engine and all CPU
// baselines call these; the parallel mode runs the same predicates inside
// device kernels (checks/device_checks.*).
#pragma once

#include <cstdint>
#include <vector>

#include "checks/edge_checks.hpp"
#include "checks/violation.hpp"
#include "infra/geometry.hpp"

namespace odrc::checks {

/// Work counters, accumulated across calls; benches report these alongside
/// wall time so algorithmic savings are visible on any host.
struct check_stats {
  std::uint64_t edge_pairs_tested = 0;
  std::uint64_t polygon_pairs_tested = 0;
  std::uint64_t polygons_tested = 0;
  std::uint64_t exact_containment_tests = 0;  ///< polygon_inside calls past the box path

  check_stats& operator+=(const check_stats& o) {
    edge_pairs_tested += o.edge_pairs_tested;
    polygon_pairs_tested += o.polygon_pairs_tested;
    polygons_tested += o.polygons_tested;
    exact_containment_tests += o.exact_containment_tests;
    return *this;
  }
};

/// Minimum-width check of a single polygon: every interior-facing edge pair
/// must be at least `min_width` apart.
void check_width(const polygon& poly, std::int16_t layer, coord_t min_width,
                 std::vector<violation>& out, check_stats& stats);

/// Minimum-area check of a single polygon.
void check_area(const polygon& poly, std::int16_t layer, area_t min_area,
                std::vector<violation>& out, check_stats& stats);

/// Rectilinearity check of a single polygon.
void check_rectilinear(const polygon& poly, std::int16_t layer, std::vector<violation>& out,
                       check_stats& stats);

/// Spacing check between two distinct polygons on the same layer. The caller
/// pre-filters pairs by (inflated) MBR overlap; this routine tests all edge
/// pairs.
void check_spacing(const polygon& a, const polygon& b, std::int16_t layer, coord_t min_space,
                   std::vector<violation>& out, check_stats& stats);

/// Conditional variant: spacing requirement from a PRL table.
void check_spacing(const polygon& a, const polygon& b, std::int16_t layer,
                   const spacing_table& table, std::vector<violation>& out, check_stats& stats);

/// Spacing check within one polygon (notches): exterior-facing edge pairs of
/// the same polygon closer than `min_space`.
void check_spacing_notch(const polygon& poly, std::int16_t layer, coord_t min_space,
                         std::vector<violation>& out, check_stats& stats);

/// Conditional variant.
void check_spacing_notch(const polygon& poly, std::int16_t layer, const spacing_table& table,
                         std::vector<violation>& out, check_stats& stats);

/// True iff the ring's point set is exactly its MBR: four vertices that are
/// the MBR's corners in ring order, either orientation, from any start. A
/// zero-width or zero-height box (a segment or a point) counts. Rings whose
/// vertices repeat otherwise or run back along one side do not, even where
/// every edge is axis-parallel.
[[nodiscard]] bool is_box(const polygon& p);

/// True iff `inner` lies inside `outer`, boundaries included, as point sets
/// under polygon::contains. Exact for rings with axis-parallel edges (the
/// rings polygon::contains is defined for), convex or not: it samples every
/// face, edge and vertex of the grid that both rings' vertex coordinates
/// span inside inner's MBR. Cost O(gx·gy·(ni + no)) for gx × gy grid lines
/// in that MBR; a via in a metal shape has a handful.
[[nodiscard]] bool polygon_inside(const polygon& inner, const polygon& outer);

/// polygon_inside() with the O(1) paths: false unless outer's MBR `om`
/// contains inner's MBR `im`, then true if `outer` is a box (is_box); only
/// other outers go to the exact test, counted in
/// `stats.exact_containment_tests`.
[[nodiscard]] bool polygon_inside(const polygon& inner, const rect& im, const polygon& outer,
                                  const rect& om, check_stats& stats);

/// Enclosure margins of `inner` (e.g. a via cut) by `outer` (e.g. metal):
/// reports margin violations on same-direction facing edge pairs. Whether
/// `inner` lies inside `outer` at all is polygon_inside's question.
void check_enclosure_margins(const polygon& inner, const polygon& outer,
                             std::int16_t inner_layer, std::int16_t outer_layer,
                             coord_t min_enclosure, std::vector<violation>& out,
                             check_stats& stats);

/// check_enclosure_margins, then whether `inner` lies inside `outer`
/// (callers aggregate containment over all candidate outers; an uncontained
/// via is reported by report_uncontained).
bool check_enclosure(const polygon& inner, const polygon& outer, std::int16_t inner_layer,
                     std::int16_t outer_layer, coord_t min_enclosure, std::vector<violation>& out,
                     check_stats& stats);

/// Report an enclosure violation for an inner shape contained by no outer
/// shape (margin "negative infinity"): emitted with the diagonal of the
/// inner shape's MBR `inner_mbr`.
void report_uncontained(const rect& inner_mbr, std::int16_t inner_layer,
                        std::int16_t outer_layer, std::vector<violation>& out);

/// True iff the minimum distance between the two polygons' boundaries is
/// strictly below `d` (abutting or overlapping shapes count). Used to build
/// the same-mask conflict graph for multi-patterning coloring checks.
[[nodiscard]] bool polygons_within(const polygon& a, const polygon& b, coord_t d);

}  // namespace odrc::checks
