// Shared flat-evaluation primitives for the baseline checkers: checks over a
// vector of already-flattened polygons. Used by flat_checker (whole layout)
// and tile_checker (per tile).
#pragma once

#include <span>
#include <vector>

#include "checks/poly_checks.hpp"
#include "db/flatten.hpp"
#include "engine/engine.hpp"
#include "sweep/sweepline.hpp"

namespace odrc::baseline::detail {

using checks::violation;

/// Spacing over a flat polygon set: per-polygon notches + MBR-sweepline
/// candidate pairs + edge checks.
inline void flat_spacing(std::span<const db::flat_polygon> polys, db::layer_t layer,
                         coord_t min_space, engine::check_report& report) {
  for (const db::flat_polygon& fp : polys) {
    checks::check_spacing_notch(fp.poly, layer, min_space, report.violations,
                                report.check_stats);
  }
  std::vector<rect> mbrs(polys.size());
  for (std::size_t i = 0; i < polys.size(); ++i) mbrs[i] = polys[i].poly.mbr();
  sweep::overlap_pairs_inflated(
      mbrs, min_space,
      [&](std::uint32_t i, std::uint32_t j) {
        checks::check_spacing(polys[i].poly, polys[j].poly, layer, min_space, report.violations,
                              report.check_stats);
      },
      &report.sweep_stats);
}

/// Enclosure over flat inner/outer polygon sets: sweepline over the combined
/// MBR list for (inner, outer) candidates, edge checks, containment
/// aggregation, uncontained reports.
inline void flat_enclosure(std::span<const db::flat_polygon> inner_polys,
                           std::span<const db::flat_polygon> outer_polys, db::layer_t inner,
                           db::layer_t outer, coord_t min_enclosure,
                           engine::check_report& report,
                           bool report_uncontained_shapes = true) {
  const std::size_t ni = inner_polys.size();
  std::vector<rect> mbrs(ni + outer_polys.size());
  for (std::size_t i = 0; i < ni; ++i) mbrs[i] = inner_polys[i].poly.mbr();
  for (std::size_t j = 0; j < outer_polys.size(); ++j) {
    mbrs[ni + j] = outer_polys[j].poly.mbr();
  }
  std::vector<std::uint8_t> contained(ni, 0);
  sweep::overlap_pairs_inflated(
      mbrs, min_enclosure,
      [&](std::uint32_t i, std::uint32_t j) {
        if ((i < ni) == (j < ni)) return;  // same-side pair
        const std::uint32_t ii = std::min(i, j);
        const std::uint32_t oj = std::max(i, j) - static_cast<std::uint32_t>(ni);
        const bool ok = checks::check_enclosure(inner_polys[ii].poly, outer_polys[oj].poly,
                                                inner, outer, min_enclosure, report.violations,
                                                report.check_stats);
        if (ok) contained[ii] = 1;
      },
      &report.sweep_stats);
  if (report_uncontained_shapes) {
    for (std::size_t i = 0; i < ni; ++i) {
      if (!contained[i]) {
        checks::report_uncontained(mbrs[i], inner, outer, report.violations);
      }
    }
  }
}

}  // namespace odrc::baseline::detail
