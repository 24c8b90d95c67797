#include "baseline/baseline.hpp"
#include "baseline/flat_kit.hpp"
#include "infra/thread_pool.hpp"

namespace odrc::baseline {

using engine::check_report;

namespace {

// Reference point of a violation for tile ownership: the minimum corner of
// the joined geometry. Each violation is attributed to exactly one tile, so
// merging per-tile outputs yields no duplicates.
point ref_point(const checks::violation& v) {
  const rect m = v.e1.mbr().join(v.e2.mbr());
  return {m.x_min, m.y_min};
}

struct tile_grid {
  rect extent;
  std::size_t n;  // tiles per axis

  [[nodiscard]] rect tile_rect(std::size_t tx, std::size_t ty) const {
    const auto w = static_cast<std::int64_t>(extent.width()) + 1;
    const auto h = static_cast<std::int64_t>(extent.height()) + 1;
    const auto x0 = static_cast<coord_t>(extent.x_min + w * static_cast<std::int64_t>(tx) / static_cast<std::int64_t>(n));
    const auto x1 = static_cast<coord_t>(extent.x_min + w * static_cast<std::int64_t>(tx + 1) / static_cast<std::int64_t>(n) - 1);
    const auto y0 = static_cast<coord_t>(extent.y_min + h * static_cast<std::int64_t>(ty) / static_cast<std::int64_t>(n));
    const auto y1 = static_cast<coord_t>(extent.y_min + h * static_cast<std::int64_t>(ty + 1) / static_cast<std::int64_t>(n) - 1);
    return {x0, y0, x1, y1};
  }
};

std::vector<db::flat_polygon> flatten_tops(const db::library& lib, db::layer_t layer,
                                           check_report& report) {
  auto t = report.phases.measure(phase::flatten);
  std::vector<db::flat_polygon> polys;
  for (const db::cell_id top : lib.top_cells()) {
    auto part = db::flatten_layer(lib, top, layer);
    polys.insert(polys.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
  }
  report.instances += polys.size();
  return polys;
}

rect extent_of(std::span<const db::flat_polygon> polys) {
  rect e;
  for (const db::flat_polygon& fp : polys) e = e.join(fp.poly.mbr());
  return e;
}

// Run `tile_fn(tile_proper, clipped_polygon_subset, local_report)` for every
// tile on the worker pool and merge results. The subset contains polygons
// whose MBR overlaps the halo-inflated tile.
template <typename TileFn>
void for_each_tile(std::span<const db::flat_polygon> polys, std::size_t tiles, coord_t halo,
                   check_report& report, TileFn&& tile_fn) {
  if (polys.empty()) return;
  const tile_grid grid{extent_of(polys), tiles};
  const std::size_t total = tiles * tiles;
  std::vector<check_report> locals(total);

  thread_pool::global().parallel_for(0, total, [&](std::size_t t) {
    const std::size_t tx = t % tiles, ty = t / tiles;
    const rect proper = grid.tile_rect(tx, ty);
    const rect with_halo = proper.inflated(halo);
    std::vector<db::flat_polygon> subset;
    for (const db::flat_polygon& fp : polys) {
      if (with_halo.overlaps(fp.poly.mbr())) subset.push_back(fp);
    }
    tile_fn(proper, subset, locals[t]);
  });
  for (check_report& lr : locals) report.merge_from(std::move(lr));
}

// Keep only violations owned by `proper`.
void filter_owned(const rect& proper, check_report& local) {
  std::erase_if(local.violations, [&](const checks::violation& v) {
    return !proper.contains(ref_point(v));
  });
}

}  // namespace

check_report tile_checker::run_width(const db::library& lib, db::layer_t layer,
                                     coord_t min_width) {
  check_report report;
  const auto polys = flatten_tops(lib, layer, report);
  auto t = report.phases.measure(phase::edge_check);
  for_each_tile(polys, tiles_, min_width, report,
                [&](const rect& proper, std::span<const db::flat_polygon> subset,
                    check_report& local) {
                  for (const db::flat_polygon& fp : subset) {
                    // A polygon is owned by the tile containing its MBR min
                    // corner, so each is checked exactly once.
                    const rect m = fp.poly.mbr();
                    if (!proper.contains(point{m.x_min, m.y_min})) continue;
                    checks::check_width(fp.poly, layer, min_width, local.violations,
                                        local.check_stats);
                  }
                });
  return report;
}

check_report tile_checker::run_area(const db::library& lib, db::layer_t layer, area_t min_area) {
  check_report report;
  const auto polys = flatten_tops(lib, layer, report);
  auto t = report.phases.measure(phase::edge_check);
  for_each_tile(polys, tiles_, 0, report,
                [&](const rect& proper, std::span<const db::flat_polygon> subset,
                    check_report& local) {
                  for (const db::flat_polygon& fp : subset) {
                    const rect m = fp.poly.mbr();
                    if (!proper.contains(point{m.x_min, m.y_min})) continue;
                    checks::check_area(fp.poly, layer, min_area, local.violations,
                                       local.check_stats);
                  }
                });
  return report;
}

check_report tile_checker::run_spacing(const db::library& lib, db::layer_t layer,
                                       coord_t min_space) {
  check_report report;
  const auto polys = flatten_tops(lib, layer, report);
  auto t = report.phases.measure(phase::edge_check);
  for_each_tile(polys, tiles_, min_space, report,
                [&](const rect& proper, std::span<const db::flat_polygon> subset,
                    check_report& local) {
                  detail::flat_spacing(subset, layer, min_space, local);
                  filter_owned(proper, local);
                });
  return report;
}

check_report tile_checker::run_enclosure(const db::library& lib, db::layer_t inner,
                                         db::layer_t outer, coord_t min_enclosure) {
  check_report report;
  const auto inner_polys = flatten_tops(lib, inner, report);
  const auto outer_polys = flatten_tops(lib, outer, report);
  auto t = report.phases.measure(phase::edge_check);
  // Tile over the union of both layers so every interacting pair lands in
  // some tile's halo region. Containment must look at the full halo subset,
  // and a via is owned by the tile containing its MBR min corner.
  if (inner_polys.empty()) return report;

  std::vector<db::flat_polygon> all(inner_polys);
  all.insert(all.end(), outer_polys.begin(), outer_polys.end());
  const tile_grid grid{extent_of(all), tiles_};
  const std::size_t total = tiles_ * tiles_;
  std::vector<check_report> locals(total);

  thread_pool::global().parallel_for(0, total, [&](std::size_t ti) {
    const std::size_t tx = ti % tiles_, ty = ti / tiles_;
    const rect proper = grid.tile_rect(tx, ty);
    const rect with_halo = proper.inflated(min_enclosure);
    std::vector<db::flat_polygon> in_sub, out_sub;
    for (const db::flat_polygon& fp : inner_polys) {
      if (with_halo.overlaps(fp.poly.mbr())) in_sub.push_back(fp);
    }
    for (const db::flat_polygon& fp : outer_polys) {
      if (with_halo.overlaps(fp.poly.mbr())) out_sub.push_back(fp);
    }
    check_report& local = locals[ti];
    detail::flat_enclosure(in_sub, out_sub, inner, outer, min_enclosure, local,
                           /*report_uncontained_shapes=*/false);
    filter_owned(proper, local);
    // Uncontained vias owned by this tile: the halo subset contains every
    // metal shape that could contain a via owned by the tile (a containing
    // shape overlaps the via, hence the halo).
    const std::size_t ni = in_sub.size();
    std::vector<std::uint8_t> contained(ni, 0);
    for (std::size_t i = 0; i < ni; ++i) {
      const rect im = in_sub[i].poly.mbr();
      if (!proper.contains(point{im.x_min, im.y_min})) {
        contained[i] = 1;  // not owned here; skip
        continue;
      }
      for (const db::flat_polygon& op : out_sub) {
        if (checks::polygon_inside(in_sub[i].poly, im, op.poly, op.poly.mbr(),
                                   local.check_stats)) {
          contained[i] = 1;
          break;
        }
      }
      if (!contained[i]) {
        checks::report_uncontained(im, inner, outer, local.violations);
      }
    }
  });
  for (check_report& lr : locals) report.merge_from(std::move(lr));
  return report;
}

}  // namespace odrc::baseline
