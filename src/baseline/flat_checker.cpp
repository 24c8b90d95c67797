#include "baseline/baseline.hpp"
#include "baseline/flat_kit.hpp"

namespace odrc::baseline {

using engine::check_report;

namespace {

// Flatten `layer` under every top cell of `lib` into one vector, timing the
// expansion in the "flatten" phase (flat mode pays this cost every run).
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

}  // namespace

check_report flat_checker::run_width(const db::library& lib, db::layer_t layer,
                                     coord_t min_width) {
  check_report report;
  const auto polys = flatten_tops(lib, layer, report);
  auto t = report.phases.measure(phase::edge_check);
  for (const db::flat_polygon& fp : polys) {
    checks::check_width(fp.poly, layer, min_width, report.violations, report.check_stats);
  }
  return report;
}

check_report flat_checker::run_area(const db::library& lib, db::layer_t layer, area_t min_area) {
  check_report report;
  const auto polys = flatten_tops(lib, layer, report);
  auto t = report.phases.measure(phase::edge_check);
  for (const db::flat_polygon& fp : polys) {
    checks::check_area(fp.poly, layer, min_area, report.violations, report.check_stats);
  }
  return report;
}

check_report flat_checker::run_spacing(const db::library& lib, db::layer_t layer,
                                       coord_t min_space) {
  check_report report;
  const auto polys = flatten_tops(lib, layer, report);
  auto t = report.phases.measure(phase::edge_check);
  detail::flat_spacing(polys, layer, min_space, report);
  return report;
}

check_report flat_checker::run_enclosure(const db::library& lib, db::layer_t inner,
                                         db::layer_t outer, coord_t min_enclosure) {
  check_report report;
  const auto inner_polys = flatten_tops(lib, inner, report);
  const auto outer_polys = flatten_tops(lib, outer, report);
  auto t = report.phases.measure(phase::edge_check);
  detail::flat_enclosure(inner_polys, outer_polys, inner, outer, min_enclosure, report);
  return report;
}

}  // namespace odrc::baseline
