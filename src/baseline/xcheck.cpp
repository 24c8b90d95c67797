#include "baseline/baseline.hpp"
#include "baseline/flat_kit.hpp"
#include "device/device.hpp"
#include "sweep/device_sweep.hpp"

namespace odrc::baseline {

using engine::check_report;

// X-Check's vertical sweeping algorithm (Section 4.1 of [12]): flatten the
// layer, pack every edge into one array sorted by y, and run the two-kernel
// check (range scan + per-edge range checks) over the whole layout in one
// batch. No hierarchy reuse, no layout partition — the contrast the paper's
// Tables I/II measure against OpenDRC's partitioned, hierarchy-pruned flow.
struct xcheck::impl {
  device::stream stream{device::context::instance()};
};

xcheck::xcheck() : impl_(std::make_unique<impl>()) {}
xcheck::~xcheck() = default;

namespace {

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

std::vector<sweep::packed_edge> pack_all(std::span<const db::flat_polygon> polys,
                                         std::uint16_t group, std::uint32_t id_base,
                                         std::vector<sweep::packed_edge> edges = {}) {
  for (std::size_t i = 0; i < polys.size(); ++i) {
    sweep::pack_polygon_edges(polys[i].poly, id_base + static_cast<std::uint32_t>(i), group,
                              edges);
  }
  return edges;
}

}  // namespace

check_report xcheck::run_width(const db::library& lib, db::layer_t layer, coord_t min_width) {
  check_report report;
  const auto polys = flatten_tops(lib, layer, report);
  auto t = report.phases.measure(phase::device);
  sweep::device_check_config cfg{sweep::pair_check::width, min_width, layer, layer,
                                 sweep::sweep_axis::y};
  // X-Check is sweep-based throughout; no brute-force fallback.
  sweep::device_check_edges_with(impl_->stream, pack_all(polys, 0, 0), cfg,
                                 sweep::executor_choice::sweep, report.violations,
                                 report.device_stats);
  return report;
}

std::optional<check_report> xcheck::run_area(const db::library&, db::layer_t, area_t) {
  // X-Check does not implement area checks (paper Table I leaves the column
  // empty: "X-Check is unable to perform area checks").
  return std::nullopt;
}

check_report xcheck::run_spacing(const db::library& lib, db::layer_t layer, coord_t min_space) {
  check_report report;
  const auto polys = flatten_tops(lib, layer, report);
  auto t = report.phases.measure(phase::device);
  sweep::device_check_config cfg{sweep::pair_check::spacing, min_space, layer, layer,
                                 sweep::sweep_axis::y};
  sweep::device_check_edges_with(impl_->stream, pack_all(polys, 0, 0), cfg,
                                 sweep::executor_choice::sweep, report.violations,
                                 report.device_stats);
  return report;
}

check_report xcheck::run_enclosure(const db::library& lib, db::layer_t inner, db::layer_t outer,
                                   coord_t min_enclosure) {
  check_report report;
  const auto inner_polys = flatten_tops(lib, inner, report);
  const auto outer_polys = flatten_tops(lib, outer, report);
  {
    auto t = report.phases.measure(phase::device);
    sweep::device_check_config cfg{sweep::pair_check::enclosure, min_enclosure, inner, outer,
                                   sweep::sweep_axis::y};
    auto edges = pack_all(inner_polys, 0, 0);
    edges = pack_all(outer_polys, 1, static_cast<std::uint32_t>(inner_polys.size()),
                     std::move(edges));
    sweep::device_check_edges_with(impl_->stream, edges, cfg, sweep::executor_choice::sweep,
                                   report.violations, report.device_stats);
  }
  // Containment on the host (as in the flat baseline).
  auto t = report.phases.measure(phase::edge_check);
  for (const db::flat_polygon& ip : inner_polys) {
    const rect im = ip.poly.mbr();
    bool contained = false;
    for (const db::flat_polygon& op : outer_polys) {
      if (checks::polygon_inside(ip.poly, im, op.poly, op.poly.mbr(), report.check_stats)) {
        contained = true;
        break;
      }
    }
    if (!contained) {
      checks::report_uncontained(im, inner, outer, report.violations);
    }
  }
  return report;
}

}  // namespace odrc::baseline
