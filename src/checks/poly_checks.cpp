#include "checks/poly_checks.hpp"

namespace odrc::checks {

void check_width(const polygon& poly, std::int16_t layer, coord_t min_width,
                 std::vector<violation>& out, check_stats& stats) {
  ++stats.polygons_tested;
  const std::size_t n = poly.edge_count();
  for (std::size_t i = 0; i < n; ++i) {
    const edge ei = poly.edge_at(i);
    for (std::size_t j = i + 1; j < n; ++j) {
      const edge ej = poly.edge_at(j);
      ++stats.edge_pairs_tested;
      if (auto d = check_width_pair(ei, ej, min_width)) {
        out.push_back(make_width_violation(layer, ei, ej, *d));
      }
    }
  }
}

void check_area(const polygon& poly, std::int16_t layer, area_t min_area,
                std::vector<violation>& out, check_stats& stats) {
  ++stats.polygons_tested;
  const area_t a = poly.area();
  if (a < min_area) {
    const rect m = poly.mbr();
    out.push_back({rule_kind::area, layer, layer,
                   edge{{m.x_min, m.y_min}, {m.x_max, m.y_min}},
                   edge{{m.x_min, m.y_max}, {m.x_max, m.y_max}}, a});
  }
}

void check_rectilinear(const polygon& poly, std::int16_t layer, std::vector<violation>& out,
                       check_stats& stats) {
  ++stats.polygons_tested;
  if (!poly.is_rectilinear()) {
    const rect m = poly.mbr();
    out.push_back({rule_kind::rectilinear, layer, layer,
                   edge{{m.x_min, m.y_min}, {m.x_max, m.y_min}},
                   edge{{m.x_min, m.y_max}, {m.x_max, m.y_max}}, 0});
  }
}

void check_spacing(const polygon& a, const polygon& b, std::int16_t layer, coord_t min_space,
                   std::vector<violation>& out, check_stats& stats) {
  check_spacing(a, b, layer, spacing_table::simple(min_space), out, stats);
}

void check_spacing(const polygon& a, const polygon& b, std::int16_t layer,
                   const spacing_table& table, std::vector<violation>& out, check_stats& stats) {
  ++stats.polygon_pairs_tested;
  const std::size_t na = a.edge_count(), nb = b.edge_count();
  for (std::size_t i = 0; i < na; ++i) {
    const edge ei = a.edge_at(i);
    for (std::size_t j = 0; j < nb; ++j) {
      const edge ej = b.edge_at(j);
      ++stats.edge_pairs_tested;
      if (auto d2 = check_space_pair_table(ei, ej, /*same_polygon=*/false, table)) {
        out.push_back(make_space_violation(layer, ei, ej, *d2));
      }
    }
  }
}

void check_spacing_notch(const polygon& poly, std::int16_t layer, coord_t min_space,
                         std::vector<violation>& out, check_stats& stats) {
  check_spacing_notch(poly, layer, spacing_table::simple(min_space), out, stats);
}

void check_spacing_notch(const polygon& poly, std::int16_t layer, const spacing_table& table,
                         std::vector<violation>& out, check_stats& stats) {
  ++stats.polygons_tested;
  const std::size_t n = poly.edge_count();
  for (std::size_t i = 0; i < n; ++i) {
    const edge ei = poly.edge_at(i);
    for (std::size_t j = i + 1; j < n; ++j) {
      // Adjacent edges share a vertex; their Euclidean distance is zero by
      // construction, not a notch.
      if (j == i + 1 || (i == 0 && j == n - 1)) continue;
      const edge ej = poly.edge_at(j);
      ++stats.edge_pairs_tested;
      if (auto d2 = check_space_pair_table(ei, ej, /*same_polygon=*/true, table)) {
        out.push_back(make_space_violation(layer, ei, ej, *d2));
      }
    }
  }
}

bool check_enclosure(const polygon& inner, const polygon& outer, std::int16_t inner_layer,
                     std::int16_t outer_layer, coord_t min_enclosure, std::vector<violation>& out,
                     check_stats& stats) {
  ++stats.polygon_pairs_tested;
  const std::size_t ni = inner.edge_count(), no = outer.edge_count();
  for (std::size_t i = 0; i < ni; ++i) {
    const edge ei = inner.edge_at(i);
    for (std::size_t j = 0; j < no; ++j) {
      const edge ej = outer.edge_at(j);
      ++stats.edge_pairs_tested;
      if (auto m = check_enclosure_pair(ei, ej, min_enclosure)) {
        out.push_back(make_enclosure_violation(inner_layer, outer_layer, ei, ej, *m));
      }
    }
  }
  return polygon_inside(inner, outer);
}

bool polygon_inside(const polygon& inner, const polygon& outer) {
  for (const point& p : inner.vertices()) {
    if (!outer.contains(p)) return false;
  }
  return true;
}

bool polygons_within(const polygon& a, const polygon& b, coord_t d) {
  if (!a.mbr().inflated(d).overlaps(b.mbr())) return false;
  // Overlapping interiors: distance zero. Checking one vertex of each side
  // handles the containment case edge-distance misses.
  if (b.contains(a.vertices().front()) || a.contains(b.vertices().front())) return true;
  const area_t limit = static_cast<area_t>(d) * d;
  for (std::size_t i = 0; i < a.edge_count(); ++i) {
    const edge ea = a.edge_at(i);
    for (std::size_t j = 0; j < b.edge_count(); ++j) {
      if (squared_distance(ea, b.edge_at(j)) < limit) return true;
    }
  }
  return false;
}

void report_uncontained(const polygon& inner, std::int16_t inner_layer, std::int16_t outer_layer,
                        std::vector<violation>& out) {
  const rect m = inner.mbr();
  out.push_back({rule_kind::enclosure, inner_layer, outer_layer,
                 edge{{m.x_min, m.y_min}, {m.x_max, m.y_min}},
                 edge{{m.x_min, m.y_max}, {m.x_max, m.y_max}}, -1});
}

}  // namespace odrc::checks
