#include "checks/poly_checks.hpp"

#include <algorithm>

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

void check_enclosure_margins(const polygon& inner, const polygon& outer,
                             std::int16_t inner_layer, std::int16_t outer_layer,
                             coord_t min_enclosure, std::vector<violation>& out,
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
}

bool check_enclosure(const polygon& inner, const polygon& outer, std::int16_t inner_layer,
                     std::int16_t outer_layer, coord_t min_enclosure, std::vector<violation>& out,
                     check_stats& stats) {
  check_enclosure_margins(inner, outer, inner_layer, outer_layer, min_enclosure, out, stats);
  return polygon_inside(inner, inner.mbr(), outer, outer.mbr(), stats);
}

bool is_box(const polygon& p) {
  if (p.size() != 4) return false;
  const std::span<const point> v = p.vertices();
  return (v[0].x == v[1].x && v[1].y == v[2].y && v[2].x == v[3].x && v[3].y == v[0].y) ||
         (v[0].y == v[1].y && v[1].x == v[2].x && v[2].y == v[3].y && v[3].x == v[0].x);
}

namespace {

// polygon::contains at the point (x2 / 2, y2 / 2): doubled coordinates make
// the midpoint between two grid lines exact.
bool contains_doubled(const polygon& p, std::int64_t x2, std::int64_t y2) {
  const auto dbl = [](coord_t c) { return 2 * static_cast<std::int64_t>(c); };
  for (std::size_t i = 0; i < p.edge_count(); ++i) {
    const edge e = p.edge_at(i);
    const std::int64_t level = dbl(e.level()), lo = dbl(e.lo()), hi = dbl(e.hi());
    if (e.horizontal() ? y2 == level && lo <= x2 && x2 <= hi
                       : x2 == level && lo <= y2 && y2 <= hi) {
      return true;
    }
  }
  bool inside = false;
  for (std::size_t i = 0; i < p.edge_count(); ++i) {
    const edge e = p.edge_at(i);
    if (e.vertical() && dbl(e.lo()) <= y2 && y2 < dbl(e.hi()) && dbl(e.level()) > x2) {
      inside = !inside;
    }
  }
  return inside;
}

// Doubled sample coordinates along one axis over [lo, hi]: every vertex
// coordinate of `a` or `b` in that range, and the midpoint between each two
// neighbours.
template <class Coord>
std::vector<std::int64_t> grid_samples(const polygon& a, const polygon& b, coord_t lo, coord_t hi,
                                       Coord coord) {
  std::vector<std::int64_t> lines{lo, hi};
  for (const polygon* p : {&a, &b}) {
    for (const point& v : p->vertices()) {
      if (lo < coord(v) && coord(v) < hi) lines.push_back(coord(v));
    }
  }
  std::ranges::sort(lines);
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  std::vector<std::int64_t> out;
  for (std::size_t k = 0; k < lines.size(); ++k) {
    out.push_back(2 * lines[k]);
    if (k + 1 < lines.size()) out.push_back(lines[k] + lines[k + 1]);
  }
  return out;
}

}  // namespace

bool polygon_inside(const polygon& inner, const polygon& outer) {
  // Cheap reject: an inner vertex outside.
  for (const point& p : inner.vertices()) {
    if (!outer.contains(p)) return false;
  }
  // Every edge of both rings lies on a line of the grid through their vertex
  // coordinates, so membership in either ring is constant on each open face,
  // open edge and vertex of that grid. Inner lies in its MBR: sampling the
  // grid there once per face, edge and vertex decides. A vertex test alone
  // misses a notch: a box whose corners all sit in the arms of a U.
  const rect m = inner.mbr();
  const std::vector<std::int64_t> xs =
      grid_samples(inner, outer, m.x_min, m.x_max, [](const point& v) { return v.x; });
  const std::vector<std::int64_t> ys =
      grid_samples(inner, outer, m.y_min, m.y_max, [](const point& v) { return v.y; });
  for (const std::int64_t x : xs) {
    for (const std::int64_t y : ys) {
      if (contains_doubled(inner, x, y) && !contains_doubled(outer, x, y)) return false;
    }
  }
  return true;
}

bool polygon_inside(const polygon& inner, const rect& im, const polygon& outer, const rect& om,
                    check_stats& stats) {
  if (!om.contains(im)) return false;
  // A box is its MBR, which contains inner's.
  if (is_box(outer)) return true;
  ++stats.exact_containment_tests;
  return polygon_inside(inner, outer);
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

void report_uncontained(const rect& m, std::int16_t inner_layer, std::int16_t outer_layer,
                        std::vector<violation>& out) {
  out.push_back({rule_kind::enclosure, inner_layer, outer_layer,
                 edge{{m.x_min, m.y_min}, {m.x_max, m.y_min}},
                 edge{{m.x_min, m.y_max}, {m.x_max, m.y_max}}, -1});
}

}  // namespace odrc::checks
