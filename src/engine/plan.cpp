#include "engine/plan.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "engine/engine.hpp"
#include "geo/boolean.hpp"
#include "sweep/sweepline.hpp"

namespace odrc::engine {

namespace {

// Every connected region of op(A, B) must have at least the rule's area,
// where op is AND (overlap_area) or AND-NOT (notcut_area).
void measure_regions(const exec_plan& p, std::span<const polygon> a, std::span<const polygon> b,
                     check_report& report) {
  if (a.empty()) return;
  auto t = report.phases.measure(phase::boolean);
  const rules::rule& r = p.rule;
  const geo::bool_op op = r.kind == checks::rule_kind::overlap_area ? geo::bool_op::intersect
                                                                    : geo::bool_op::subtract;
  for (const geo::component& c : geo::connected_components(geo::boolean_rects(a, b, op))) {
    if (c.area >= r.min_area) continue;
    report.violations.push_back({r.kind, r.layer1, r.layer2,
                                 edge{{c.mbr.x_min, c.mbr.y_min}, {c.mbr.x_max, c.mbr.y_min}},
                                 edge{{c.mbr.x_min, c.mbr.y_max}, {c.mbr.x_max, c.mbr.y_max}},
                                 c.area});
  }
}

// Build the same-mask conflict graph (shapes closer than the rule distance)
// and verify it is 2-colorable; every odd cycle produces one violation at the
// conflict that closes it. Shapes are visited in a canonical order (MBR, then
// vertices) — seeds and neighbours alike — so the reported pair depends on
// the shape set only, not on how it was enumerated.
void color_conflicts(const exec_plan& p, std::span<const polygon> shapes,
                     check_report& report) {
  const std::size_t n = shapes.size();
  if (n == 0) return;
  std::vector<rect> mbrs(n);
  for (std::size_t i = 0; i < n; ++i) mbrs[i] = shapes[i].mbr();
  std::vector<std::uint32_t> order(n);  // canonical rank -> input index
  std::iota(order.begin(), order.end(), 0u);
  const auto key = [](const rect& m) { return std::tie(m.x_min, m.y_min, m.x_max, m.y_max); };
  std::sort(order.begin(), order.end(), [&](std::uint32_t u, std::uint32_t v) {
    if (key(mbrs[u]) != key(mbrs[v])) return key(mbrs[u]) < key(mbrs[v]);
    const auto pu = shapes[u].vertices(), pv = shapes[v].vertices();
    return std::lexicographical_compare(pu.begin(), pu.end(), pv.begin(), pv.end());
  });
  std::vector<std::uint32_t> rank(n);
  for (std::uint32_t k = 0; k < n; ++k) rank[order[k]] = k;

  // Conflict graph over canonical ranks: shapes whose boundary distance is
  // below the same-mask spacing must be assigned to different masks.
  const coord_t same_mask_spacing = p.rule.distance;
  std::vector<std::vector<std::uint32_t>> adj(n);
  {
    auto t = report.phases.measure(phase::sweepline);
    sweep::overlap_pairs_inflated(
        mbrs, same_mask_spacing,
        [&](std::uint32_t i, std::uint32_t j) {
          ++report.check_stats.polygon_pairs_tested;
          if (checks::polygons_within(shapes[i], shapes[j], same_mask_spacing)) {
            adj[rank[i]].push_back(rank[j]);
            adj[rank[j]].push_back(rank[i]);
          }
        },
        &report.sweep_stats);
  }

  // Depth-first 2-coloring; a conflict between equal colors closes an odd
  // cycle.
  auto t = report.phases.measure(phase::edge_check);
  for (auto& nb : adj) std::sort(nb.begin(), nb.end());
  std::vector<std::int8_t> color(n, -1);
  std::vector<std::uint32_t> stack;
  for (std::uint32_t seed = 0; seed < n; ++seed) {
    if (color[seed] != -1) continue;
    color[seed] = 0;
    stack.assign(1, seed);
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      for (const std::uint32_t v : adj[u]) {
        if (color[v] == -1) {
          color[v] = static_cast<std::int8_t>(1 - color[u]);
          stack.push_back(v);
        } else if (color[v] == color[u] && u < v) {
          // Odd cycle: this conflict cannot be resolved with two masks.
          const rect ma = mbrs[order[u]], mb = mbrs[order[v]];
          report.violations.push_back({checks::rule_kind::coloring, p.layer1, p.layer1,
                                       edge{{ma.x_min, ma.y_min}, {ma.x_max, ma.y_max}},
                                       edge{{mb.x_min, mb.y_min}, {mb.x_max, mb.y_max}}, 0});
        }
      }
    }
  }
}

}  // namespace

sweep::device_check_config exec_plan::device_config(sweep::sweep_axis axis) const {
  sweep::device_check_config cfg;
  cfg.kind = device_kind;
  cfg.distance = inflate;
  cfg.layer1 = layer1;
  cfg.layer2 = layer2;
  cfg.axis = axis;
  if (rule.kind == checks::rule_kind::spacing) cfg.table = rule.spacing;
  return cfg;
}

void exec_plan::check_single(const db::polygon_elem& p, std::vector<checks::violation>& out,
                             checks::check_stats& cs) const {
  switch (rule.kind) {
    case checks::rule_kind::width:
      checks::check_width(p.poly, p.layer, rule.distance, out, cs);
      break;
    case checks::rule_kind::area:
      checks::check_area(p.poly, p.layer, rule.min_area, out, cs);
      break;
    case checks::rule_kind::rectilinear:
      checks::check_rectilinear(p.poly, p.layer, out, cs);
      break;
    case checks::rule_kind::custom:
      ++cs.polygons_tested;
      if (rule.predicate && !rule.predicate(p)) {
        const rect m = p.poly.mbr();
        out.push_back({checks::rule_kind::custom, p.layer, p.layer,
                       edge{{m.x_min, m.y_min}, {m.x_max, m.y_min}},
                       edge{{m.x_min, m.y_max}, {m.x_max, m.y_max}}, 0});
      }
      break;
    case checks::rule_kind::spacing:
      checks::check_spacing_notch(p.poly, p.layer, rule.spacing, out, cs);
      break;
    default: break;  // enclosure, derived-area, coloring: no per-polygon part
  }
}

void exec_plan::check_pair(const polygon& a, const rect& am, const polygon& b, const rect& bm,
                           std::vector<checks::violation>& out,
                           checks::check_stats& cs) const {
  switch (rule.kind) {
    case checks::rule_kind::spacing:
      if (!am.inflated(rule.spacing.max_distance()).overlaps(bm)) return;
      checks::check_spacing(a, b, layer1, rule.spacing, out, cs);
      break;
    case checks::rule_kind::enclosure:
      if (!am.inflated(rule.distance).overlaps(bm)) return;
      checks::check_enclosure_margins(a, b, layer1, layer2, rule.distance, out, cs);
      break;
    default: break;  // other kinds have no pair predicate
  }
}

void exec_plan::check_shapes(std::span<const polygon> a, std::span<const polygon> b,
                             check_report& report) const {
  if (rule.kind == checks::rule_kind::coloring) {
    color_conflicts(*this, a, report);
  } else {
    measure_regions(*this, a, b, report);
  }
}

exec_plan compile_plan(const rules::rule& r) {
  exec_plan p;
  p.rule = r;
  p.layer1 = r.layer1;
  p.layer2 = r.layer2;
  switch (r.kind) {
    case checks::rule_kind::width:
    case checks::rule_kind::area:
    case checks::rule_kind::rectilinear:
    case checks::rule_kind::custom:
      // One layer (or any_layer): the grouping key ignores rule.layer2.
      p.cls = plan_class::intra;
      p.layer2 = r.layer1;
      p.inflate = r.distance;
      if (r.kind == checks::rule_kind::width) p.device_kind = sweep::pair_check::width;
      break;
    case checks::rule_kind::spacing:
      p.cls = plan_class::pair;
      // Normalise: a plain-distance spacing rule becomes a one-tier table so
      // the host and device predicates have a single form to evaluate.
      if (p.rule.spacing.count == 0) {
        p.rule.spacing = checks::spacing_table::simple(r.distance);
      }
      p.inflate = p.rule.spacing.max_distance();
      p.device_kind = sweep::pair_check::spacing;
      break;
    case checks::rule_kind::enclosure:
      p.cls = plan_class::pair;
      p.inflate = r.distance;
      p.two_layer = true;
      p.track_containment = true;
      p.device_kind = sweep::pair_check::enclosure;
      break;
    case checks::rule_kind::overlap_area:
    case checks::rule_kind::notcut_area:
      // Inflate 0: the partition's extents are closed, so touching shapes
      // still share a clip and every derived region lies in one clip.
      p.cls = plan_class::pair;
      p.whole_clip = true;
      p.two_layer = r.layer1 != r.layer2;
      break;
    case checks::rule_kind::coloring:
      p.cls = plan_class::pair;
      p.whole_clip = true;
      p.inflate = r.distance;
      break;
  }
  return p;
}

std::vector<plan_group> group_plans(std::span<const exec_plan> plans) {
  std::vector<plan_group> groups;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const exec_plan& p = plans[i];
    auto it = std::find_if(groups.begin(), groups.end(), [&](const plan_group& g) {
      return g.layer1 == p.layer1 && g.layer2 == p.layer2 && g.two_layer == p.two_layer;
    });
    if (it == groups.end()) it = groups.insert(it, {p.layer1, p.layer2, p.two_layer, 0, {}});
    // An intra plan's inflate is its width; it must not coarsen the partition.
    if (p.cls == plan_class::pair) it->inflate = std::max(it->inflate, p.inflate);
    it->members.push_back(i);
  }
  return groups;
}

}  // namespace odrc::engine
