#include "engine/plan.hpp"

#include <algorithm>

namespace odrc::engine {

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

void exec_plan::check_single(const polygon& p, std::vector<checks::violation>& out,
                             checks::check_stats& cs) const {
  if (!intra_object) return;
  checks::check_spacing_notch(p, layer1, rule.spacing, out, cs);
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
      checks::check_enclosure(a, b, layer1, layer2, rule.distance, out, cs);
      break;
    default: break;  // other kinds have no pair predicate
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
      p.cls = plan_class::intra;
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
      p.intra_object = true;
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
    case checks::rule_kind::coloring:
      p.cls = plan_class::global;
      p.inflate = r.distance;
      break;
  }
  return p;
}

std::vector<plan_group> group_pair_plans(std::span<const exec_plan> plans) {
  std::vector<plan_group> groups;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const exec_plan& p = plans[i];
    if (p.cls != plan_class::pair) continue;
    auto it = std::find_if(groups.begin(), groups.end(), [&](const plan_group& g) {
      return g.layer1 == p.layer1 && g.layer2 == p.layer2 && g.two_layer == p.two_layer;
    });
    if (it == groups.end()) {
      groups.push_back({p.layer1, p.layer2, p.two_layer, p.inflate, {i}});
    } else {
      it->inflate = std::max(it->inflate, p.inflate);
      it->members.push_back(i);
    }
  }
  return groups;
}

}  // namespace odrc::engine
