#include "engine/engine.hpp"

#include <algorithm>
#include <optional>

#include "db/flatten.hpp"
#include "db/mbr_index.hpp"
#include "engine/pipeline.hpp"
#include "engine/plan.hpp"
#include "geo/boolean.hpp"
#include "infra/thread_pool.hpp"
#include "infra/trace.hpp"

namespace odrc::engine {

namespace {

using checks::violation;
using db::cell_id;
using db::layer_t;

// Shared-phase time of a group's shared report: the phases paid once per
// group regardless of how many rules it batches.
double shared_phase_seconds(const check_report& r) {
  const auto snapshot = r.phases.phases();
  double s = 0;
  for (const char* name : {"partition", "sweepline", "pack", "device"}) {
    auto it = snapshot.find(name);
    if (it != snapshot.end()) s += it->second;
  }
  return s;
}

// Amortization accounting for one executed group: the shared phases ran once
// instead of once per member rule. Returns the group's shared-phase seconds.
double count_group(deck_stats& ds, const check_report& shared, std::size_t members) {
  const double secs = shared_phase_seconds(shared);
  ds.groups += 1;
  if (members > 1) ds.batched_rules += members;
  ds.shared_seconds += secs;
  ds.saved_seconds += secs * static_cast<double>(members - 1);
  return secs;
}

std::vector<exec_plan> compile_plans(std::span<const rules::rule> deck) {
  std::vector<exec_plan> plans;
  plans.reserve(deck.size());
  for (const rules::rule& r : deck) plans.push_back(compile_plan(r));
  return plans;
}

// Exact region semantics: keep precisely the violations with an offending
// edge touching the window (candidate pruning examined a rule-distance halo).
void keep_in_window(std::vector<violation>& vs, const rect& window) {
  std::erase_if(vs, [&](const violation& v) {
    return !window.overlaps(v.e1.mbr()) && !window.overlaps(v.e2.mbr());
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// drc_engine
// ---------------------------------------------------------------------------

struct drc_engine::impl {
  stream_pool streams;
};

drc_engine::drc_engine(engine_config cfg) : cfg_(cfg), impl_(std::make_unique<impl>()) {
  simd::set_mode(cfg_.simd);
}
drc_engine::~drc_engine() = default;

void drc_engine::add_rules(std::vector<rules::rule> deck) {
  deck_.insert(deck_.end(), std::make_move_iterator(deck.begin()),
               std::make_move_iterator(deck.end()));
}

check_report drc_engine::check(const db::library& lib) { return check_deck(lib).total; }

deck_report drc_engine::check_deck(const db::library& lib) {
  trace::span ts("engine", "check_deck", "rules", static_cast<std::int64_t>(deck_.size()));
  const std::vector<exec_plan> plans = compile_plans(deck_);
  layout_snapshot snap(lib);
  return check_deck(lib, plans, snap);
}

deck_report drc_engine::check_deck(const db::library& lib, std::span<const exec_plan> plans,
                                   layout_snapshot& snap,
                                   const std::optional<rect>& window) {
  trace::span ts("engine", "check_deck_plans", "rules", static_cast<std::int64_t>(plans.size()));
  deck_report out;
  out.per_rule.resize(plans.size());
  for (const plan_group& g : group_pair_plans(plans)) {
    group_report gr = run_pair_group(cfg_, impl_->streams, snap, plans, g, window);
    out.groups.push_back({g.members, count_group(out.total.deck, gr.shared, g.members.size())});
    for (std::size_t k = 0; k < g.members.size(); ++k) {
      out.per_rule[g.members[k]].merge_from(std::move(gr.per_rule[k]));
    }
    out.total.merge_from(std::move(gr.shared));
  }
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (plans[i].cls == plan_class::pair) continue;
    out.per_rule[i] = run_compiled(lib, plans[i], impl_->streams, snap, window);
  }
  for (const check_report& r : out.per_rule) out.total.merge_from(check_report(r));
  return out;
}

deck_report drc_engine::check_region(const db::library& lib, std::span<const exec_plan> plans,
                                     layout_snapshot& snap, const rect& window) {
  deck_report out = check_deck(lib, plans, snap, window);
  keep_in_window(out.total.violations, window);
  for (check_report& r : out.per_rule) keep_in_window(r.violations, window);
  return out;
}

check_report drc_engine::check_concurrent(const db::library& lib) {
  trace::span ts("engine", "check_concurrent", "rules", static_cast<std::int64_t>(deck_.size()));
  const std::vector<exec_plan> plans = compile_plans(deck_);
  const std::vector<plan_group> groups = group_pair_plans(plans);
  std::vector<std::size_t> solo;  // non-pair rules, one task each
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (plans[i].cls != plan_class::pair) solo.push_back(i);
  }

  // One task per group + one per remaining rule. Each task owns its stream
  // pool and memo tables; the layout snapshot is the exception — its caches
  // are thread-safe, so all tasks share ONE instead of each rebuilding the
  // hierarchy.
  layout_snapshot snap(lib);
  const std::size_t ntasks = groups.size() + solo.size();
  std::vector<check_report> reports(ntasks);
  thread_pool::global().parallel_for(0, ntasks, [&](std::size_t t) {
    stream_pool local_streams;
    if (t < groups.size()) {
      group_report gr = run_pair_group(cfg_, local_streams, snap, plans, groups[t]);
      count_group(reports[t].deck, gr.shared, groups[t].members.size());
      reports[t].merge_from(std::move(gr).merged());
    } else {
      reports[t] =
          run_compiled(lib, plans[solo[t - groups.size()]], local_streams, snap, std::nullopt);
    }
  });
  check_report merged;
  for (check_report& r : reports) merged.merge_from(std::move(r));
  return merged;
}

check_report drc_engine::check(const db::library& lib, const rules::rule& r) {
  layout_snapshot snap(lib);
  return run_compiled(lib, compile_plan(r), impl_->streams, snap, std::nullopt);
}

check_report drc_engine::check_region(const db::library& lib, const rules::rule& r,
                                      const rect& window) {
  layout_snapshot snap(lib);
  check_report report = run_compiled(lib, compile_plan(r), impl_->streams, snap, window);
  keep_in_window(report.violations, window);
  return report;
}

namespace {

// ---------------------------------------------------------------------------
// Multi-patterning coloring
// ---------------------------------------------------------------------------

// Build the same-mask conflict graph (shapes closer than the rule distance)
// and verify it is 2-colorable; every odd cycle produces one violation at the
// edge that closes it.
check_report run_coloring_plan(const db::library& lib, const rules::rule& r) {
  const layer_t layer = r.layer1;
  const coord_t same_mask_spacing = r.distance;
  check_report report;
  for (const cell_id top : lib.top_cells()) {
    const auto flat = db::flatten_layer(lib, top, layer);
    report.instances += flat.size();
    if (flat.empty()) continue;

    // Conflict graph: shapes whose boundary distance is below the same-mask
    // spacing must be assigned to different masks.
    std::vector<rect> mbrs(flat.size());
    for (std::size_t i = 0; i < flat.size(); ++i) mbrs[i] = flat[i].poly.mbr();
    std::vector<std::vector<std::uint32_t>> adj(flat.size());
    {
      auto t = report.phases.measure("sweepline");
      sweep::overlap_pairs_inflated(
          mbrs, same_mask_spacing,
          [&](std::uint32_t i, std::uint32_t j) {
            ++report.check_stats.polygon_pairs_tested;
            if (checks::polygons_within(flat[i].poly, flat[j].poly, same_mask_spacing)) {
              adj[i].push_back(j);
              adj[j].push_back(i);
            }
          },
          &report.sweep_stats);
    }

    // BFS 2-coloring; an edge between equal colors closes an odd cycle.
    auto t = report.phases.measure("edge_check");
    std::vector<std::int8_t> color(flat.size(), -1);
    std::vector<std::uint32_t> queue;
    for (std::uint32_t seed = 0; seed < flat.size(); ++seed) {
      if (color[seed] != -1) continue;
      color[seed] = 0;
      queue.assign(1, seed);
      while (!queue.empty()) {
        const std::uint32_t u = queue.back();
        queue.pop_back();
        for (const std::uint32_t v : adj[u]) {
          if (color[v] == -1) {
            color[v] = static_cast<std::int8_t>(1 - color[u]);
            queue.push_back(v);
          } else if (color[v] == color[u] && u < v) {
            // Odd cycle: this conflict cannot be resolved with two masks.
            const rect ma = mbrs[u], mb = mbrs[v];
            report.violations.push_back(
                {checks::rule_kind::coloring, layer, layer,
                 edge{{ma.x_min, ma.y_min}, {ma.x_max, ma.y_max}},
                 edge{{mb.x_min, mb.y_min}, {mb.x_max, mb.y_max}}, 0});
          }
        }
      }
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Derived-layer area rules (boolean masks)
// ---------------------------------------------------------------------------

// Every connected region of op(A, B) must have at least `min_area`, where op
// is AND (overlap_area) or AND-NOT (notcut_area).
check_report run_derived_area_plan(const db::library& lib, const rules::rule& r) {
  const checks::rule_kind kind = r.kind;
  const layer_t a = r.layer1, b = r.layer2;
  const area_t min_area = r.min_area;
  check_report report;
  const geo::bool_op op =
      kind == checks::rule_kind::overlap_area ? geo::bool_op::intersect : geo::bool_op::subtract;

  for (const cell_id top : lib.top_cells()) {
    // Derived layers are global layer expressions: flatten both operands,
    // run the boolean scanline, then group slabs into connected regions.
    auto t = report.phases.measure("boolean");
    const auto fa = db::flatten_layer(lib, top, a);
    const auto fb = db::flatten_layer(lib, top, b);
    report.instances += fa.size() + fb.size();
    if (fa.empty()) continue;
    std::vector<polygon> pa, pb;
    pa.reserve(fa.size());
    pb.reserve(fb.size());
    for (const auto& fp : fa) pa.push_back(fp.poly);
    for (const auto& fp : fb) pb.push_back(fp.poly);

    const std::vector<rect> slabs = geo::boolean_rects(pa, pb, op);
    for (const geo::component& c : geo::connected_components(slabs)) {
      if (c.area >= min_area) continue;
      report.violations.push_back({kind, a, b,
                                   edge{{c.mbr.x_min, c.mbr.y_min}, {c.mbr.x_max, c.mbr.y_min}},
                                   edge{{c.mbr.x_min, c.mbr.y_max}, {c.mbr.x_max, c.mbr.y_max}},
                                   c.area});
    }
  }
  return report;
}

}  // namespace

check_report drc_engine::run_compiled(const db::library& lib, const exec_plan& plan,
                                      stream_pool& streams, layout_snapshot& snap,
                                      const std::optional<rect>& window) {
  switch (plan.cls) {
    case plan_class::intra: return run_intra_plan(cfg_, streams, snap, plan, window);
    case plan_class::pair: {
      // A single pair rule is a one-member group.
      const plan_group g{plan.layer1, plan.layer2, plan.two_layer, plan.inflate, {0}};
      return run_pair_group(cfg_, streams, snap, std::span(&plan, 1), g, window).merged();
    }
    case plan_class::global: break;
  }
  // Global plans flatten whole layers themselves; nothing in the snapshot
  // applies to them.
  return plan.rule.kind == checks::rule_kind::coloring ? run_coloring_plan(lib, plan.rule)
                                                       : run_derived_area_plan(lib, plan.rule);
}

}  // namespace odrc::engine
