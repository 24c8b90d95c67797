#include "engine/engine.hpp"

#include <algorithm>
#include <optional>

#include "engine/pipeline.hpp"
#include "engine/plan.hpp"
#include "infra/thread_pool.hpp"
#include "infra/trace.hpp"

namespace odrc::engine {

namespace {

using checks::violation;

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
  return check_deck(plans, snap);
}

deck_report drc_engine::check_deck(std::span<const exec_plan> plans, layout_snapshot& snap,
                                   const std::optional<geo::region>& window) {
  trace::span ts("engine", "check_deck_plans", "rules", static_cast<std::int64_t>(plans.size()),
                 window ? "rects" : nullptr,
                 window ? static_cast<std::int64_t>(window->rects().size()) : 0);
  deck_report out;
  out.per_rule.resize(plans.size());
  out.scope.resize(plans.size());
  for (const plan_group& g : group_plans(plans)) {
    const timer t;
    group_report gr = run_group(cfg_, impl_->streams, snap, plans, g, window);
    out.groups.push_back({g.members, t.seconds()});
    for (std::size_t k = 0; k < g.members.size(); ++k) {
      out.per_rule[g.members[k]].merge_from(std::move(gr.per_rule[k]));
      out.scope[g.members[k]] = gr.scope;
    }
    out.total.merge_from(std::move(gr.shared));
  }
  for (const check_report& r : out.per_rule) out.total.merge_from(check_report(r));
  return out;
}

deck_report drc_engine::check_region(std::span<const exec_plan> plans, layout_snapshot& snap,
                                     const rect& window) {
  deck_report out = check_deck(plans, snap, geo::region(window));
  keep_in_window(out.total.violations, window);
  for (check_report& r : out.per_rule) keep_in_window(r.violations, window);
  return out;
}

check_report drc_engine::check_concurrent(const db::library& lib) {
  trace::span ts("engine", "check_concurrent", "rules", static_cast<std::int64_t>(deck_.size()));
  const std::vector<exec_plan> plans = compile_plans(deck_);
  const std::vector<plan_group> groups = group_plans(plans);

  // One task per group. Each task owns its stream pool and memo tables; the
  // layout snapshot is the exception — its caches are thread-safe, so all
  // tasks share ONE instead of each rebuilding the hierarchy.
  layout_snapshot snap(lib);
  std::vector<check_report> reports(groups.size());
  thread_pool::global().parallel_for(0, groups.size(), [&](std::size_t t) {
    stream_pool local_streams;
    reports[t] = run_group(cfg_, local_streams, snap, plans, groups[t]).merged();
  });
  check_report merged;
  for (check_report& r : reports) merged.merge_from(std::move(r));
  return merged;
}

check_report drc_engine::check(const db::library& lib, const rules::rule& r) {
  const exec_plan plan = compile_plan(r);
  layout_snapshot snap(lib);
  return check_deck(std::span(&plan, 1), snap).total;
}

check_report drc_engine::check_region(const db::library& lib, const rules::rule& r,
                                      const rect& window) {
  const exec_plan plan = compile_plan(r);
  layout_snapshot snap(lib);
  return check_region(std::span(&plan, 1), snap, window).total;
}

}  // namespace odrc::engine
