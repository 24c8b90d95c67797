#include "serve/session.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "engine/pipeline.hpp"
#include "infra/timer.hpp"
#include "infra/trace.hpp"

namespace odrc::serve {

namespace {

// The keep predicate, against a scope or the shard band: the same edge-wise
// test check_region applies to its window.
bool touches(const checks::violation& v, const geo::region& r) {
  return r.overlaps(v.e1.mbr()) || r.overlaps(v.e2.mbr());
}

bool reads_any(const engine::exec_plan& p, const std::vector<db::layer_t>& ls) {
  return std::any_of(ls.begin(), ls.end(), [&](db::layer_t l) { return p.reads(l); });
}

// Which dirty rects a shard's non-whole-clip plans must run over (`windows`
// are the grown rects). A changed violation of such a plan has an edge on an
// edited polygon inside its dirty rect and, for a distance rule, the other
// on a polygon of a layer the rule reads that overlaps the window. It
// touches the band only through one of them, so a window disjoint from the
// band matters only when an object of those layers overlapping it meets the
// band. The window alone is not enough: the partner edge can be long.
std::vector<char> near_band(engine::layout_snapshot& snap,
                            std::span<const engine::exec_plan> plans,
                            std::span<const dirty_rect> dirty, const std::vector<rect>& windows,
                            const rect& band) {
  std::vector<char> near(windows.size(), 1);
  std::vector<rect> far;
  std::vector<std::size_t> far_ids;
  std::vector<db::layer_t> layers;
  for (std::size_t j = 0; j < windows.size(); ++j) {
    if (windows[j].overlaps(band)) continue;
    near[j] = 0;
    far.push_back(windows[j]);
    far_ids.push_back(j);
    for (const engine::exec_plan& p : plans) {
      if (p.cls != engine::plan_class::pair || p.whole_clip || !reads_any(p, dirty[j].layers)) {
        continue;
      }
      for (const db::layer_t l : {p.layer1, p.layer2}) {
        if (l == rules::any_layer) {
          const std::vector<db::layer_t> all = snap.index().layers();
          layers.insert(layers.end(), all.begin(), all.end());
        } else {
          layers.push_back(l);
        }
      }
    }
  }
  std::ranges::sort(layers);
  layers.erase(std::unique(layers.begin(), layers.end()), layers.end());
  const geo::region far_region(far);
  for (const db::layer_t l : layers) {
    for (const db::cell_id top : snap.lib().top_cells()) {
      for (const engine::inst& in : engine::collect_instances(snap, top, l, far_region)) {
        if (!in.mbr.overlaps(band)) continue;
        far_region.for_each_overlapping(in.mbr, [&](std::uint32_t i) { near[far_ids[i]] = 1; });
      }
    }
  }
  return near;
}

}  // namespace

session::session(db::library lib, std::vector<rules::rule> deck, engine::engine_config cfg)
    : session(nullptr, std::move(lib), std::move(deck), cfg) {}

session::session(std::shared_ptr<const engine::frozen_backing> frozen, db::library lib,
                 std::vector<rules::rule> deck, engine::engine_config cfg)
    : frozen_(std::move(frozen)),
      lib_(std::move(lib)),
      deck_(std::move(deck)),
      eng_(cfg),
      db_(lib_.name()) {
  trace::span ts("snapshot", frozen_ ? "frozen_boot" : "cold_build", "cells",
                 static_cast<std::int64_t>(lib_.cell_count()));
  plans_.reserve(deck_.size());
  for (const rules::rule& r : deck_) plans_.push_back(engine::compile_plan(r));
  snap_.emplace(lib_, frozen_);
}

void session::reload(std::shared_ptr<const engine::frozen_backing> frozen, db::library lib) {
  std::lock_guard lk(mu_);
  trace::span ts("snapshot", "hot_swap", "cells",
                 static_cast<std::int64_t>(lib.cell_count()));
  // Destroy the snapshot before the library it references; the OLD mapping
  // is only released when the last shared_ptr (an in-flight check's copy or
  // another session) drops.
  snap_.reset();
  lib_ = std::move(lib);
  frozen_ = std::move(frozen);
  snap_.emplace(lib_, frozen_);
  // A new layout version invalidates all incremental state.
  dirty_.clear();
  full_required_ = true;
}

void session::run_full_locked() {
  trace::span ts("serve", "full_check", "rules", static_cast<std::int64_t>(plans_.size()),
                 "shard", shard_ ? static_cast<std::int64_t>(shard_->index) : -1);
  db_ = report::violation_db(lib_.name());
  // A sharded worker's "full" check is its band: check_region keeps exactly
  // the violations with an offending edge touching the band, so the union
  // over all workers' stores is the single-process store.
  engine::deck_report dr = shard_ ? eng_.check_region(plans_, *snap_, shard_->band)
                                  : eng_.check_deck(plans_, *snap_);
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    db_.add(deck_[i].name, dr.per_rule[i].violations);
  }
  checked_ = true;
  full_required_ = false;
  dirty_.clear();
}

void session::set_shard(shard_info s) {
  std::lock_guard lk(mu_);
  if (s.band.empty()) throw std::runtime_error("empty shard band");
  shard_ = s;
  // The store's meaning changed (full design -> band); rebuild before the
  // next incremental step.
  full_required_ = true;
}

std::optional<session::shard_info> session::shard() const {
  std::lock_guard lk(mu_);
  return shard_;
}

session::window_result session::check_window(const rect& w) {
  std::lock_guard lk(mu_);
  trace::span ts("serve", "check_window");
  const rect eff = shard_ ? w.meet(shard_->band) : w;
  window_result out;
  if (eff.empty()) return out;
  report::violation_db db(lib_.name());
  engine::deck_report dr = eng_.check_region(plans_, *snap_, eff);
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    db.add(deck_[i].name, dr.per_rule[i].violations);
  }
  out.rows = db.summarize();
  out.keys = db.keys();
  return out;
}

std::vector<report::summary_row> session::check_full(const diff_callback& on_diff) {
  std::lock_guard lk(mu_);
  timer t;
  const std::vector<std::string> baseline = last_keys_;
  run_full_locked();
  last_keys_ = db_.keys();
  last_diff_ = report::diff_keys(baseline, last_keys_);
  ++stats_.checks;
  stats_.violations = db_.size();
  stats_.pending_dirty = 0;
  stats_.last_check_seconds = t.seconds();
  if (on_diff) on_diff(last_diff_);
  return db_.summarize();
}

edit_result session::apply(std::span<const edit_op> ops) {
  std::lock_guard lk(mu_);
  trace::span ts("serve", "apply_edits", "ops", static_cast<std::int64_t>(ops.size()));
  edit_result res;
  try {
    res = apply_edits(lib_, *snap_, ops);
  } catch (...) {
    // A partially applied script leaves the dirty bookkeeping incomplete;
    // only a full check restores a trustworthy store.
    full_required_ = true;
    throw;
  }
  dirty_.insert(dirty_.end(), res.dirty.begin(), res.dirty.end());
  if (res.tops_changed) full_required_ = true;
  ++stats_.edits;
  stats_.pending_dirty = dirty_.size();
  if (snap_->frozen_backed()) {
    trace::counter("snapshot", "overlay_entries",
                   static_cast<std::int64_t>(snap_->overlay_entries()));
  }
  return res;
}

recheck_result session::recheck(const diff_callback& on_diff) {
  std::lock_guard lk(mu_);
  trace::span ts("serve", "recheck", "dirty", static_cast<std::int64_t>(dirty_.size()));
  timer t;
  recheck_result out;
  const std::vector<std::string> baseline = last_keys_;

  if (!checked_ || full_required_) {
    run_full_locked();
    out.full = true;
  } else if (!dirty_.empty()) {
    // Each plan runs once (an any_layer intra plan once per touched layer),
    // over the region of the dirty rects whose layers it reads, each rect
    // grown by the largest interaction distance among the plans that read
    // its layers; every violation the edits could have changed lies inside
    // its rule's scope (see file comment). Plans with the same rect set
    // share one deck run, so a group's members share one walk. A skipped
    // plan neither purges nor inserts. A sharded store keeps the band
    // entries of each scope; its non-whole-clip plans skip the rects whose
    // changes cannot reach the band (near_band). Purge every scope BEFORE
    // inserting: a violation touching two scopes must not be re-purged
    // after its re-insertion.
    std::vector<rect> grown(dirty_.size());
    for (std::size_t j = 0; j < dirty_.size(); ++j) {
      coord_t grow = 0;
      for (const engine::exec_plan& p : plans_) {
        if (reads_any(p, dirty_[j].layers)) grow = std::max(grow, p.inflate);
      }
      grown[j] = dirty_[j].box.inflated(grow);
    }
    const std::vector<char> near =
        shard_ ? near_band(*snap_, plans_, dirty_, grown, shard_->band)
               : std::vector<char>(dirty_.size(), 1);
    // A job runs plan `plan` over the rects whose layers it reads. An
    // any_layer intra plan (SHAPES) checks every polygon on its own, so an
    // edit changes only its violations on a layer the edit touched: it gets
    // one job per touched layer, over the rects carrying that layer, and
    // purges only that layer's entries.
    struct job {
      std::size_t plan;
      db::layer_t layer;  ///< any_layer: the plan as compiled
    };
    std::vector<db::layer_t> touched;
    for (const dirty_rect& d : dirty_) {
      touched.insert(touched.end(), d.layers.begin(), d.layers.end());
    }
    std::ranges::sort(touched);
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    std::vector<job> all_jobs;
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      if (plans_[i].cls == engine::plan_class::intra && plans_[i].layer1 == rules::any_layer) {
        for (const db::layer_t l : touched) all_jobs.push_back({i, l});
      } else {
        all_jobs.push_back({i, rules::any_layer});
      }
    }
    // Rect indices -> the jobs that run over exactly those rects.
    std::map<std::vector<std::size_t>, std::vector<job>> runs;
    for (const job& jb : all_jobs) {
      const engine::exec_plan& p = plans_[jb.plan];
      std::vector<std::size_t> rects;
      for (std::size_t j = 0; j < dirty_.size(); ++j) {
        const std::vector<db::layer_t>& ls = dirty_[j].layers;
        const bool reads = jb.layer == rules::any_layer
                               ? reads_any(p, ls)
                               : std::ranges::find(ls, jb.layer) != ls.end();
        if ((near[j] || p.whole_clip) && reads) rects.push_back(j);
      }
      if (!rects.empty()) runs[std::move(rects)].push_back(jb);
    }
    const geo::region band = shard_ ? geo::region(shard_->band) : geo::region();
    std::vector<char> ran(dirty_.size(), 0);
    std::vector<char> plan_ran(plans_.size(), 0);
    std::vector<std::pair<std::size_t, std::vector<checks::violation>>> found;
    for (const auto& [rects, jobs] : runs) {
      std::vector<rect> boxes;
      for (const std::size_t j : rects) {
        boxes.push_back(grown[j]);
        ran[j] = 1;
      }
      std::vector<engine::exec_plan> run_plans;
      for (const job& jb : jobs) {
        run_plans.push_back(plans_[jb.plan]);
        // As compiled for that layer: it then joins that layer's group.
        if (jb.layer != rules::any_layer) {
          run_plans.back().layer1 = run_plans.back().layer2 = jb.layer;
        }
        plan_ran[jb.plan] = 1;
      }
      engine::deck_report dr = eng_.check_deck(run_plans, *snap_, geo::region(std::move(boxes)));
      out.objects += dr.total.instances;
      for (std::size_t k = 0; k < jobs.size(); ++k) {
        const auto [i, layer] = jobs[k];
        out.purged += db_.erase_touching(
            deck_[i].name, dr.scope[k],
            layer == rules::any_layer ? std::nullopt : std::optional<db::layer_t>(layer));
        std::erase_if(dr.per_rule[k].violations, [&](const checks::violation& v) {
          return !touches(v, dr.scope[k]) || (shard_ && !touches(v, band));
        });
        found.emplace_back(i, std::move(dr.per_rule[k].violations));
      }
    }
    out.plans = static_cast<std::size_t>(std::count(plan_ran.begin(), plan_ran.end(), 1));
    out.windows = static_cast<std::size_t>(std::count(ran.begin(), ran.end(), 1));
    for (const auto& [i, vs] : found) {
      for (const checks::violation& v : vs) {
        if (db_.add_unique(deck_[i].name, v)) ++out.inserted;
      }
    }
    dirty_.clear();
  }

  last_keys_ = db_.keys();
  last_diff_ = report::diff_keys(baseline, last_keys_);
  out.diff = last_diff_;
  out.seconds = t.seconds();
  ++stats_.rechecks;
  stats_.violations = db_.size();
  stats_.pending_dirty = 0;
  stats_.last_recheck_seconds = out.seconds;
  ts.set_end_args("windows", static_cast<std::int64_t>(out.windows), "plans",
                  static_cast<std::int64_t>(out.plans));
  trace::counter("serve", "recheck_objects", static_cast<std::int64_t>(out.objects));
  trace::counter("serve", "recheck_purged", static_cast<std::int64_t>(out.purged));
  trace::counter("serve", "recheck_inserted", static_cast<std::int64_t>(out.inserted));
  if (on_diff) on_diff(last_diff_);
  return out;
}

session::window_result session::query_stored(const rect& w) const {
  std::lock_guard lk(mu_);
  trace::span ts("serve", "query_stored");
  window_result out;
  if (w.empty()) return out;
  const std::vector<std::size_t> hits = db_.in_window(w);
  const std::span<const report::entry> entries = db_.entries();
  for (const std::size_t i : hits) {
    const report::entry& e = entries[i];
    auto it = std::find_if(out.rows.begin(), out.rows.end(),
                           [&](const report::summary_row& r) { return r.rule == e.rule; });
    if (it == out.rows.end()) {
      out.rows.push_back({e.rule, e.v.kind, 1});
    } else {
      ++it->count;
    }
    out.keys.push_back(e.key);
  }
  std::sort(out.keys.begin(), out.keys.end());
  return out;
}

report::key_diff session::last_diff() const {
  std::lock_guard lk(mu_);
  return last_diff_;
}

std::vector<std::string> session::keys() const {
  std::lock_guard lk(mu_);
  return db_.keys();
}

session_stats session::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

std::string session::report_text() const {
  std::lock_guard lk(mu_);
  std::ostringstream os;
  db_.write_text(os);
  return os.str();
}

std::uint32_t session_manager::create(db::library lib, std::vector<rules::rule> deck,
                                      engine::engine_config cfg) {
  return create_frozen(nullptr, std::move(lib), std::move(deck), cfg);
}

std::uint32_t session_manager::create_frozen(
    std::shared_ptr<const engine::frozen_backing> frozen, db::library lib,
    std::vector<rules::rule> deck, engine::engine_config cfg) {
  auto s = std::make_shared<session>(std::move(frozen), std::move(lib), std::move(deck), cfg);
  std::lock_guard lk(mu_);
  const std::uint32_t id = next_id_++;
  sessions_.emplace(id, std::move(s));
  return id;
}

std::shared_ptr<session> session_manager::get(std::uint32_t id) const {
  std::lock_guard lk(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

bool session_manager::close(std::uint32_t id) {
  std::lock_guard lk(mu_);
  return sessions_.erase(id) > 0;
}

std::size_t session_manager::count() const {
  std::lock_guard lk(mu_);
  return sessions_.size();
}

}  // namespace odrc::serve
