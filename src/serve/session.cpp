#include "serve/session.hpp"

#include <algorithm>
#include <sstream>

#include "infra/timer.hpp"
#include "infra/trace.hpp"

namespace odrc::serve {

namespace {

// The keep predicate, against a scope or the shard band: the same edge-wise
// test check_region applies to its window.
bool touches(const checks::violation& v, const rect& r) {
  return r.overlaps(v.e1.mbr()) || r.overlaps(v.e2.mbr());
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
    // One windowed deck run per merged dirty region, over the plans that
    // read a layer its edits touched, the region grown by the largest
    // interaction distance among them; every violation the edits could have
    // changed lies inside its rule's scope (see file comment). A skipped
    // plan neither purges nor inserts. A sharded store keeps the band
    // entries of each scope, and a window disjoint from the band runs only
    // its whole-clip rules: no other scope can reach the band.
    // Purge every scope BEFORE inserting: a violation touching two
    // overlapping scopes must not be re-purged after its re-insertion.
    const auto reads_any = [](const engine::exec_plan& p, const std::vector<db::layer_t>& ls) {
      return std::any_of(ls.begin(), ls.end(), [&](db::layer_t l) { return p.reads(l); });
    };
    std::vector<dirty_rect> windows = merge_rects(std::move(dirty_));
    for (dirty_rect& w : windows) {
      coord_t grow = 0;
      for (const engine::exec_plan& p : plans_) {
        if (reads_any(p, w.layers)) grow = std::max(grow, p.inflate);
      }
      w.box = w.box.inflated(grow);
    }
    windows = merge_rects(std::move(windows));
    std::vector<std::pair<std::size_t, std::vector<checks::violation>>> found;
    std::vector<engine::exec_plan> run_plans;
    std::vector<std::size_t> run_rules;
    for (const dirty_rect& w : windows) {
      const bool far = shard_ && !w.box.overlaps(shard_->band);
      run_plans.clear();
      run_rules.clear();
      for (std::size_t i = 0; i < plans_.size(); ++i) {
        if ((far && !plans_[i].whole_clip) || !reads_any(plans_[i], w.layers)) continue;
        run_plans.push_back(plans_[i]);
        run_rules.push_back(i);
      }
      if (run_plans.empty()) continue;
      ++out.windows;
      out.plans += run_plans.size();
      engine::deck_report dr = eng_.check_deck(run_plans, *snap_, w.box);
      for (std::size_t k = 0; k < dr.per_rule.size(); ++k) {
        const std::size_t i = run_rules[k];
        out.purged += db_.erase_touching(deck_[i].name, dr.scope[k]);
        std::erase_if(dr.per_rule[k].violations, [&](const checks::violation& v) {
          return !touches(v, dr.scope[k]) || (shard_ && !touches(v, shard_->band));
        });
        found.emplace_back(i, std::move(dr.per_rule[k].violations));
      }
    }
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
