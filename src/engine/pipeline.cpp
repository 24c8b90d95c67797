#include "engine/pipeline.hpp"

#include <algorithm>
#include <deque>

#include "infra/trace.hpp"

namespace odrc::engine {

namespace {

using checks::violation;
using db::cell_id;
using db::layer_t;

// A candidate pair of check objects: (index into a group's a_insts, index of
// the other object: into b_insts for two-layer groups, a_insts otherwise).
using object_pair = std::pair<std::uint32_t, std::uint32_t>;

// Visit, in collect_instances' order, the check objects of one top cell on
// one layer that overlap a rect of `window` (every object without one). With
// `memo_mbrs` the placements' layer MBRs come from the snapshot's memo
// (placed_mbrs); without it, from the master views: an unwindowed walk that
// keeps no object builds no memo.
template <class Visit>
void for_each_object(layout_snapshot& snap, cell_id top, layer_t layer,
                     const std::optional<geo::region>& window, Visit&& visit,
                     bool memo_mbrs = true) {
  const instance_set& set = snap.instances(top, layer);
  const std::span<const rect> mbrs =
      memo_mbrs || window ? snap.placed_mbrs(top, layer) : std::span<const rect>{};
  // One view lookup per master, not per placement.
  std::vector<const master_layer_view*> view_of(snap.lib().cell_count(), nullptr);
  const auto view = [&](cell_id m) -> const master_layer_view& {
    if (!view_of[m]) view_of[m] = &snap.views().get(m, layer);
    return *view_of[m];
  };
  for (std::size_t i = 0; i < set.placed.size(); ++i) {
    const db::placed_cell& pc = set.placed[i];
    const rect cell_mbr = mbrs.empty() ? pc.to_top.apply(view(pc.master).mbr) : mbrs[i];
    if (cell_mbr.empty() || (window && !window->overlaps(cell_mbr))) continue;
    // A single-use master with many polygons on the layer splits into
    // polygon objects.
    if (set.occurrences(pc.master) > 1 ||
        view(pc.master).poly_indices.size() <= split_poly_threshold) {
      visit(inst{pc.master, whole_cell, pc.to_top, cell_mbr});
      continue;
    }
    const master_layer_view& v = view(pc.master);
    for (std::uint32_t k = 0; k < v.poly_indices.size(); ++k) {
      const rect pm = pc.to_top.apply(v.poly_mbrs[k]);
      if (window && !window->overlaps(pm)) continue;
      visit(inst{pc.master, k, pc.to_top, pm});
    }
  }
}

}  // namespace

std::vector<inst> collect_instances(layout_snapshot& snap, cell_id top, layer_t layer,
                                    const std::optional<geo::region>& window) {
  std::vector<inst> out;
  for_each_object(snap, top, layer, window, [&](const inst& in) { out.push_back(in); });
  return out;
}

partition::partition_result partition_instances(const engine_config& cfg,
                                                std::span<const rect> mbrs, coord_t distance,
                                                check_report& report) {
  partition::partition_result part;
  if (cfg.enable_partition) {
    auto t = report.phases.measure(phase::partition);
    trace::span ts("pipeline", "partition", "objects", static_cast<std::int64_t>(mbrs.size()));
    part = partition::partition_rows(mbrs, distance, cfg.merge);
  } else {
    // Ablation: one row, one clip, everything inside.
    partition::row r;
    partition::clip c;
    for (std::uint32_t i = 0; i < mbrs.size(); ++i) {
      if (!mbrs[i].empty()) c.members.push_back(i);
    }
    r.clips.push_back(std::move(c));
    part.rows.push_back(std::move(r));
  }
  report.rows += part.rows.size();
  report.clips += part.clip_count();
  return part;
}

rect clip_extent(const partition::clip& c, std::span<const rect> mbrs) {
  rect r;
  for (const std::uint32_t m : c.members) r = r.join(mbrs[m]);
  return r;
}

check_report group_report::merged() && {
  check_report total = std::move(shared);
  for (check_report& r : per_rule) total.merge_from(std::move(r));
  return total;
}

namespace {

// ---------------------------------------------------------------------------
// The per-object evaluator
// ---------------------------------------------------------------------------

// One plan's per-object part over polygons all in one frame: check_single on
// each polygon, then, with `pairs` and for pair plans, every polygon pair
// among them, candidate-filtered by a local sweep over `mbrs`.
void eval_polys(const exec_plan& p, std::span<const db::polygon_elem* const> polys,
                std::span<const rect> mbrs, bool pairs, std::vector<violation>& out,
                check_report& r) {
  for (const db::polygon_elem* e : polys) p.check_single(*e, out, r.check_stats);
  if (!pairs || p.cls != plan_class::pair || polys.size() < 2) return;
  sweep::overlap_pairs_inflated(
      mbrs, half_distance(p.inflate),
      [&](std::uint32_t i, std::uint32_t j) {
        p.check_pair(polys[i]->poly, mbrs[i], polys[j]->poly, mbrs[j], out, r.check_stats);
      },
      &r.sweep_stats);
}

void place(std::span<const violation> local, const transform& t, check_report& r) {
  for (const violation& lv : local) r.violations.push_back(transformed(lv, t));
}

// Paper §IV-C intra-object reuse, for the `active` member plans of a group on
// one layer: an isometric placement of a whole master replays the
// master-frame result, computed once per master (memo) — on the device for
// width plans in parallel mode. Magnification scales distances and areas, so
// a magnified placement is checked directly in the top frame, except for
// custom and rectilinear plans, whose verdicts it preserves. The split
// polygons of a single-use master are checked in the master frame and
// placed, with check_single only: their polygon pairs are pairs of distinct
// objects, which the clip sweep checks.
class object_evaluator {
 public:
  object_evaluator(const engine_config& cfg, layout_snapshot& snap,
                   std::span<const exec_plan* const> plans, std::span<const std::size_t> active,
                   layer_t layer, device::stream* stream, std::span<check_report> pr)
      : cfg_(cfg),
        snap_(snap),
        plans_(plans),
        active_(active),
        layer_(layer),
        stream_(stream),
        pr_(pr),
        memos_(plans.size()) {}

  // Evaluate the next of a layer's objects in collect order, appending every
  // active plan's violations, in top coordinates, to pr[k] (parallel to the
  // plans). A whole placement runs at once; the consecutive split polygons
  // of one placement (its master occurs once) run as one batch at the next
  // other object or at flush().
  void add(const inst& in) {
    if (!batch_.empty() && (!in.split() || in.master != head_.master)) flush();
    if (!in.split()) {
      run(in, {});
      return;
    }
    if (batch_.empty()) head_ = in;
    batch_.push_back(in.poly_index);
  }

  void flush() {
    if (!batch_.empty()) run(head_, batch_);
    batch_.clear();
  }

 private:
  // Whole placement `in`, or, with `polys` (view-local indices), those split
  // polygons of it only.
  void run(const inst& in, std::span<const std::uint32_t> polys) {
    const db::cell& c = snap_.lib().at(in.master);
    const master_layer_view& v = snap_.views().get(in.master, layer_);
    const bool split = !polys.empty();
    std::vector<const db::polygon_elem*> split_polys;
    split_polys.reserve(polys.size());
    for (const std::uint32_t k : polys) split_polys.push_back(&c.polygons()[v.poly_indices[k]]);
    // Top-frame copies of the polygons, built once for every plan that
    // checks a magnified placement directly.
    std::vector<db::polygon_elem> top;
    std::vector<const db::polygon_elem*> top_ptrs;
    std::vector<rect> top_mbrs;
    for (const std::size_t k : active_) {
      const exec_plan& p = *plans_[k];
      if (!in.t.is_isometry() && p.rule.kind != checks::rule_kind::custom &&
          p.rule.kind != checks::rule_kind::rectilinear) {
        auto t = pr_[k].phases.measure(phase::edge_check);
        if (top.empty()) {
          const auto copy = [&](const db::polygon_elem& e) {
            top.push_back({e.layer, e.datatype, e.poly.transformed(in.t), {}});
            top_mbrs.push_back(top.back().poly.mbr());
          };
          if (split) {
            for (const db::polygon_elem* e : split_polys) copy(*e);
          } else {
            for (const std::uint32_t pi : v.poly_indices) copy(c.polygons()[pi]);
          }
          for (const db::polygon_elem& e : top) top_ptrs.push_back(&e);
        }
        eval_polys(p, top_ptrs, top_mbrs, !split, pr_[k].violations, pr_[k]);
        continue;
      }
      if (split) {
        auto t = pr_[k].phases.measure(phase::edge_check);
        std::vector<violation> local;
        eval_polys(p, split_polys, {}, false, local, pr_[k]);
        place(local, in.t, pr_[k]);
        continue;
      }
      const std::vector<violation>* local =
          cfg_.enable_memoization ? memos_[k].find(in.master) : nullptr;
      if (local) {
        ++pr_[k].prune.intra_reused;
      } else {
        ++pr_[k].prune.intra_computed;
        auto t = pr_[k].phases.measure(phase::edge_check);
        std::vector<violation> computed = master_result(p, c, v, in.master, pr_[k]);
        if (!cfg_.enable_memoization) {
          place(computed, in.t, pr_[k]);
          continue;
        }
        local = &memos_[k].store(in.master, std::move(computed));
      }
      place(*local, in.t, pr_[k]);
    }
  }

  // One plan's violations on a whole master, in its own frame. The device
  // width kernel reads the master's packed edges straight from the snapshot
  // cache (poly ids are view-local indices, group 0).
  std::vector<violation> master_result(const exec_plan& p, const db::cell& c,
                                       const master_layer_view& v, cell_id master,
                                       check_report& r) {
    std::vector<violation> out;
    if (stream_ && p.rule.kind == checks::rule_kind::width) {
      const sweep::device_check_config dcfg{sweep::pair_check::width, p.rule.distance, layer_,
                                            layer_, sweep::sweep_axis::y};
      sweep::device_check_edges_with(*stream_, snap_.packed(master, layer_).edges, dcfg,
                                     cfg_.executor, out, r.device_stats, cfg_.brute_threshold);
      return out;
    }
    std::vector<const db::polygon_elem*> polys;
    polys.reserve(v.poly_indices.size());
    for (const std::uint32_t pi : v.poly_indices) polys.push_back(&c.polygons()[pi]);
    eval_polys(p, polys, v.poly_mbrs, true, out, r);
    return out;
  }

  const engine_config& cfg_;
  layout_snapshot& snap_;
  std::span<const exec_plan* const> plans_;
  std::span<const std::size_t> active_;
  layer_t layer_;
  device::stream* stream_;  ///< parallel mode: width plans run on the device
  std::span<check_report> pr_;
  std::vector<intra_memo> memos_;
  inst head_;                          ///< the pending batch's placement
  std::vector<std::uint32_t> batch_;  ///< its split polygons so far
};

// The polygons of one check object, or of a master, in one frame, with their
// MBRs there: read in place from the master's storage when the frame is the
// master's own, else from copies placed into a placed_polys buffer.
struct object_polys {
  std::span<const db::polygon_elem> elems;  ///< the master's polygons
  std::span<const std::uint32_t> idx;       ///< into elems, parallel to mbrs
  const polygon* placed = nullptr;          ///< or placed copies, parallel to mbrs
  std::span<const rect> mbrs;

  [[nodiscard]] std::size_t size() const { return mbrs.size(); }
  [[nodiscard]] const polygon& operator[](std::size_t k) const {
    return placed ? placed[k] : elems[idx[k]].poly;
  }
};

// A master's layer polygons as (view-local indices, master-frame MBRs):
// every one, or the one of a split object (`poly_index`).
std::pair<std::span<const std::uint32_t>, std::span<const rect>> object_range(
    const master_layer_view& v, std::uint32_t poly_index = whole_cell) {
  const std::span<const std::uint32_t> idx(v.poly_indices.data(), v.poly_indices.size());
  const std::span<const rect> mbrs(v.poly_mbrs.data(), v.poly_mbrs.size());
  if (poly_index == whole_cell) return {idx, mbrs};
  return {idx.subspan(poly_index, 1), mbrs.subspan(poly_index, 1)};
}

// Polygons placed into one frame, appended; reused across objects.
class placed_polys {
 public:
  // Polygons `idx` of `c` (master-frame MBRs `mbrs`) in the frame `t`: in
  // place when `t` is the identity, else placed here. A placed view stays
  // valid until the next place() or clear().
  object_polys place(const db::cell& c, std::span<const std::uint32_t> idx,
                     std::span<const rect> mbrs, const transform& t) {
    if (t.is_identity()) return {c.polygons(), idx, nullptr, mbrs};
    const std::size_t first = append(c, idx, mbrs, t);
    return view(first, idx.size());
  }

  // Append the placed copies; returns the offset of the first.
  std::size_t append(const db::cell& c, std::span<const std::uint32_t> idx,
                     std::span<const rect> mbrs, const transform& t) {
    const std::size_t first = polys_.size();
    for (std::size_t k = 0; k < idx.size(); ++k) {
      polys_.push_back(c.polygons()[idx[k]].poly.transformed(t));
      mbrs_.push_back(t.apply(mbrs[k]));
    }
    return first;
  }

  [[nodiscard]] object_polys view(std::size_t first, std::size_t n) const {
    return {{}, {}, polys_.data() + first, std::span(mbrs_).subspan(first, n)};
  }

  void clear() {
    polys_.clear();
    mbrs_.clear();
  }

 private:
  std::vector<polygon> polys_;
  std::vector<rect> mbrs_;
};

// Top-frame polygons of a group's check objects, each resolved at most once
// until clear(): an identity-frame object (every split top-cell polygon)
// reads its master's storage in place, any other is placed once.
class object_geometry {
 public:
  // Candidate pairs pair an object of `a` (on layer `la`) with one of `b`
  // (on `lb`); `b` is `a` itself for a one-layer group.
  object_geometry(const db::library& lib, view_cache& views, std::span<const inst> a, layer_t la,
                  std::span<const inst> b, layer_t lb)
      : lib_(lib), views_(views), a_(a), b_(b), la_(la), lb_(lb),
        b_first_(a.data() == b.data() ? 0 : a.size()) {}

  // The top-frame polygons of a[ia] and b[ib].
  std::pair<object_polys, object_polys> pair(std::uint32_t ia, std::uint32_t ib) {
    if (slot_.empty()) slot_.assign(b_first_ + b_.size(), none);
    const std::size_t sa = resolve(ia, a_[ia], la_);
    const std::size_t sb = resolve(b_first_ + ib, b_[ib], lb_);
    return {get(sa), get(sb)};
  }

  void clear() {
    for (const entry& e : entries_) slot_[e.id] = none;
    entries_.clear();
    buf_.clear();
  }

 private:
  static constexpr std::uint32_t none = 0xFFFFFFFFu;
  struct entry {
    std::size_t id;
    object_polys in_place;         ///< identity frame
    std::size_t first = 0, n = 0;  ///< other frames: the copies in buf_
  };

  // The entry of object `id`, made on first use.
  std::size_t resolve(std::size_t id, const inst& in, layer_t layer) {
    if (slot_[id] != none) return slot_[id];
    slot_[id] = static_cast<std::uint32_t>(entries_.size());
    const db::cell& c = lib_.at(in.master);
    const auto [idx, mbrs] = object_range(views_.get(in.master, layer), in.poly_index);
    if (in.t.is_identity()) {
      entries_.push_back({id, {c.polygons(), idx, nullptr, mbrs}});
    } else {
      entries_.push_back({id, {}, buf_.append(c, idx, mbrs, in.t), idx.size()});
    }
    return slot_[id];
  }

  [[nodiscard]] object_polys get(std::size_t slot) const {
    const entry& e = entries_[slot];
    return e.n ? buf_.view(e.first, e.n) : e.in_place;
  }

  const db::library& lib_;
  view_cache& views_;
  std::span<const inst> a_, b_;
  layer_t la_, lb_;
  std::size_t b_first_;              ///< id of b[0]: objects of a, then of b
  std::vector<std::uint32_t> slot_;  ///< per id: its entry, or none
  std::vector<entry> entries_;
  placed_polys buf_;
};

// One plan's pair predicate over every polygon pair of two objects in one
// frame.
void check_pairs(const exec_plan& p, const object_polys& pa, const object_polys& pb,
                 std::vector<violation>& out, checks::check_stats& cs) {
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t j = 0; j < pb.size(); ++j) {
      p.check_pair(pa[i], pa.mbrs[i], pb[j], pb.mbrs[j], out, cs);
    }
  }
}

// Set `flags[i]` (one per polygon of `pa`) when pa's polygon i lies inside
// some polygon of `pb`; both in one frame.
void mark_inside(const object_polys& pa, const object_polys& pb, std::span<std::uint8_t> flags,
                 checks::check_stats& cs) {
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t j = 0; j < pb.size() && !flags[i]; ++j) {
      if (checks::polygon_inside(pa[i], pa.mbrs[i], pb[j], pb.mbrs[j], cs)) flags[i] = 1;
    }
  }
}

}  // namespace

group_report run_group(const engine_config& cfg, stream_pool& streams, layout_snapshot& snap,
                       std::span<const exec_plan> plans, const plan_group& g,
                       const std::optional<geo::region>& window) {
  std::vector<const exec_plan*> mp;
  for (const std::size_t i : g.members) mp.push_back(&plans[i]);
  const std::size_t nplans = mp.size();
  // The members' roles (member indices): distance members sweep candidate
  // pairs per clip, whole-clip members evaluate each clip's shape set,
  // containment members report uncontained inner polygons, and members with
  // a per-object part run on every object — in parallel mode intra members
  // only, as the row kernel sees spacing notches and same-object pairs.
  const bool seq = cfg.run_mode == mode::sequential;
  std::vector<std::size_t> dist, whole, contain, objs;
  for (std::size_t k = 0; k < nplans; ++k) {
    const exec_plan& p = *mp[k];
    if (p.cls == plan_class::pair) (p.whole_clip ? whole : dist).push_back(k);
    if (p.track_containment) contain.push_back(k);
    if (p.cls == plan_class::intra || (seq && p.rule.kind == checks::rule_kind::spacing)) {
      objs.push_back(k);
    }
  }
  const bool partitions = !dist.empty() || !whole.empty();
  trace::span ts("engine", partitions ? "run_pair_group" : "run_intra_plan", "layer1", g.layer1,
                 "layer2", g.layer2);
  group_report out;
  out.per_rule.resize(nplans);
  check_report& shared = out.shared;
  const std::span<check_report> pr = out.per_rule;
  const db::library& lib = snap.lib();
  view_cache& views = snap.views();

  struct top_objects {
    std::vector<inst> a_insts, b_insts;
    std::vector<rect> mbrs;  ///< a_insts' MBRs, then b_insts'
    partition::partition_result part;
  };
  const std::vector<layer_t> layers =
      g.layer1 == rules::any_layer ? snap.index().layers() : std::vector<layer_t>{g.layer1};
  if (window) out.scope = *window;
  const auto in_scope = [&](const rect& r) { return !window || out.scope.overlaps(r); };
  // Parallel mode runs width plans on the device, one kernel per master.
  const bool device = !seq && std::ranges::any_of(objs, [&](std::size_t k) {
    return mp[k]->rule.kind == checks::rule_kind::width;
  });
  device::stream* stream = device ? &streams.get() : nullptr;

  // An any_layer group (SHAPES) runs layer by layer. A group that partitions
  // reads one layer set, so its loop body runs once.
  for (const layer_t layer : layers) {
    // The memos cache master-frame results of ONE layer; a master can carry
    // several layers, so each layer gets its own evaluator.
    object_evaluator eval(cfg, snap, mp, objs, layer, stream, pr);
    if (!partitions) {
      // No member partitions, so no object is kept: each goes to the
      // per-object pass (step 3) as it is collected by the window.
      for (const cell_id top : lib.top_cells()) {
        for_each_object(
            snap, top, layer, window,
            [&](const inst& in) {
              ++shared.instances;
              eval.add(in);
            },
            /*memo_mbrs=*/false);
        eval.flush();
      }
      continue;
    }

    // 1. Collect every top cell's objects and partition them, before any is
    // evaluated: a whole-clip scope joins clips of every top. With a window,
    // a group with a whole-clip member collects every object: a derived
    // region or conflict component whose violation edges touch the window
    // need not have a shape near it (an L-shaped region wrapping a window
    // corner). Otherwise it has a distance member and collects around the
    // window's reach, per rect: the rect joined with every object
    // overlapping it. A violation touching the rect has an edge on such an
    // object, and its partner lies within the interaction distance of that
    // object, not necessarily of the rect (a long edge crosses the rect far
    // from where it violates).
    std::vector<top_objects> tops;
    for (const cell_id top : lib.top_cells()) {
      std::optional<geo::region> reach;  // stays empty: collect every object
      if (window && whole.empty()) {
        std::vector<rect> r(window->rects().begin(), window->rects().end());
        const auto reach_over = [&](layer_t l) {
          for_each_object(snap, top, l, window, [&](const inst& in) {
            window->for_each_overlapping(in.mbr,
                                         [&](std::uint32_t i) { r[i] = r[i].join(in.mbr); });
          });
        };
        reach_over(layer);
        if (g.two_layer) reach_over(g.layer2);
        for (rect& x : r) x = x.inflated(g.inflate);
        reach.emplace(std::move(r));
      }
      top_objects t{collect_instances(snap, top, layer, reach), {}, {}, {}};
      if (g.two_layer) t.b_insts = collect_instances(snap, top, g.layer2, reach);
      shared.instances += t.a_insts.size() + t.b_insts.size();
      if (t.a_insts.empty()) continue;
      t.mbrs.reserve(t.a_insts.size() + t.b_insts.size());
      for (const inst& in : t.a_insts) t.mbrs.push_back(in.mbr);
      for (const inst& in : t.b_insts) t.mbrs.push_back(in.mbr);
      t.part = partition_instances(cfg, t.mbrs, g.inflate, shared);
      tops.push_back(std::move(t));
    }

    // 2. The scope every member shares: the window, closed over the extent
    // of every clip overlapping one of its rects when a member is
    // whole-clip.
    if (window && !whole.empty()) {
      std::vector<rect> scope(window->rects().begin(), window->rects().end());
      for (const top_objects& t : tops) {
        for (const partition::row& row : t.part.rows) {
          for (const partition::clip& c : row.clips) {
            const rect ext = clip_extent(c, t.mbrs);
            if (window->overlaps(ext)) scope.push_back(ext);
          }
        }
      }
      out.scope = geo::region(std::move(scope));
    }

    // 3. The per-object pass over the layer1 objects overlapping the scope.
    for (const top_objects& t : tops) {
      if (objs.empty()) break;
      for (const inst& in : t.a_insts) {
        if (in_scope(in.mbr)) eval.add(in);
      }
      eval.flush();
    }

    // 4. The clips overlapping the scope (every clip of a full run). A
    // violation touching the scope has an edge on an object overlapping it,
    // and its partner lies within the group's inflate, so both share one clip,
    // whose extent contains that object.
    std::vector<pair_memo<std::vector<violation>>> memos(nplans);
    // Containment flags per pair_key (plan-independent: one memo per group).
    pair_memo<std::vector<std::uint8_t>> contain_memo;
    // Whole-clip results per clip content, one entry per whole-clip member.
    clip_memo whole_clips;
    const layer_t lb = g.two_layer ? g.layer2 : g.layer1;

    for (const auto& [a_insts, b_insts, mbrs, part] : tops) {
      const std::size_t ni = a_insts.size();
      std::vector<std::vector<const partition::clip*>> rows(part.rows.size());
      for (std::size_t ri = 0; ri < part.rows.size(); ++ri) {
        for (const partition::clip& c : part.rows[ri].clips) {
          if (!window || out.scope.overlaps(clip_extent(c, mbrs))) rows[ri].push_back(&c);
        }
      }

      // Containment flags per inner polygon, ORed across candidate pairs; inner
      // object i owns contained[first[i], first[i + 1]). The flags are
      // plan-independent (containment is pure geometry, no distance), so one
      // array serves every containment member. Only the inner object's own
      // clip writes its flags (the partition puts every object in exactly one
      // clip).
      std::vector<std::size_t> first;
      std::vector<std::uint8_t> contained;
      if (!contain.empty()) {
        first.assign(ni + 1, 0);
        for (std::size_t i = 0; i < ni; ++i) {
          const inst& in = a_insts[i];
          const std::size_t n = in.split() ? 1 : views.get(in.master, g.layer1).poly_indices.size();
          first[i + 1] = first[i] + n;
        }
        contained.assign(first[ni], 0);
      }
      auto flags_of = [&](std::size_t i) {
        return std::span(contained).subspan(first[i], first[i + 1] - first[i]);
      };

      if (!seq && !dist.empty()) {
        // Row pipeline (Section V-C): the driver packs row ri while up to
        // pipeline_depth earlier rows run, each on its own stream. One upload
        // per row of its evaluated clips; the multi-config kernel evaluates
        // every distance member's predicate per candidate pair.
        const std::size_t depth = std::max<std::size_t>(1, cfg.pipeline_depth);
        std::vector<sweep::device_check_config> cfgs;
        std::vector<std::vector<violation>*> outs;
        for (const std::size_t k : dist) {
          cfgs.push_back(mp[k]->device_config(sweep::sweep_axis::x));
          outs.push_back(&pr[k].violations);
        }

        auto pack_row = [&](std::span<const partition::clip* const> clips, std::size_t ri) {
          auto t = shared.phases.measure(phase::pack);
          trace::span pts("pipeline", "pack", "row", static_cast<std::int64_t>(ri));
          std::vector<sweep::packed_edge> edges;
          std::uint32_t poly_id = 0;
          for (const partition::clip* c : clips) {
            for (const std::uint32_t m : c->members) {
              const bool primary = m < ni;
              const inst& in = primary ? a_insts[m] : b_insts[m - ni];
              const std::uint16_t group = primary ? 0 : 1;
              const packed_master_edges& pm = snap.packed(in.master, primary ? g.layer1 : lb);
              if (in.split()) {
                append_packed_polygon(pm, in.poly_index, in.t, poly_id++, group, edges);
              } else {
                append_packed_instance(pm, in.t, poly_id, group, edges);
                poly_id += static_cast<std::uint32_t>(pm.poly_count());
              }
            }
          }
          return edges;
        };

        std::deque<sweep::async_multi_check> in_flight;
        std::size_t submitted = 0, drained = 0;
        auto drain_oldest = [&] {
          auto t = shared.phases.measure(phase::device);
          trace::span dts("pipeline", "device_wait", "row", static_cast<std::int64_t>(drained++));
          in_flight.front().finish(outs, shared.device_stats);
          in_flight.pop_front();
        };
        for (std::size_t ri = 0; ri < rows.size(); ++ri) {
          if (rows[ri].empty()) continue;
          std::vector<sweep::packed_edge> edges = pack_row(rows[ri], ri);
          // Stream s % depth is free once the row it last ran is drained.
          if (in_flight.size() >= depth) drain_oldest();
          in_flight.emplace_back(streams.get(submitted++ % depth), std::move(edges), cfgs,
                                 cfg.executor, cfg.brute_threshold);
        }
        while (!in_flight.empty()) drain_oldest();
      }

      // Host work over the clips: the sequential branch's checks, parallel
      // mode's containment, and whole-clip members in both modes.

      // Candidate object pairs of one clip from the sweepline (Fig. 3), as
      // (a_insts index, index of the other object: b_insts for two-layer
      // groups, a_insts otherwise). Both modes enumerate them the same way.
      auto clip_pairs = [&](const partition::clip& clip, sweep::sweep_stats& ss) {
        std::vector<object_pair> pairs;
        std::vector<rect> clip_mbrs(clip.members.size());
        for (std::size_t k = 0; k < clip.members.size(); ++k) clip_mbrs[k] = mbrs[clip.members[k]];
        sweep::overlap_pairs_inflated(
            clip_mbrs, half_distance(g.inflate),
            [&](std::uint32_t i, std::uint32_t j) {
              const std::uint32_t gi = clip.members[i];
              const std::uint32_t gj = clip.members[j];
              if (!g.two_layer) {
                pairs.emplace_back(gi, gj);
                return;
              }
              const bool i_inner = gi < ni;
              const bool j_inner = gj < ni;
              if (i_inner && !j_inner) {
                pairs.emplace_back(gi, gj - static_cast<std::uint32_t>(ni));
              } else if (!i_inner && j_inner) {
                pairs.emplace_back(gj, gi - static_cast<std::uint32_t>(ni));
              }
            },
            &ss);
        return pairs;
      };

      // Candidate pairs of two whole isometric placements (memoization on)
      // evaluate once per relative placement of B in A's frame, the memo
      // key, in A's master frame; transform::inverse requires mag == 1, and
      // magnified geometry scales the distances the memo caches. A memo miss
      // reads A in place and places B once. Every other pair (split
      // objects, magnification, memoization off) evaluates in top
      // coordinates on the geometry of its clip's objects.
      const auto memoized = [&](const inst& a, const inst& b) {
        return !a.split() && !b.split() && cfg.enable_memoization && a.t.is_isometry() &&
               b.t.is_isometry();
      };
      const auto key_of = [](const inst& a, const inst& b) {
        return pair_key{a.master, b.master, a.t.inverse().compose(b.t)};
      };
      placed_polys rel_buf;
      const auto master_pair = [&](const pair_key& key) {
        const auto [ia, ma] = object_range(views.get(key.a, g.layer1));
        const auto [ib, mb] = object_range(views.get(key.b, lb));
        rel_buf.clear();
        return std::pair{object_polys{lib.at(key.a).polygons(), ia, nullptr, ma},
                         rel_buf.place(lib.at(key.b), ib, mb, key.rel)};
      };
      const std::span<const inst> others = g.two_layer ? b_insts : a_insts;
      object_geometry objects(lib, views, a_insts, g.layer1, others, lb);

      const std::span<const std::size_t> edge_members =
          seq ? std::span<const std::size_t>(dist) : std::span<const std::size_t>{};

      // One distance member's predicate over a clip's candidate pairs
      // (sequential mode only; in parallel mode the device already did).
      // True iff it evaluated the predicate, not only replayed results.
      auto member_pairs = [&](std::size_t k, std::span<const object_pair> pairs) {
        const exec_plan& p = *mp[k];
        check_report& r = pr[k];
        const std::size_t computed_before = r.prune.pairs_computed;
        for (const auto& [ia, ib] : pairs) {
          const inst& a = a_insts[ia];
          const inst& b = others[ib];
          if (!memoized(a, b)) {
            ++r.prune.pairs_computed;
            const auto [pa, pb] = objects.pair(ia, ib);
            check_pairs(p, pa, pb, r.violations, r.check_stats);
            continue;
          }
          const pair_key key = key_of(a, b);
          const std::vector<violation>* res = memos[k].find(key);
          if (res) {
            ++r.prune.pairs_reused;
          } else {
            ++r.prune.pairs_computed;
            std::vector<violation> computed;
            const auto [pa, pb] = master_pair(key);
            check_pairs(p, pa, pb, computed, r.check_stats);
            res = &memos[k].store(key, std::move(computed));
          }
          for (const violation& lv : *res) r.violations.push_back(transformed(lv, a.t));
        }
        return r.prune.pairs_computed != computed_before;
      };

      // The containment of each inner object's polygons by the other
      // objects of its clip's candidate pairs, computed once per pair and
      // only while the inner object has an uncontained polygon. True iff it
      // tested containment, not only replayed results.
      auto contain_pairs = [&](std::span<const object_pair> pairs) {
        bool tested = false;
        for (const auto& [ia, ib] : pairs) {
          const std::span<std::uint8_t> flags = flags_of(ia);
          if (std::ranges::find(flags, 0) == flags.end()) continue;
          const inst& a = a_insts[ia];
          const inst& b = others[ib];
          if (!memoized(a, b)) {
            tested = true;
            const auto [pa, pb] = objects.pair(ia, ib);
            mark_inside(pa, pb, flags, shared.check_stats);
            continue;
          }
          const pair_key key = key_of(a, b);
          const std::vector<std::uint8_t>* res = contain_memo.find(key);
          if (!res) {
            tested = true;
            std::vector<std::uint8_t> computed(flags.size(), 0);
            const auto [pa, pb] = master_pair(key);
            mark_inside(pa, pb, computed, shared.check_stats);
            res = &contain_memo.store(key, std::move(computed));
          }
          for (std::size_t q = 0; q < flags.size(); ++q) flags[q] |= (*res)[q];
        }
        return tested;
      };

      // Whole-clip members: each one's shape-set predicate over the clip's
      // shapes in top coordinates — no candidate sweep, no device. A clip
      // whose content (clip_key) an earlier clip already evaluated is an exact
      // translation of it and replays that result, stored in the anchor frame
      // (the clip extent's lower-left corner at the origin).
      auto run_whole_clip = [&](const partition::clip& clip) {
        const rect ext = clip_extent(clip, mbrs);
        const point anchor{ext.x_min, ext.y_min};
        clip_key key;
        if (cfg.enable_memoization) {
          key.reserve(clip.members.size());
          for (const std::uint32_t m : clip.members) {
            const bool primary = m < ni;
            const inst& in = primary ? a_insts[m] : b_insts[m - ni];
            transform rel = in.t;
            rel.offset = rel.offset - anchor;
            key.push_back({!primary, in.master, in.poly_index, rel});
          }
          std::ranges::sort(key);
          if (const clip_memo::value* res = whole_clips.find(key)) {
            ++shared.prune.clips_reused;
            for (std::size_t w = 0; w < whole.size(); ++w) {
              place((*res)[w], transform{anchor}, pr[whole[w]]);
            }
            return;
          }
        }
        ++shared.prune.clips_computed;
        trace::span cts("pipeline", "clip", "members",
                        static_cast<std::int64_t>(clip.members.size()));
        std::vector<polygon> a, b;
        for (const std::uint32_t m : clip.members) {
          const bool primary = m < ni;
          const inst& in = primary ? a_insts[m] : b_insts[m - ni];
          const db::cell& c = lib.at(in.master);
          std::vector<polygon>& dst = primary ? a : b;
          for (const std::uint32_t pi :
               object_range(views.get(in.master, primary ? g.layer1 : lb), in.poly_index).first) {
            const polygon& poly = c.polygons()[pi].poly;
            dst.push_back(in.t.is_identity() ? poly : poly.transformed(in.t));
          }
        }
        clip_memo::value local(cfg.enable_memoization ? whole.size() : 0);
        for (std::size_t w = 0; w < whole.size(); ++w) {
          check_report& r = pr[whole[w]];
          const std::size_t first_new = r.violations.size();
          mp[whole[w]]->check_shapes(a, g.two_layer ? std::span<const polygon>(b) : a, r);
          if (!cfg.enable_memoization) continue;
          for (std::size_t i = first_new; i < r.violations.size(); ++i) {
            local[w].push_back(transformed(r.violations[i], transform{point{} - anchor}));
          }
        }
        if (cfg.enable_memoization) whole_clips.store(std::move(key), std::move(local));
      };

      // Sequential mode: every distance member's predicate, then the
      // containment, over the clip's candidate pairs. Parallel mode: the
      // containment only. One stopwatch per clip splits its time: the
      // sweep, each member's edge_check, the containment (shared
      // edge_check). A pass that only replays memoized results takes no
      // reading, as a replay was never timed: on a memo-heavy group (V1/M1
      // on standard cells) the readings would cost more than the work.
      // Its time falls into the clip's next reading, if any.
      auto sweep_clip = [&](const partition::clip& clip) {
        trace::span cts("pipeline", "clip", "members",
                        static_cast<std::int64_t>(clip.members.size()));
        timer t;
        // Candidate object pairs from the sweepline (Fig. 3).
        std::vector<object_pair> pairs;
        {
          trace::span sts("pipeline", "sweepline", "members",
                          static_cast<std::int64_t>(clip.members.size()));
          pairs = clip_pairs(clip, shared.sweep_stats);
          if (!g.two_layer) {
            shared.prune.pairs_pruned_mbr +=
                clip.members.size() * (clip.members.size() - 1) / 2 - pairs.size();
          }
        }
        shared.phases.add(phase::sweepline, t.lap());
        if (pairs.empty()) return;
        for (const std::size_t k : edge_members) {
          if (member_pairs(k, pairs)) pr[k].phases.add(phase::edge_check, t.lap());
        }
        if (!contain.empty() && contain_pairs(pairs)) {
          shared.phases.add(phase::edge_check, t.lap());
        }
        objects.clear();
      };

      for (const auto& row : rows) {
        for (const partition::clip* c : row) {
          if (!whole.empty()) run_whole_clip(*c);
          if (seq ? !dist.empty() : !contain.empty()) sweep_clip(*c);
        }
      }

      if (!contain.empty()) {
        // Report the inner polygons of evaluated clips contained by nothing,
        // once per containment member.
        auto t = shared.phases.measure(phase::edge_check);
        for (const auto& row : rows) {
          for (const partition::clip* c : row) {
            for (const std::uint32_t i : c->members) {
              if (i >= ni) continue;
              const std::span<const std::uint8_t> flags = flags_of(i);
              if (std::ranges::find(flags, 0) == flags.end()) continue;
              const inst& in = a_insts[i];
              const std::span<const rect> pm =
                  object_range(views.get(in.master, g.layer1), in.poly_index).second;
              for (std::size_t q = 0; q < pm.size(); ++q) {
                if (flags[q]) continue;
                for (const std::size_t k : contain) {
                  checks::report_uncontained(in.t.apply(pm[q]), g.layer1, g.layer2,
                                             pr[k].violations);
                }
              }
            }
          }
        }
      }
    }
  }
  if (!whole.empty()) {
    const auto computed = static_cast<std::int64_t>(shared.prune.clips_computed);
    const auto reused = static_cast<std::int64_t>(shared.prune.clips_reused);
    ts.set_end_args("clips", computed + reused, "reused", reused);
    trace::instant("prune", "clips_computed", "delta", computed);
    trace::instant("prune", "clips_reused", "delta", reused);
  }
  return out;
}

}  // namespace odrc::engine
