#include "engine/pipeline.hpp"

#include <algorithm>
#include <deque>

#include "infra/trace.hpp"

namespace odrc::engine {

namespace {

using checks::violation;
using db::cell_id;
using db::layer_t;

// Whether placement `pc` of a (top, layer) is split into polygon objects: a
// single-use master with many polygons on the layer.
bool splits(const instance_set& set, const db::placed_cell& pc, view_cache& views,
            layer_t layer) {
  return set.occurrences(pc.master) == 1 &&
         views.get(pc.master, layer).poly_indices.size() > split_poly_threshold;
}

}  // namespace

std::vector<inst> collect_instances(layout_snapshot& snap, cell_id top, layer_t layer,
                                    const std::optional<geo::region>& window, coord_t inflate) {
  const instance_set& set = snap.instances(top, layer);
  const std::span<const rect> mbrs = snap.placed_mbrs(top, layer);
  view_cache& views = snap.views();

  // The pruning halo is loop-invariant; inflating inside the per-instance
  // and per-polygon loops recomputed it for every MBR test.
  std::optional<geo::region> grown;
  if (window && inflate != 0) grown = window->inflated(inflate);
  const geo::region* halo = grown ? &*grown : window ? &*window : nullptr;

  std::vector<inst> out;
  for (std::size_t i = 0; i < set.placed.size(); ++i) {
    const rect& cell_mbr = mbrs[i];
    if (cell_mbr.empty() || (halo && !halo->overlaps(cell_mbr))) continue;
    const db::placed_cell& pc = set.placed[i];
    if (!splits(set, pc, views, layer)) {
      out.push_back({pc.master, whole_cell, pc.to_top, cell_mbr});
      continue;
    }
    const master_layer_view& v = views.get(pc.master, layer);
    for (std::uint32_t k = 0; k < v.poly_indices.size(); ++k) {
      const rect pm = pc.to_top.apply(v.poly_mbrs[k]);
      if (halo && !halo->overlaps(pm)) continue;
      out.push_back({pc.master, k, pc.to_top, pm});
    }
  }
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

poly_set transformed_polys(const db::cell& c, const master_layer_view& v, const transform& t) {
  poly_set ps;
  ps.polys.reserve(v.poly_indices.size());
  ps.mbrs.reserve(v.poly_indices.size());
  for (std::uint32_t pi : v.poly_indices) {
    ps.polys.push_back(t.is_identity() ? c.polygons()[pi].poly
                                       : c.polygons()[pi].poly.transformed(t));
    ps.mbrs.push_back(ps.polys.back().mbr());
  }
  return ps;
}

poly_set polys_of(const db::library& lib, view_cache& views, const inst& in, db::layer_t layer,
                  const transform& extra) {
  const db::cell& c = lib.at(in.master);
  const master_layer_view& v = views.get(in.master, layer);
  const transform t = extra.compose(in.t);
  if (!in.split()) return transformed_polys(c, v, t);
  poly_set ps;
  const std::uint32_t pi = v.poly_indices[in.poly_index];
  ps.polys.push_back(t.is_identity() ? c.polygons()[pi].poly
                                     : c.polygons()[pi].poly.transformed(t));
  ps.mbrs.push_back(ps.polys.back().mbr());
  return ps;
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

// One plan's per-object part over an object's polygons, all in one frame:
// check_single on each polygon, then — pair plans — every polygon pair of the
// object, candidate-filtered by a local sweep.
void eval_polys(const exec_plan& p, std::span<const db::polygon_elem* const> polys,
                std::span<const rect> mbrs, std::vector<violation>& out, check_report& r) {
  for (const db::polygon_elem* e : polys) p.check_single(*e, out, r.check_stats);
  if (p.cls != plan_class::pair || polys.size() < 2) return;
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

// Paper §IV-C intra-object reuse, for every member plan of a group on one
// layer: an isometric placement of a whole master replays the master-frame
// result, computed once per master (memo) — on the device for width plans in
// parallel mode. Magnification scales distances and areas, so a magnified
// placement is checked directly in the top frame, except for custom and
// rectilinear plans, whose verdicts it preserves. A split object (one polygon
// of a single-use master) is checked in the master frame and placed.
class object_evaluator {
 public:
  object_evaluator(const engine_config& cfg, layout_snapshot& snap,
                   std::span<const exec_plan* const> plans, layer_t layer,
                   device::stream* stream)
      : cfg_(cfg),
        snap_(snap),
        plans_(plans),
        layer_(layer),
        stream_(stream),
        memos_(plans.size()) {}

  // Append every plan's violations on object `in`, in top coordinates, to
  // pr[k] (parallel to the plans).
  void run(const inst& in, std::span<check_report> pr) {
    if (in.split()) {
      run({in.master, whole_cell, in.t, in.mbr}, std::span(&in.poly_index, 1), pr);
    } else {
      run(in, {}, pr);
    }
  }

  // Same for whole placement `in`, or, with `polys` (view-local indices),
  // for those polygons of it only: split polygons, evaluated as one batch.
  void run(const inst& in, std::span<const std::uint32_t> polys, std::span<check_report> pr) {
    const db::cell& c = snap_.lib().at(in.master);
    const master_layer_view& v = snap_.views().get(in.master, layer_);
    const bool split = !polys.empty();
    // The split polygons and their master-frame MBRs; the span views avoid
    // an allocation for a single polygon.
    const db::polygon_elem* one = nullptr;
    std::vector<const db::polygon_elem*> batch;
    std::vector<rect> batch_mbrs;
    std::span<const db::polygon_elem* const> split_polys;
    std::span<const rect> split_mbrs;
    if (polys.size() == 1) {
      one = &c.polygons()[v.poly_indices[polys[0]]];
      split_polys = std::span(&one, 1);
      split_mbrs = std::span(&v.poly_mbrs[polys[0]], 1);
    } else {
      for (const std::uint32_t k : polys) {
        batch.push_back(&c.polygons()[v.poly_indices[k]]);
        batch_mbrs.push_back(v.poly_mbrs[k]);
      }
      split_polys = batch;
      split_mbrs = batch_mbrs;
    }
    // Top-frame copies of the polygons, built once for every plan that
    // checks a magnified placement directly.
    std::vector<db::polygon_elem> top;
    std::vector<const db::polygon_elem*> top_ptrs;
    std::vector<rect> top_mbrs;
    for (std::size_t k = 0; k < plans_.size(); ++k) {
      const exec_plan& p = *plans_[k];
      if (!in.t.is_isometry() && p.rule.kind != checks::rule_kind::custom &&
          p.rule.kind != checks::rule_kind::rectilinear) {
        auto t = pr[k].phases.measure(phase::edge_check);
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
        eval_polys(p, top_ptrs, top_mbrs, pr[k].violations, pr[k]);
        continue;
      }
      if (split) {
        auto t = pr[k].phases.measure(phase::edge_check);
        std::vector<violation> local;
        eval_polys(p, split_polys, split_mbrs, local, pr[k]);
        place(local, in.t, pr[k]);
        continue;
      }
      const std::vector<violation>* local =
          cfg_.enable_memoization ? memos_[k].find(in.master) : nullptr;
      if (local) {
        ++pr[k].prune.intra_reused;
      } else {
        ++pr[k].prune.intra_computed;
        auto t = pr[k].phases.measure(phase::edge_check);
        std::vector<violation> computed = master_result(p, c, v, in.master, pr[k]);
        if (!cfg_.enable_memoization) {
          place(computed, in.t, pr[k]);
          continue;
        }
        local = &memos_[k].store(in.master, std::move(computed));
      }
      place(*local, in.t, pr[k]);
    }
  }

 private:
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
    eval_polys(p, polys, v.poly_mbrs, out, r);
    return out;
  }

  const engine_config& cfg_;
  layout_snapshot& snap_;
  std::span<const exec_plan* const> plans_;
  layer_t layer_;
  device::stream* stream_;  ///< parallel mode: width plans run on the device
  std::vector<intra_memo> memos_;
};

std::vector<const exec_plan*> member_plans(std::span<const exec_plan> plans,
                                           const plan_group& g) {
  std::vector<const exec_plan*> mp;
  for (const std::size_t i : g.members) mp.push_back(&plans[i]);
  return mp;
}

// ---------------------------------------------------------------------------
// Intra groups
// ---------------------------------------------------------------------------

// Walk the group's layer (every populated layer for any_layer) once and run
// the per-object evaluator on each object. A full run evaluates whole placed
// cells only: splitting would launch one parallel-mode width kernel per
// polygon. A windowed run examines the objects collect_instances would
// return, so a window touching the top evaluates only the top's polygons
// near it.
group_report run_intra_group(const engine_config& cfg, stream_pool& streams,
                             layout_snapshot& snap, std::span<const exec_plan> plans,
                             const plan_group& g, const std::optional<geo::region>& window) {
  trace::span ts("engine", "run_intra_plan", "layer", g.layer1, "rules",
                 static_cast<std::int64_t>(g.members.size()));
  group_report out;
  out.per_rule.resize(g.members.size());
  if (window) out.scope = *window;
  const std::vector<const exec_plan*> mp = member_plans(plans, g);
  // Parallel mode runs width plans on the device, one kernel per master.
  const bool device = cfg.run_mode == mode::parallel &&
                      std::ranges::any_of(mp, [](const exec_plan* p) {
                        return p->rule.kind == checks::rule_kind::width;
                      });
  device::stream* stream = device ? &streams.get() : nullptr;
  const std::vector<layer_t> layers =
      g.layer1 == rules::any_layer ? snap.index().layers() : std::vector<layer_t>{g.layer1};
  for (const layer_t layer : layers) {
    // The memos cache master-frame results of ONE layer; a master can carry
    // several layers, so each layer gets its own evaluator.
    object_evaluator eval(cfg, snap, mp, layer, stream);
    for (const cell_id top : snap.lib().top_cells()) {
      if (window) {
        // collect_instances' objects, without an inst per split polygon: a
        // split placement's polygons near the window are one batch.
        const instance_set& set = snap.instances(top, layer);
        const std::span<const rect> mbrs = snap.placed_mbrs(top, layer);
        std::vector<std::uint32_t> near;
        for (std::size_t i = 0; i < set.placed.size(); ++i) {
          if (mbrs[i].empty() || !window->overlaps(mbrs[i])) continue;
          const db::placed_cell& pc = set.placed[i];
          const inst in{pc.master, whole_cell, pc.to_top, mbrs[i]};
          if (!splits(set, pc, snap.views(), layer)) {
            ++out.shared.instances;
            eval.run(in, out.per_rule);
            continue;
          }
          const master_layer_view& v = snap.views().get(pc.master, layer);
          near.clear();
          for (std::uint32_t k = 0; k < v.poly_indices.size(); ++k) {
            if (window->overlaps(pc.to_top.apply(v.poly_mbrs[k]))) near.push_back(k);
          }
          out.shared.instances += near.size();
          if (!near.empty()) eval.run(in, near, out.per_rule);
        }
        continue;
      }
      for (const db::placed_cell& pc : snap.instances(top, layer).placed) {
        const master_layer_view& v = snap.views().get(pc.master, layer);
        if (v.empty()) continue;
        ++out.shared.instances;
        eval.run({pc.master, whole_cell, pc.to_top, pc.to_top.apply(v.mbr)}, out.per_rule);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pair groups
// ---------------------------------------------------------------------------

// OR into `flags` (one per polygon of `pa`) which of pa's polygons lie inside
// some polygon of `pb`; both sets in one common frame.
void mark_contained(const poly_set& pa, const poly_set& pb, std::span<std::uint8_t> flags) {
  for (std::size_t i = 0; i < pa.polys.size(); ++i) {
    for (std::size_t j = 0; j < pb.polys.size() && !flags[i]; ++j) {
      if (pb.mbrs[j].contains(pa.mbrs[i]) && checks::polygon_inside(pa.polys[i], pb.polys[j])) {
        flags[i] = 1;
      }
    }
  }
}

group_report run_pair_group(const engine_config& cfg, stream_pool& streams,
                            layout_snapshot& snap, std::span<const exec_plan> plans,
                            const plan_group& g, const std::optional<geo::region>& window) {
  trace::span ts("engine", "run_pair_group", "layer1", g.layer1, "layer2", g.layer2);
  group_report out;
  const std::size_t nplans = g.members.size();
  out.per_rule.resize(nplans);
  check_report& shared = out.shared;
  if (nplans == 0) return out;

  const std::vector<const exec_plan*> mp = member_plans(plans, g);
  // Group invariants (group_plans keys on (cls, layer1, layer2, two_layer,
  // whole_clip)): whole-clip groups hold derived-area or coloring plans;
  // otherwise single-layer groups hold spacing plans (per-object part, no
  // containment) and two-layer groups enclosure plans (containment, no
  // per-object part).
  const bool track = mp.front()->track_containment;
  const bool has_intra = !g.two_layer;

  const db::library& lib = snap.lib();
  view_cache& views = snap.views();
  std::vector<pair_memo<std::vector<violation>>> memos(nplans);
  // Spacing notches and same-object polygon pairs (sequential mode; the
  // device kernel sees them in parallel mode).
  object_evaluator intra(cfg, snap, mp, g.layer1, nullptr);
  // Containment flags per pair_key (plan-independent: one memo per group).
  pair_memo<std::vector<std::uint8_t>> contain_memo;
  // Whole-clip results per clip content (whole-clip groups only).
  clip_memo whole_clips;

  // Collect and partition every top cell first: a whole-clip scope joins
  // clips of every top. Whole-clip groups collect every object: a derived
  // region or conflict component whose violation edges touch the window need
  // not have a shape near it (an L-shaped region wrapping a window corner).
  struct top_objects {
    std::vector<inst> a_insts, b_insts;
    std::vector<rect> mbrs;  ///< a_insts' MBRs, then b_insts'
    partition::partition_result part;
  };
  // Distance groups collect around the window's reach, per rect: the rect
  // joined with every object overlapping it. A violation touching the rect
  // has an edge on such an object, and its partner lies within the
  // interaction distance of that object, not necessarily of the rect (a long
  // edge crosses the rect far from where it violates).
  std::vector<top_objects> tops;
  for (const cell_id top : lib.top_cells()) {
    std::optional<geo::region> reach;
    if (window && !g.whole_clip) {
      std::vector<rect> r(window->rects().begin(), window->rects().end());
      const auto reach_over = [&](layer_t l) {
        for (const inst& in : collect_instances(snap, top, l, window)) {
          window->for_each_overlapping(in.mbr, [&](std::uint32_t i) { r[i] = r[i].join(in.mbr); });
        }
      };
      reach_over(g.layer1);
      if (g.two_layer) reach_over(g.layer2);
      for (rect& x : r) x = x.inflated(g.inflate);
      reach.emplace(std::move(r));
    }
    top_objects t;
    t.a_insts = collect_instances(snap, top, g.layer1, reach);
    if (g.two_layer) t.b_insts = collect_instances(snap, top, g.layer2, reach);
    shared.instances += t.a_insts.size() + t.b_insts.size();
    if (t.a_insts.empty()) continue;
    t.mbrs.reserve(t.a_insts.size() + t.b_insts.size());
    for (const inst& in : t.a_insts) t.mbrs.push_back(in.mbr);
    for (const inst& in : t.b_insts) t.mbrs.push_back(in.mbr);
    t.part = partition_instances(cfg, t.mbrs, g.inflate, shared);
    tops.push_back(std::move(t));
  }
  if (window && g.whole_clip) {
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
  } else if (window) {
    out.scope = *window;
  }

  for (const auto& [a_insts, b_insts, mbrs, part] : tops) {
    const std::size_t ni = a_insts.size();

    // Containment flags per inner polygon, ORed across candidate pairs; inner
    // object i owns contained[first[i], first[i + 1]). The flags are
    // plan-independent (containment is pure geometry, no distance), so one
    // array serves every member plan. Only the inner object's own clip
    // writes its flags (the partition puts every object in exactly one
    // clip).
    std::vector<std::size_t> first;
    std::vector<std::uint8_t> contained;
    if (track) {
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

    if (cfg.run_mode == mode::parallel && !g.whole_clip) {
      // Row pipeline (Section V-C): the driver packs row ri while up to
      // pipeline_depth earlier rows run, each on its own stream. One upload
      // per row; the multi-config kernel evaluates every member plan's
      // predicate per candidate pair.
      const std::size_t depth = std::max<std::size_t>(1, cfg.pipeline_depth);
      std::vector<sweep::device_check_config> cfgs(nplans);
      for (std::size_t k = 0; k < nplans; ++k) {
        cfgs[k] = mp[k]->device_config(sweep::sweep_axis::x);
      }
      std::vector<std::vector<violation>*> outs(nplans);
      for (std::size_t k = 0; k < nplans; ++k) outs[k] = &out.per_rule[k].violations;

      auto pack_row = [&](const partition::row& row, std::size_t ri) {
        auto t = shared.phases.measure(phase::pack);
        trace::span pts("pipeline", "pack", "row", static_cast<std::int64_t>(ri));
        std::vector<sweep::packed_edge> edges;
        std::uint32_t poly_id = 0;
        for (const partition::clip& c : row.clips) {
          for (const std::uint32_t m : c.members) {
            const bool primary = m < ni;
            const inst& in = primary ? a_insts[m] : b_insts[m - ni];
            const std::uint16_t group = primary ? 0 : 1;
            const packed_master_edges& pm =
                snap.packed(in.master, primary ? g.layer1 : g.layer2);
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
      std::size_t drained = 0;
      auto drain_oldest = [&] {
        auto t = shared.phases.measure(phase::device);
        trace::span dts("pipeline", "device_wait", "row", static_cast<std::int64_t>(drained++));
        in_flight.front().finish(outs, shared.device_stats);
        in_flight.pop_front();
      };
      for (std::size_t ri = 0; ri < part.rows.size(); ++ri) {
        std::vector<sweep::packed_edge> edges = pack_row(part.rows[ri], ri);
        // Stream ri % depth is free once the row it last ran is drained.
        if (in_flight.size() >= depth) drain_oldest();
        in_flight.emplace_back(streams.get(ri % depth), std::move(edges), cfgs, cfg.executor,
                               cfg.brute_threshold);
      }
      while (!in_flight.empty()) drain_oldest();
    }

    // Host work over the clips: the sequential branch's checks, and parallel
    // mode's containment.

    // Candidate object pairs of one clip from the sweepline (Fig. 3), as
    // (a_insts index, index of the other object: b_insts for two-layer
    // groups, a_insts otherwise). Both modes enumerate them the same way.
    auto clip_pairs = [&](const partition::clip& clip, sweep::sweep_stats& ss) {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
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

    // Evaluate one candidate object pair: every member plan's predicate
    // (sequential mode only — in parallel mode the device already did) and,
    // for enclosure groups, the containment of a's polygons by b's.
    const bool check_edges = cfg.run_mode == mode::sequential;
    const std::span<check_report> pr = out.per_rule;
    auto run_pair = [&](std::uint32_t ia, std::uint32_t ib) {
      const inst& a = a_insts[ia];
      const inst& b = g.two_layer ? b_insts[ib] : a_insts[ib];
      const layer_t lb = g.two_layer ? g.layer2 : g.layer1;
      const std::span<std::uint8_t> flags = track ? flags_of(ia) : std::span<std::uint8_t>{};
      const bool contain = std::ranges::find(flags, 0) != flags.end();
      if (!a.split() && !b.split() && cfg.enable_memoization && a.t.is_isometry() &&
          b.t.is_isometry()) {
        // Relative placement of B in A's frame — the memo key. Only valid
        // for isometries: transform::inverse requires mag == 1, and
        // magnified geometry scales the distances the memo caches.
        const transform rel = a.t.inverse().compose(b.t);
        const pair_key key{a.master, b.master, rel};
        // The transformed geometry is shared across every memo miss of this
        // pair; built lazily so all-hit pairs pay nothing.
        std::optional<poly_set> pa, pb;
        auto geometry = [&] {
          if (pa) return;
          pa = transformed_polys(lib.at(a.master), views.get(a.master, g.layer1), transform{});
          pb = transformed_polys(lib.at(b.master), views.get(b.master, lb), rel);
        };
        for (std::size_t k = 0; check_edges && k < nplans; ++k) {
          const std::vector<violation>* res = memos[k].find(key);
          if (res) {
            ++pr[k].prune.pairs_reused;
          } else {
            ++pr[k].prune.pairs_computed;
            auto t = pr[k].phases.measure(phase::edge_check);
            geometry();
            std::vector<violation> computed;
            for (std::size_t i = 0; i < pa->polys.size(); ++i) {
              for (std::size_t j = 0; j < pb->polys.size(); ++j) {
                mp[k]->check_pair(pa->polys[i], pa->mbrs[i], pb->polys[j], pb->mbrs[j],
                                  computed, pr[k].check_stats);
              }
            }
            res = &memos[k].store(key, std::move(computed));
          }
          for (const violation& lv : *res) {
            pr[k].violations.push_back(transformed(lv, a.t));
          }
        }
        if (contain) {
          const std::vector<std::uint8_t>* res = contain_memo.find(key);
          if (!res) {
            geometry();
            std::vector<std::uint8_t> computed(pa->polys.size(), 0);
            mark_contained(*pa, *pb, computed);
            res = &contain_memo.store(key, std::move(computed));
          }
          for (std::size_t q = 0; q < flags.size(); ++q) flags[q] |= (*res)[q];
        }
        return;
      }
      // Direct path (split objects, magnification, or memoization
      // disabled): check in top coordinates. Geometry is shared across
      // member plans.
      if (!check_edges && !contain) return;
      const poly_set pa = polys_of(lib, views, a, g.layer1, transform{});
      const poly_set pb = polys_of(lib, views, b, lb, transform{});
      for (std::size_t k = 0; check_edges && k < nplans; ++k) {
        ++pr[k].prune.pairs_computed;
        auto t = pr[k].phases.measure(phase::edge_check);
        for (std::size_t i = 0; i < pa.polys.size(); ++i) {
          for (std::size_t j = 0; j < pb.polys.size(); ++j) {
            mp[k]->check_pair(pa.polys[i], pa.mbrs[i], pb.polys[j], pb.mbrs[j],
                              pr[k].violations, pr[k].check_stats);
          }
        }
      }
      if (contain) mark_contained(pa, pb, flags);
    };

    // Whole-clip groups: every member plan's shape-set predicate over the
    // clip's shapes in top coordinates — no candidate sweep, no device. A
    // clip whose content (clip_key) an earlier clip already evaluated is an
    // exact translation of it and replays that result, stored in the anchor
    // frame (the clip extent's lower-left corner at the origin).
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
          for (std::size_t k = 0; k < nplans; ++k) place((*res)[k], transform{anchor}, pr[k]);
          return;
        }
      }
      ++shared.prune.clips_computed;
      trace::span cts("pipeline", "clip", "members",
                      static_cast<std::int64_t>(clip.members.size()));
      std::vector<polygon> a, b;
      for (const std::uint32_t m : clip.members) {
        const bool primary = m < ni;
        poly_set ps = polys_of(lib, views, primary ? a_insts[m] : b_insts[m - ni],
                               primary ? g.layer1 : g.layer2, transform{});
        std::vector<polygon>& dst = primary ? a : b;
        dst.insert(dst.end(), std::make_move_iterator(ps.polys.begin()),
                   std::make_move_iterator(ps.polys.end()));
      }
      clip_memo::value local(cfg.enable_memoization ? nplans : 0);
      for (std::size_t k = 0; k < nplans; ++k) {
        const std::size_t first = pr[k].violations.size();
        mp[k]->check_shapes(a, g.two_layer ? std::span<const polygon>(b) : a, pr[k]);
        if (!cfg.enable_memoization) continue;
        for (std::size_t i = first; i < pr[k].violations.size(); ++i) {
          local[k].push_back(transformed(pr[k].violations[i], transform{point{} - anchor}));
        }
      }
      if (cfg.enable_memoization) whole_clips.store(std::move(key), std::move(local));
    };

    auto process_clip = [&](const partition::clip& clip) {
      if (g.whole_clip) {
        run_whole_clip(clip);
        return;
      }
      trace::span cts("pipeline", "clip", "members",
                      static_cast<std::int64_t>(clip.members.size()));
      if (has_intra) {
        for (const std::uint32_t m : clip.members) intra.run(a_insts[m], pr);
      }

      // Candidate object pairs from the sweepline (Fig. 3).
      std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
      {
        auto t = shared.phases.measure(phase::sweepline);
        trace::span sts("pipeline", "sweepline", "members",
                        static_cast<std::int64_t>(clip.members.size()));
        pairs = clip_pairs(clip, shared.sweep_stats);
        if (!g.two_layer) {
          shared.prune.pairs_pruned_mbr +=
              clip.members.size() * (clip.members.size() - 1) / 2 - pairs.size();
        }
      }

      for (const auto& [ia, ib] : pairs) run_pair(ia, ib);
    };

    std::vector<const partition::clip*> clips;
    for (const partition::row& row : part.rows) {
      for (const partition::clip& clip : row.clips) {
        if (g.whole_clip && window && !out.scope.overlaps(clip_extent(clip, mbrs))) continue;
        clips.push_back(&clip);
      }
    }
    if (cfg.run_mode == mode::parallel && !g.whole_clip) {
      if (track) {
        // Containment runs on the host (polygon containment is not an
        // edge-pair-decomposable predicate), over the candidate pairs of the
        // same clip sweep the sequential branch uses.
        auto t = shared.phases.measure(phase::edge_check);
        for (const partition::clip* c : clips) {
          for (const auto& [ia, ib] : clip_pairs(*c, shared.sweep_stats)) {
            run_pair(ia, ib);
          }
        }
      }
    } else {
      for (const partition::clip* c : clips) process_clip(*c);
    }

    if (track) {
      // Report inner polygons contained by nothing, once per member plan.
      auto t = shared.phases.measure(phase::edge_check);
      for (std::size_t i = 0; i < ni; ++i) {
        const std::span<const std::uint8_t> flags = flags_of(i);
        if (std::ranges::find(flags, 0) == flags.end()) continue;
        const poly_set pa = polys_of(lib, views, a_insts[i], g.layer1, transform{});
        for (std::size_t k = 0; k < pa.polys.size(); ++k) {
          if (flags[k]) continue;
          for (std::size_t kp = 0; kp < nplans; ++kp) {
            checks::report_uncontained(pa.polys[k], g.layer1, g.layer2,
                                       out.per_rule[kp].violations);
          }
        }
      }
    }
  }
  if (g.whole_clip) {
    const auto computed = static_cast<std::int64_t>(shared.prune.clips_computed);
    const auto reused = static_cast<std::int64_t>(shared.prune.clips_reused);
    ts.set_end_args("clips", computed + reused, "reused", reused);
    trace::instant("prune", "clips_computed", "delta", computed);
    trace::instant("prune", "clips_reused", "delta", reused);
  }
  return out;
}

}  // namespace

group_report run_group(const engine_config& cfg, stream_pool& streams, layout_snapshot& snap,
                       std::span<const exec_plan> plans, const plan_group& g,
                       const std::optional<geo::region>& window) {
  return g.cls == plan_class::intra ? run_intra_group(cfg, streams, snap, plans, g, window)
                                    : run_pair_group(cfg, streams, snap, plans, g, window);
}

}  // namespace odrc::engine
