#include <unordered_map>

#include "baseline/baseline.hpp"
#include "baseline/flat_kit.hpp"
#include "db/mbr_index.hpp"
#include "engine/task_prune.hpp"

namespace odrc::baseline {

using checks::violation;
using engine::check_report;
using engine::transformed;

namespace {

// Master-side view: the polygons a cell contributes directly to one layer.
struct master_view {
  std::vector<const polygon*> polys;
  std::vector<rect> mbrs;
  rect total;
};

master_view view_of(const db::cell& c, db::layer_t layer) {
  master_view v;
  for (const db::polygon_elem& p : c.polygons()) {
    if (p.layer != layer) continue;
    v.polys.push_back(&p.poly);
    v.mbrs.push_back(p.poly.mbr());
    v.total = v.total.join(v.mbrs.back());
  }
  return v;
}

struct inst {
  db::cell_id master;
  transform t;
  rect mbr;
};

std::vector<inst> instances_of(const db::library& lib, const db::mbr_index& idx,
                               db::layer_t layer,
                               std::unordered_map<db::cell_id, master_view>& views) {
  std::vector<inst> out;
  for (const db::cell_id top : lib.top_cells()) {
    for (const db::placed_cell& pc : db::flat_instance_list(idx, top, layer)) {
      auto it = views.find(pc.master);
      if (it == views.end()) it = views.emplace(pc.master, view_of(lib.at(pc.master), layer)).first;
      if (it->second.polys.empty()) continue;
      out.push_back({pc.master, pc.to_top, pc.to_top.apply(it->second.total)});
    }
  }
  return out;
}

}  // namespace

check_report deep_checker::run_width(const db::library& lib, db::layer_t layer,
                                     coord_t min_width) {
  check_report report;
  const db::mbr_index idx(lib);
  std::unordered_map<db::cell_id, master_view> views;
  const auto insts = instances_of(lib, idx, layer, views);
  report.instances += insts.size();

  auto t = report.phases.measure(phase::edge_check);
  // Hierarchical evaluation: one computation per master, reused per
  // instance — the strength of KLayout's deep mode for intra checks.
  std::unordered_map<db::cell_id, std::vector<violation>> memo;
  for (const inst& in : insts) {
    if (!in.t.is_isometry()) {
      // Magnified variant: distances scale, master results do not transfer.
      for (const polygon* p : views[in.master].polys) {
        checks::check_width(p->transformed(in.t), layer, min_width, report.violations,
                            report.check_stats);
      }
      continue;
    }
    auto it = memo.find(in.master);
    if (it == memo.end()) {
      ++report.prune.intra_computed;
      std::vector<violation> local;
      for (const polygon* p : views[in.master].polys) {
        checks::check_width(*p, layer, min_width, local, report.check_stats);
      }
      it = memo.emplace(in.master, std::move(local)).first;
    } else {
      ++report.prune.intra_reused;
    }
    for (const violation& lv : it->second) report.violations.push_back(transformed(lv, in.t));
  }
  return report;
}

check_report deep_checker::run_area(const db::library& lib, db::layer_t layer, area_t min_area) {
  check_report report;
  const db::mbr_index idx(lib);
  std::unordered_map<db::cell_id, master_view> views;
  const auto insts = instances_of(lib, idx, layer, views);
  report.instances += insts.size();

  auto t = report.phases.measure(phase::edge_check);
  std::unordered_map<db::cell_id, std::vector<violation>> memo;
  for (const inst& in : insts) {
    if (!in.t.is_isometry()) {
      for (const polygon* p : views[in.master].polys) {
        checks::check_area(p->transformed(in.t), layer, min_area, report.violations,
                           report.check_stats);
      }
      continue;
    }
    auto it = memo.find(in.master);
    if (it == memo.end()) {
      ++report.prune.intra_computed;
      std::vector<violation> local;
      for (const polygon* p : views[in.master].polys) {
        checks::check_area(*p, layer, min_area, local, report.check_stats);
      }
      it = memo.emplace(in.master, std::move(local)).first;
    } else {
      ++report.prune.intra_reused;
    }
    for (const violation& lv : it->second) report.violations.push_back(transformed(lv, in.t));
  }
  return report;
}

check_report deep_checker::run_spacing(const db::library& lib, db::layer_t layer,
                                       coord_t min_space) {
  check_report report;
  const db::mbr_index idx(lib);
  std::unordered_map<db::cell_id, master_view> views;
  const auto insts = instances_of(lib, idx, layer, views);
  report.instances += insts.size();

  // Intra-master spacing: memoized per master.
  {
    auto t = report.phases.measure(phase::edge_check);
    std::unordered_map<db::cell_id, std::vector<violation>> memo;
    for (const inst& in : insts) {
      if (!in.t.is_isometry()) {
        const master_view& v = views[in.master];
        for (const polygon* p : v.polys) {
          checks::check_spacing_notch(p->transformed(in.t), layer, min_space, report.violations,
                                      report.check_stats);
        }
        for (std::size_t i = 0; i < v.polys.size(); ++i) {
          const polygon pi = v.polys[i]->transformed(in.t);
          for (std::size_t j = i + 1; j < v.polys.size(); ++j) {
            checks::check_spacing(pi, v.polys[j]->transformed(in.t), layer, min_space,
                                  report.violations, report.check_stats);
          }
        }
        continue;
      }
      auto it = memo.find(in.master);
      if (it == memo.end()) {
        ++report.prune.intra_computed;
        std::vector<violation> local;
        const master_view& v = views[in.master];
        for (const polygon* p : v.polys) {
          checks::check_spacing_notch(*p, layer, min_space, local, report.check_stats);
        }
        sweep::overlap_pairs_inflated(v.mbrs, min_space,
                                      [&](std::uint32_t i, std::uint32_t j) {
                                        checks::check_spacing(*v.polys[i], *v.polys[j], layer,
                                                              min_space, local,
                                                              report.check_stats);
                                      },
                                      &report.sweep_stats);
        it = memo.emplace(in.master, std::move(local)).first;
      } else {
        ++report.prune.intra_reused;
      }
      for (const violation& lv : it->second) report.violations.push_back(transformed(lv, in.t));
    }
  }

  // Inter-instance interactions: evaluated per occurrence in top coordinates
  // — deep mode re-derives every interaction region, which is where it loses
  // against OpenDRC's relative-placement memoization and row partition (and
  // where it can fall behind even flat mode on interaction-heavy layers, cf.
  // the jpeg M3 row of Table II).
  std::vector<rect> mbrs(insts.size());
  for (std::size_t i = 0; i < insts.size(); ++i) mbrs[i] = insts[i].mbr;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  {
    auto t = report.phases.measure(phase::sweepline);
    sweep::overlap_pairs_inflated(
        mbrs, min_space,
        [&](std::uint32_t i, std::uint32_t j) { pairs.emplace_back(i, j); },
        &report.sweep_stats);
  }
  auto t = report.phases.measure(phase::edge_check);
  for (const auto& [ia, ib] : pairs) {
    ++report.prune.pairs_computed;
    const inst& a = insts[ia];
    const inst& b = insts[ib];
    const master_view& va = views[a.master];
    const master_view& vb = views[b.master];
    // Transform both sides into top coordinates and test MBR-filtered
    // polygon pairs.
    for (std::size_t i = 0; i < va.polys.size(); ++i) {
      const polygon pa = va.polys[i]->transformed(a.t);
      const rect am = pa.mbr().inflated(min_space);
      for (std::size_t j = 0; j < vb.polys.size(); ++j) {
        const polygon pb = vb.polys[j]->transformed(b.t);
        if (!am.overlaps(pb.mbr())) continue;
        checks::check_spacing(pa, pb, layer, min_space, report.violations, report.check_stats);
      }
    }
  }
  return report;
}

check_report deep_checker::run_enclosure(const db::library& lib, db::layer_t inner,
                                         db::layer_t outer, coord_t min_enclosure) {
  check_report report;
  const db::mbr_index idx(lib);
  std::unordered_map<db::cell_id, master_view> inner_views, outer_views;
  const auto inner_insts = instances_of(lib, idx, inner, inner_views);
  // Rebuild views against the outer layer (separate cache).
  const auto outer_insts = instances_of(lib, idx, outer, outer_views);
  report.instances += inner_insts.size() + outer_insts.size();

  const std::size_t ni = inner_insts.size();
  std::vector<rect> mbrs(ni + outer_insts.size());
  for (std::size_t i = 0; i < ni; ++i) mbrs[i] = inner_insts[i].mbr;
  for (std::size_t j = 0; j < outer_insts.size(); ++j) mbrs[ni + j] = outer_insts[j].mbr;

  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  {
    auto t = report.phases.measure(phase::sweepline);
    sweep::overlap_pairs_inflated(
        mbrs, min_enclosure,
        [&](std::uint32_t i, std::uint32_t j) {
          if ((i < ni) == (j < ni)) return;
          pairs.emplace_back(std::min(i, j), std::max(i, j) - static_cast<std::uint32_t>(ni));
        },
        &report.sweep_stats);
  }

  std::vector<std::vector<std::uint8_t>> contained(ni);
  for (std::size_t i = 0; i < ni; ++i) {
    contained[i].assign(inner_views[inner_insts[i].master].polys.size(), 0);
  }

  auto t = report.phases.measure(phase::edge_check);
  for (const auto& [ii, oj] : pairs) {
    ++report.prune.pairs_computed;
    const inst& a = inner_insts[ii];
    const inst& b = outer_insts[oj];
    const master_view& va = inner_views[a.master];
    const master_view& vb = outer_views[b.master];
    for (std::size_t i = 0; i < va.polys.size(); ++i) {
      const polygon pi = va.polys[i]->transformed(a.t);
      const rect im = pi.mbr().inflated(min_enclosure);
      for (std::size_t j = 0; j < vb.polys.size(); ++j) {
        const polygon pj = vb.polys[j]->transformed(b.t);
        if (!im.overlaps(pj.mbr())) continue;
        if (checks::check_enclosure(pi, pj, inner, outer, min_enclosure, report.violations,
                                    report.check_stats)) {
          contained[ii][i] = 1;
        }
      }
    }
  }
  for (std::size_t i = 0; i < ni; ++i) {
    const inst& a = inner_insts[i];
    const master_view& va = inner_views[a.master];
    for (std::size_t k = 0; k < va.polys.size(); ++k) {
      if (contained[i][k]) continue;
      checks::report_uncontained(a.t.apply(va.polys[k]->mbr()), inner, outer, report.violations);
    }
  }
  return report;
}

}  // namespace odrc::baseline
