#include "engine/snapshot.hpp"

#include <algorithm>

#include "engine/rule.hpp"

namespace odrc::engine {

namespace {

master_layer_view make_layer_view(const db::cell& c, db::layer_t layer) {
  master_layer_view v;
  for (std::uint32_t pi = 0; pi < c.polygons().size(); ++pi) {
    const db::polygon_elem& p = c.polygons()[pi];
    if (layer != rules::any_layer && p.layer != layer) continue;
    v.poly_indices.push_back(pi);
    v.poly_mbrs.push_back(p.poly.mbr());
    v.mbr = v.mbr.join(v.poly_mbrs.back());
  }
  return v;
}

}  // namespace

std::uint32_t instance_set::occurrences(db::cell_id master) const {
  const auto it = std::lower_bound(
      occ.begin(), occ.end(), master,
      [](const occurrence_entry& e, db::cell_id m) { return e.cell < m; });
  if (it == occ.end() || it->cell != master) return 0;
  return it->count;
}

const master_layer_view& view_cache::get(db::cell_id id, db::layer_t layer) {
  const key k = make_key(id, layer);
  bool use_frozen = frozen_ != nullptr;
  {
    std::shared_lock lk(mu_);
    auto it = map_.find(k);
    if (it != map_.end()) return it->second;
    if (use_frozen) use_frozen = !masked_.contains(id);
  }
  master_layer_view v;
  if (!use_frozen || !frozen_->fill_view(id, layer, v)) {
    v = make_layer_view(lib_.at(id), layer);
  }
  std::unique_lock lk(mu_);
  // Another thread may have inserted meanwhile; emplace keeps the winner.
  return map_.emplace(k, std::move(v)).first->second;
}

void view_cache::invalidate(db::cell_id id) {
  std::unique_lock lk(mu_);
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.cell == id) {
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
  if (frozen_ != nullptr) masked_.insert(id);
}

std::size_t view_cache::masked_count() const {
  std::shared_lock lk(mu_);
  return masked_.size();
}

std::size_t layout_snapshot::overlay_entries() const {
  std::size_t n = views_.masked_count();
  {
    std::shared_lock lk(pack_mu_);
    n += pack_masked_.size();
  }
  {
    std::shared_lock lk(inst_mu_);
    n += inst_stale_.size();
  }
  return n;
}

void layout_snapshot::invalidate_master(db::cell_id master) {
  views_.invalidate(master);
  {
    std::unique_lock lk(inst_mu_);
    for (auto& [k, mbrs] : mbr_map_) {
      const instance_set& set = inst_map_.at(k);
      const master_layer_view* v = nullptr;
      for (std::size_t i = 0; i < set.placed.size(); ++i) {
        if (set.placed[i].master != master) continue;
        if (!v) v = &views_.get(master, static_cast<db::layer_t>(k.layer));
        mbrs[i] = v->empty() ? rect{} : set.placed[i].to_top.apply(v->mbr);
      }
    }
  }
  {
    std::unique_lock lk(pack_mu_);
    for (auto it = pack_map_.begin(); it != pack_map_.end();) {
      if (it->first.cell == master) {
        it = pack_map_.erase(it);
      } else {
        ++it;
      }
    }
    if (frozen_ != nullptr) pack_masked_.insert(master);
  }
  if (!index_.update_cell(master)) index_ = db::mbr_index(lib_);
}

void layout_snapshot::invalidate_instances(std::span<const db::layer_t> layers) {
  // The any-layer list holds every layer's placements.
  const auto stale = [&](std::int32_t l) {
    return l == rules::any_layer || std::ranges::find(layers, l) != layers.end();
  };
  std::unique_lock lk(inst_mu_);
  std::erase_if(inst_map_, [&](const auto& e) { return stale(e.first.layer); });
  std::erase_if(mbr_map_, [&](const auto& e) { return stale(e.first.layer); });
  if (frozen_ != nullptr) {
    inst_stale_.insert(layers.begin(), layers.end());
    inst_stale_.insert(rules::any_layer);
  }
}

const instance_set& layout_snapshot::instances(db::cell_id top, db::layer_t layer) {
  const view_cache::key k = view_cache::make_key(top, layer);
  bool use_frozen = frozen_ != nullptr;
  {
    std::shared_lock lk(inst_mu_);
    auto it = inst_map_.find(k);
    if (it != inst_map_.end()) return it->second;
    use_frozen = use_frozen && !inst_stale_.contains(layer);
  }
  instance_set set;
  if (!use_frozen || !frozen_->fill_instances(top, layer, set)) {
    std::vector<db::placed_cell> placed = db::flat_instance_list(index_, top, layer);
    std::vector<occurrence_entry> occ;
    for (const db::placed_cell& pc : placed) {
      auto it = std::lower_bound(
          occ.begin(), occ.end(), pc.master,
          [](const occurrence_entry& e, db::cell_id m) { return e.cell < m; });
      if (it != occ.end() && it->cell == pc.master) {
        ++it->count;
      } else {
        occ.insert(it, {pc.master, 1});
      }
    }
    set.placed.assign(std::move(placed));
    set.occ.assign(std::move(occ));
  }
  std::unique_lock lk(inst_mu_);
  return inst_map_.emplace(k, std::move(set)).first->second;
}

std::span<const rect> layout_snapshot::placed_mbrs(db::cell_id top, db::layer_t layer) {
  const view_cache::key k = view_cache::make_key(top, layer);
  {
    std::shared_lock lk(inst_mu_);
    auto it = mbr_map_.find(k);
    if (it != mbr_map_.end()) return it->second;
  }
  const instance_set& set = instances(top, layer);
  std::vector<rect> mbrs(set.placed.size());
  // One view lookup per master, not per placement.
  std::vector<const master_layer_view*> view_of(lib_.cell_count(), nullptr);
  for (std::size_t i = 0; i < set.placed.size(); ++i) {
    const db::placed_cell& pc = set.placed[i];
    const master_layer_view*& v = view_of[pc.master];
    if (!v) v = &views_.get(pc.master, layer);
    if (!v->empty()) mbrs[i] = pc.to_top.apply(v->mbr);
  }
  std::unique_lock lk(inst_mu_);
  return mbr_map_.emplace(k, std::move(mbrs)).first->second;
}

const packed_master_edges& layout_snapshot::packed(db::cell_id master, db::layer_t layer) {
  const view_cache::key k = view_cache::make_key(master, layer);
  pack_slot* slot = nullptr;
  {
    std::shared_lock lk(pack_mu_);
    auto it = pack_map_.find(k);
    if (it != pack_map_.end()) slot = &it->second;
  }
  if (!slot) {
    std::unique_lock lk(pack_mu_);
    slot = &pack_map_.try_emplace(k).first->second;
  }
  // The first caller builds; concurrent callers of the same (master, layer)
  // wait for that build instead of packing the edges again.
  std::call_once(slot->once, [&] {
    packed_master_edges& pm = slot->edges;
    bool use_frozen = frozen_ != nullptr;
    if (use_frozen) {
      std::shared_lock lk(pack_mu_);
      use_frozen = !pack_masked_.contains(master);
    }
    if (use_frozen && frozen_->fill_packed(master, layer, pm)) return;
    const master_layer_view& v = views_.get(master, layer);
    const db::cell& c = lib_.at(master);
    // One exact-size reservation: the cache lives as long as the snapshot.
    std::size_t total = 0;
    for (std::uint32_t pi : v.poly_indices) total += c.polygons()[pi].poly.edge_count();
    std::vector<sweep::packed_edge> edges;
    edges.reserve(total);
    pm.poly_offsets.reserve(v.poly_indices.size() + 1);
    pm.clockwise.reserve(v.poly_indices.size());
    pm.poly_offsets.push_back(0);
    for (std::size_t k2 = 0; k2 < v.poly_indices.size(); ++k2) {
      const polygon& p = c.polygons()[v.poly_indices[k2]].poly;
      sweep::pack_polygon_edges(p, static_cast<std::uint32_t>(k2), 0, edges);
      pm.poly_offsets.push_back(static_cast<std::uint32_t>(edges.size()));
      pm.clockwise.push_back(p.is_clockwise() ? 1 : 0);
    }
    pm.edges.assign(std::move(edges));
  });
  return slot->edges;
}

namespace {

// One polygon's cached records into `out` under `t`. `reverse` replays the
// ring reversal polygon::transformed() performs for orientation-flipping
// placements: the directed-edge multiset then matches a from-scratch pack of
// the transformed polygon exactly (edge order within the polygon differs,
// which the device executors are insensitive to — they sort by sweep key).
void append_edge_range(const sweep::packed_edge* first, const sweep::packed_edge* last,
                       const transform& t, bool reverse, std::uint32_t poly_id,
                       std::uint16_t group, std::vector<sweep::packed_edge>& out) {
  if (t.is_identity()) {
    for (const sweep::packed_edge* e = first; e != last; ++e) {
      out.push_back({e->from, e->to, poly_id, group, 0});
    }
    return;
  }
  for (const sweep::packed_edge* e = first; e != last; ++e) {
    const point a = t.apply(e->from);
    const point b = t.apply(e->to);
    if (reverse) {
      out.push_back({b, a, poly_id, group, 0});
    } else {
      out.push_back({a, b, poly_id, group, 0});
    }
  }
}

}  // namespace

void append_packed_polygon(const packed_master_edges& pm, std::size_t local_poly,
                           const transform& t, std::uint32_t poly_id, std::uint16_t group,
                           std::vector<sweep::packed_edge>& out) {
  const std::uint32_t lo = pm.poly_offsets[local_poly];
  const std::uint32_t hi = pm.poly_offsets[local_poly + 1];
  // Reflection flips ring orientation; transformed() restores clockwise by
  // reversing iff the master ring was clockwise to begin with.
  const bool reverse = t.reflect_x && pm.clockwise[local_poly] != 0;
  append_edge_range(pm.edges.data() + lo, pm.edges.data() + hi, t, reverse, poly_id, group,
                    out);
}

void append_packed_instance(const packed_master_edges& pm, const transform& t,
                            std::uint32_t first_poly_id, std::uint16_t group,
                            std::vector<sweep::packed_edge>& out) {
  const std::size_t n = pm.poly_count();
  for (std::size_t k = 0; k < n; ++k) {
    append_packed_polygon(pm, k, t, first_poly_id + static_cast<std::uint32_t>(k), group, out);
  }
}

}  // namespace odrc::engine
