#include "serve/edits.hpp"

#include <sstream>
#include <stdexcept>

namespace odrc::serve {

namespace {

using db::cell_id;

// reaches[c] == 1 iff cell c contains target (transitively), including
// c == target. Computed in topological order (children before referencers),
// so one pass suffices.
std::vector<char> reach_set(const db::library& lib, cell_id target) {
  std::vector<char> reaches(lib.cell_count(), 0);
  reaches[target] = 1;
  for (cell_id id : lib.topological_order()) {
    if (reaches[id]) continue;
    const db::cell& c = lib.at(id);
    for (const db::cell_ref& r : c.refs()) {
      if (reaches[r.target]) {
        reaches[id] = 1;
        break;
      }
    }
    if (reaches[id]) continue;
    for (const db::cell_array& a : c.arrays()) {
      if (reaches[a.target]) {
        reaches[id] = 1;
        break;
      }
    }
  }
  return reaches;
}

void placements_rec(const db::library& lib, cell_id cur, cell_id target, const transform& to_top,
                    const std::vector<char>& reaches, std::vector<transform>& out) {
  if (cur == target) {
    out.push_back(to_top);
    return;  // a DAG: target cannot contain itself
  }
  const db::cell& c = lib.at(cur);
  for (const db::cell_ref& r : c.refs()) {
    if (reaches[r.target]) placements_rec(lib, r.target, target, to_top.compose(r.trans), reaches, out);
  }
  for (const db::cell_array& a : c.arrays()) {
    if (!reaches[a.target]) continue;
    for (std::uint16_t rr = 0; rr < a.rows; ++rr) {
      for (std::uint16_t cc = 0; cc < a.cols; ++cc) {
        placements_rec(lib, a.target, target, to_top.compose(a.instance(cc, rr)), reaches, out);
      }
    }
  }
}

// Map a dirty rect from `frame` coordinates to every top's coordinates: one
// image per placement of `frame` (each array instance its own), each carrying
// `layers`.
void map_to_tops(const db::library& lib, cell_id frame, const rect& local,
                 const std::vector<db::layer_t>& layers, std::vector<dirty_rect>& out) {
  if (local.empty() || layers.empty()) return;
  const std::vector<char> reaches = reach_set(lib, frame);
  std::vector<transform> placements;
  for (const cell_id top : lib.top_cells()) {
    if (reaches[top]) placements_rec(lib, top, frame, transform{}, reaches, placements);
  }
  for (const transform& t : placements) out.push_back({t.apply(local), layers});
}

// Every layer with content in `child`'s subtree: the layers that placing,
// moving or removing one reference to `child` changes.
std::vector<db::layer_t> subtree_layers(const db::mbr_index& index, cell_id child) {
  std::vector<db::layer_t> out;
  for (const db::layer_t l : index.layers()) {
    if (index.cell_has_layer(child, l)) out.push_back(l);
  }
  return out;
}

// Absolute polygon index of the `n`-th polygon of `cell` on `layer`.
std::size_t resolve_layer_poly(const db::cell& c, db::layer_t layer, std::size_t n,
                               const std::string& where) {
  std::size_t seen = 0;
  for (std::size_t i = 0; i < c.polygons().size(); ++i) {
    if (c.polygons()[i].layer != layer) continue;
    if (seen == n) return i;
    ++seen;
  }
  throw std::runtime_error(where + ": cell '" + c.name() + "' has only " +
                           std::to_string(seen) + " polygons on layer " + std::to_string(layer));
}

bool has_layer_poly(const db::cell& c, db::layer_t layer) {
  for (const db::polygon_elem& p : c.polygons()) {
    if (p.layer == layer) return true;
  }
  return false;
}

cell_id resolve_cell(const db::library& lib, const std::string& name, const std::string& where) {
  const auto id = lib.find(name);
  if (!id) throw std::runtime_error(where + ": unknown cell '" + name + "'");
  return *id;
}

}  // namespace

std::vector<transform> placements_of(const db::library& lib, db::cell_id top,
                                     db::cell_id target) {
  std::vector<transform> out;
  const std::vector<char> reaches = reach_set(lib, target);
  if (reaches[top]) placements_rec(lib, top, target, transform{}, reaches, out);
  return out;
}

std::vector<edit_op> parse_edit_script(const std::string& text) {
  std::vector<edit_op> ops;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    std::string verb;
    ls >> verb;
    edit_op op;
    const std::string where = "edit line " + std::to_string(line_no);
    auto need = [&](bool ok) {
      if (!ok) throw std::runtime_error(where + ": malformed '" + verb + "': " + line);
    };
    if (verb == "add_poly") {
      op.kind = edit_op::op_kind::add_poly;
      int layer = 0;
      need(static_cast<bool>(ls >> op.cell >> layer >> op.box.x_min >> op.box.y_min >>
                             op.box.x_max >> op.box.y_max));
      need(op.box.x_min <= op.box.x_max && op.box.y_min <= op.box.y_max);
      op.layer = static_cast<db::layer_t>(layer);
    } else if (verb == "remove_poly") {
      op.kind = edit_op::op_kind::remove_poly;
      int layer = 0;
      need(static_cast<bool>(ls >> op.cell >> layer >> op.index));
      op.layer = static_cast<db::layer_t>(layer);
    } else if (verb == "move_poly") {
      op.kind = edit_op::op_kind::move_poly;
      int layer = 0;
      need(static_cast<bool>(ls >> op.cell >> layer >> op.index >> op.delta.x >> op.delta.y));
      op.layer = static_cast<db::layer_t>(layer);
    } else if (verb == "add_inst") {
      op.kind = edit_op::op_kind::add_inst;
      need(static_cast<bool>(ls >> op.cell >> op.child >> op.at.x >> op.at.y));
      int rot = 0, refl = 0;
      if (ls >> rot) {
        need(rot >= 0 && rot <= 3);
        op.rotation = static_cast<std::uint16_t>(rot);
        if (ls >> refl) op.reflect = refl != 0;
      }
    } else if (verb == "remove_inst") {
      op.kind = edit_op::op_kind::remove_inst;
      need(static_cast<bool>(ls >> op.cell >> op.index));
    } else if (verb == "move_inst") {
      op.kind = edit_op::op_kind::move_inst;
      need(static_cast<bool>(ls >> op.cell >> op.index >> op.delta.x >> op.delta.y));
    } else {
      throw std::runtime_error(where + ": unknown edit verb '" + verb + "'");
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

edit_result apply_edits(db::library& lib, engine::layout_snapshot& snap,
                        std::span<const edit_op> ops) {
  edit_result res;
  std::vector<db::layer_t> instance_layers;  // placements or emptiness changed
  const std::vector<cell_id> tops_before = lib.top_cells();
  for (const edit_op& op : ops) {
    const std::string where = std::string("apply ") + op.cell;
    const cell_id id = resolve_cell(lib, op.cell, where);
    db::cell& c = lib.at(id);
    rect local;  // dirty rect in the edited/parent cell's frame
    std::vector<db::layer_t> layers{op.layer};  // *_inst ops: the child's subtree

    switch (op.kind) {
      case edit_op::op_kind::add_poly: {
        const bool had_layer = has_layer_poly(c, op.layer);
        c.add_rect(op.layer, op.box);
        local = op.box;
        if (!had_layer) instance_layers.push_back(op.layer);  // layer emptiness flip
        snap.invalidate_master(id);
        break;
      }
      case edit_op::op_kind::remove_poly: {
        const std::size_t pi = resolve_layer_poly(c, op.layer, op.index, where);
        local = c.polygons()[pi].poly.mbr();
        c.remove_polygon(pi);
        if (!has_layer_poly(c, op.layer)) instance_layers.push_back(op.layer);
        snap.invalidate_master(id);
        break;
      }
      case edit_op::op_kind::move_poly: {
        const std::size_t pi = resolve_layer_poly(c, op.layer, op.index, where);
        db::polygon_elem& p = c.polygon_at(pi);
        const rect old_mbr = p.poly.mbr();
        transform shift;
        shift.offset = op.delta;
        p.poly = p.poly.transformed(shift);
        local = old_mbr.join(p.poly.mbr());
        snap.invalidate_master(id);
        break;
      }
      case edit_op::op_kind::add_inst: {
        const cell_id child = resolve_cell(lib, op.child, where);
        // Reject cycles before topological_order() would throw deep inside
        // the next check.
        if (reach_set(lib, id)[child]) {
          throw std::runtime_error(where + ": add_inst of '" + op.child +
                                   "' would create a reference cycle");
        }
        db::cell_ref r;
        r.target = child;
        r.trans.offset = op.at;
        r.trans.rotation = op.rotation;
        r.trans.reflect_x = op.reflect;
        local = r.trans.apply(snap.index().cell_mbr(child));
        layers = subtree_layers(snap.index(), child);
        c.add_ref(r);
        instance_layers.insert(instance_layers.end(), layers.begin(), layers.end());
        snap.invalidate_master(id);
        break;
      }
      case edit_op::op_kind::remove_inst: {
        if (op.index >= c.refs().size()) {
          throw std::runtime_error(where + ": ref index " + std::to_string(op.index) +
                                   " out of range");
        }
        const db::cell_ref r = c.refs()[op.index];
        local = r.trans.apply(snap.index().cell_mbr(r.target));
        layers = subtree_layers(snap.index(), r.target);
        c.remove_ref(op.index);
        instance_layers.insert(instance_layers.end(), layers.begin(), layers.end());
        snap.invalidate_master(id);
        break;
      }
      case edit_op::op_kind::move_inst: {
        if (op.index >= c.refs().size()) {
          throw std::runtime_error(where + ": ref index " + std::to_string(op.index) +
                                   " out of range");
        }
        db::cell_ref& r = c.ref_at(op.index);
        const rect child_mbr = snap.index().cell_mbr(r.target);
        const rect old_img = r.trans.apply(child_mbr);
        r.trans.offset.x = static_cast<coord_t>(r.trans.offset.x + op.delta.x);
        r.trans.offset.y = static_cast<coord_t>(r.trans.offset.y + op.delta.y);
        local = old_img.join(r.trans.apply(child_mbr));
        layers = subtree_layers(snap.index(), r.target);
        instance_layers.insert(instance_layers.end(), layers.begin(), layers.end());
        snap.invalidate_master(id);
        break;
      }
    }

    map_to_tops(lib, id, local, layers, res.dirty);
    ++res.applied;
  }
  if (!instance_layers.empty()) snap.invalidate_instances(instance_layers);
  res.tops_changed = lib.top_cells() != tops_before;
  return res;
}

}  // namespace odrc::serve
