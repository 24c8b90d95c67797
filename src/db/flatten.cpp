#include "db/flatten.hpp"

namespace odrc::db {

namespace {

template <typename Visit>
void walk_instances(const library& lib, cell_id id, const transform& to_top, Visit&& visit) {
  const cell& c = lib.at(id);
  visit(id, to_top);
  for (const cell_ref& r : c.refs()) {
    walk_instances(lib, r.target, to_top.compose(r.trans), visit);
  }
  for (const cell_array& a : c.arrays()) {
    for (std::uint16_t rr = 0; rr < a.rows; ++rr) {
      for (std::uint16_t cc = 0; cc < a.cols; ++cc) {
        walk_instances(lib, a.target, to_top.compose(a.instance(cc, rr)), visit);
      }
    }
  }
}

}  // namespace

std::vector<flat_polygon> flatten_layer(const library& lib, cell_id top, layer_t layer) {
  std::vector<flat_polygon> out;
  walk_instances(lib, top, transform{}, [&](cell_id id, const transform& t) {
    const cell& c = lib.at(id);
    for (std::uint32_t pi = 0; pi < c.polygons().size(); ++pi) {
      const polygon_elem& p = c.polygons()[pi];
      if (p.layer != layer) continue;
      out.push_back({p.poly.transformed(t), p.layer, {id, pi}});
    }
  });
  return out;
}

std::vector<flat_polygon> flatten_all(const library& lib, cell_id top) {
  std::vector<flat_polygon> out;
  walk_instances(lib, top, transform{}, [&](cell_id id, const transform& t) {
    const cell& c = lib.at(id);
    for (std::uint32_t pi = 0; pi < c.polygons().size(); ++pi) {
      const polygon_elem& p = c.polygons()[pi];
      out.push_back({p.poly.transformed(t), p.layer, {id, pi}});
    }
  });
  return out;
}

namespace {

void walk_layer(const mbr_index& index, cell_id id, layer_t layer, const transform& to_top,
                std::vector<placed_cell>& out) {
  const library& lib = index.lib();
  const cell& c = lib.at(id);
  bool has_direct = false;
  for (const polygon_elem& p : c.polygons()) {
    if (p.layer == layer) {
      has_direct = true;
      break;
    }
  }
  if (has_direct) out.push_back({id, to_top});
  const auto ref_count = static_cast<std::uint32_t>(c.refs().size());
  for (std::uint32_t child : index.children_on_layer(id, layer)) {
    if (child < ref_count) {
      const cell_ref& r = c.refs()[child];
      walk_layer(index, r.target, layer, to_top.compose(r.trans), out);
    } else {
      const cell_array& a = c.arrays()[child - ref_count];
      for (std::uint16_t rr = 0; rr < a.rows; ++rr) {
        for (std::uint16_t cc = 0; cc < a.cols; ++cc) {
          walk_layer(index, a.target, layer, to_top.compose(a.instance(cc, rr)), out);
        }
      }
    }
  }
}

}  // namespace

std::vector<placed_cell> flat_instance_list(const mbr_index& index, cell_id top, layer_t layer) {
  std::vector<placed_cell> out;
  walk_layer(index, top, layer, transform{}, out);
  return out;
}

}  // namespace odrc::db
