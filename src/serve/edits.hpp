// Edit + dirty-region layer of odrc::serve (DESIGN.md §8).
//
// An edit script is line-oriented text (the `edit` request payload):
//
//   add_poly    <cell> <layer> <x1> <y1> <x2> <y2>   # axis-aligned rect
//   remove_poly <cell> <layer> <index>               # index within the layer
//   move_poly   <cell> <layer> <index> <dx> <dy>
//   add_inst    <parent> <child> <x> <y> [rot] [reflect]
//   remove_inst <parent> <index>                     # index into refs()
//   move_inst   <parent> <index> <dx> <dy>
//   # comment lines and blank lines are skipped
//
// apply_edits mutates the library in place, invalidates exactly the affected
// snapshot entries (layer views + packed edges of the edited master via
// invalidate_master -> partial mbr_index::update_cell; the flat-instance
// memo of only the layers whose placements or emptiness changed), and returns
// top-coordinate dirty rects covering old ∪ new extents of every edit: one
// rect per placement of the edited cell, every array instance its own, so a
// master edit dirties only the neighbourhoods of its placements. Each dirty
// rect carries the layers its edit touched: a *_poly op touches its own
// layer, a *_inst op every layer with content in the referenced child's
// subtree. The incremental scheduler (session.hpp) expands these rects by
// each rule's halo and reruns there only the rules that read a touched
// layer.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "db/layout.hpp"
#include "engine/snapshot.hpp"
#include "infra/geometry.hpp"

namespace odrc::serve {

struct edit_op {
  enum class op_kind : std::uint8_t {
    add_poly,
    remove_poly,
    move_poly,
    add_inst,
    remove_inst,
    move_inst,
  };

  op_kind kind = op_kind::add_poly;
  std::string cell;   ///< edited cell (parent for *_inst ops)
  std::string child;  ///< add_inst: referenced master
  db::layer_t layer = 0;
  std::size_t index = 0;  ///< remove/move target: layer-local polygon index
                          ///< for *_poly, refs() index for *_inst
  rect box;               ///< add_poly rectangle
  point delta{};          ///< move_* displacement
  point at{};             ///< add_inst placement offset
  std::uint16_t rotation = 0;  ///< add_inst, degrees/90
  bool reflect = false;        ///< add_inst
};

/// Parse an edit script. Throws std::runtime_error naming the line on any
/// malformed input; a parse failure applies nothing.
[[nodiscard]] std::vector<edit_op> parse_edit_script(const std::string& text);

/// A top-coordinate covering rect and the layers (sorted, unique) that the
/// edits behind it touched. No violation of a rule that reads none of these
/// layers can change inside `box`.
struct dirty_rect {
  rect box;
  std::vector<db::layer_t> layers;
};

struct edit_result {
  std::vector<dirty_rect> dirty;  ///< top-coordinate covering rects, one per placement per op
  std::size_t applied = 0;
  /// The set of top cells changed (a removed last reference promotes a cell
  /// to top; an added reference demotes one). Violations of a whole top
  /// context appear/vanish — not locally incremental, the session must fall
  /// back to a full recheck.
  bool tops_changed = false;
};

/// Apply `ops` in order to `lib`, invalidating `snap` as described above.
/// Throws std::runtime_error on an unknown cell/child name, an out-of-range
/// index, or an add_inst that would create a reference cycle; ops before the
/// failing one stay applied (the session treats a failed script as poisoning
/// the session until the next full check).
[[nodiscard]] edit_result apply_edits(db::library& lib, engine::layout_snapshot& snap,
                                      std::span<const edit_op> ops);

/// All placements of `target` under `top` in top coordinates; identity when
/// `target == top`. Arrays contribute every instance. Exposed for tests.
[[nodiscard]] std::vector<transform> placements_of(const db::library& lib, db::cell_id top,
                                                   db::cell_id target);

}  // namespace odrc::serve
