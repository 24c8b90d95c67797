// Rule-plan compilation (the layer between the rule DSL and the pipeline
// driver).
//
// A `rules::rule` is declarative data; an `exec_plan` is the same rule
// compiled into what the generic check pipeline needs to execute it:
//
//   - which layers contribute check objects (one layer, or an ordered
//     inner/outer pair);
//   - the interaction distance (`inflate`) that makes the adaptive row
//     partition and the candidate MBR halo sound for this rule;
//   - the per-polygon predicate (check_single: width, area, rectilinear,
//     custom, spacing notches) that the per-object evaluator runs once per
//     master and replays at every isometric placement;
//   - the per-candidate-pair edge predicate (evaluated host-side through
//     check_pair(), device-side through device_config()) and whether it
//     needs the containment post-pass (enclosure);
//   - for derived-area and coloring rules, the predicate over a whole shape
//     set (check_shapes) that the driver evaluates once per partition clip.
//
// Plans exist so the pipeline driver (pipeline.hpp) can be written once:
// every plan belongs to a group (group_plans below — the deck-batching key:
// the objects a plan reads), and every group runs through one body that
// collects its objects once, runs each member's per-object part and, when a
// member partitions, evaluates each clip once for every member.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "checks/poly_checks.hpp"
#include "checks/violation.hpp"
#include "db/layout.hpp"
#include "engine/rule.hpp"
#include "infra/geometry.hpp"
#include "sweep/device_sweep.hpp"

namespace odrc::engine {

struct check_report;  // engine.hpp

/// Whether a compiled rule partitions.
enum class plan_class : std::uint8_t {
  intra,  ///< width / area / rectilinear / custom — per-object only
  pair,   ///< spacing / enclosure / derived-area / coloring — partition clips
};

/// A rule compiled for execution by the pipeline driver.
struct exec_plan {
  rules::rule rule;
  plan_class cls = plan_class::intra;
  db::layer_t layer1 = rules::any_layer;  ///< primary / inner layer
  db::layer_t layer2 = rules::any_layer;  ///< outer layer (two_layer plans)
  bool two_layer = false;          ///< objects come from two layers (enclosure)
  coord_t inflate = 0;             ///< interaction distance (partition + halo)
  bool track_containment = false;  ///< needs the enclosure containment post-pass
  /// Derived-area / coloring: evaluated once per clip over the clip's whole
  /// shape set (check_shapes) instead of per candidate pair. The partition
  /// keeps every interacting shape pair in one clip (touching shapes at
  /// inflate 0, shapes closer than the same-mask spacing for coloring), so
  /// each derived region and each conflict-graph component lies in one clip.
  bool whole_clip = false;
  sweep::pair_check device_kind = sweep::pair_check::spacing;

  /// True iff this plan's check objects include shapes on `layer`: every
  /// layer for an any_layer plan (SHAPES), else layer1 or layer2 (the outer
  /// layer of an enclosure, the second operand of a derived-area rule). An
  /// edit confined to layers a plan does not read cannot change its
  /// violations.
  [[nodiscard]] bool reads(db::layer_t layer) const {
    return layer1 == rules::any_layer || layer1 == layer || layer2 == layer;
  }

  /// Device kernel configuration for this plan's edge predicate.
  [[nodiscard]] sweep::device_check_config device_config(sweep::sweep_axis axis) const;

  /// Per-polygon predicate: width, area, rectilinear, custom (the
  /// predicate sees `p` itself, name included) and spacing notches; no-op
  /// for the other kinds. Violations carry `p.layer`.
  void check_single(const db::polygon_elem& p, std::vector<checks::violation>& out,
                    checks::check_stats& cs) const;

  /// Pair predicate between two polygons in a common frame, with this plan's
  /// own MBR prefilter (`am`/`bm` are the polygons' MBRs in that frame). For
  /// two_layer plans `a` must come from layer1 and `b` from layer2. An
  /// enclosure plan checks the margins only: containment is
  /// plan-independent, and the pipeline driver computes it once per pair.
  void check_pair(const polygon& a, const rect& am, const polygon& b, const rect& bm,
                  std::vector<checks::violation>& out, checks::check_stats& cs) const;

  /// Whole-shape-set predicate of a whole_clip plan, every shape in one
  /// frame: derived-area rules measure each connected region of op(a, b);
  /// coloring rules 2-color the conflict graph of `a` (`b` unused). The
  /// result depends on the shape sets only, not on their order. Appends to
  /// report.violations and records the "boolean" (derived-area) or
  /// "sweepline" + "edge_check" (coloring) phase.
  void check_shapes(std::span<const polygon> a, std::span<const polygon> b,
                    check_report& report) const;
};

/// Compile one rule. Every rule kind compiles; `cls` tells the group body
/// whether the plan partitions.
[[nodiscard]] exec_plan compile_plan(const rules::rule& r);

/// A batch of plans reading the same check objects: identical (layer1,
/// layer2, two_layer), so several rules pay for one collection, one row
/// partition and one walk over the clips, whatever their evaluators. An
/// intra plan keys on its one layer (compile_plan sets its layer2 =
/// layer1), so M1 width, area and spacing are one group and SHAPES
/// (any_layer) is a group of its own. The group body (pipeline.hpp
/// run_group) runs every member's per-object part on each object, and, when
/// a member is pair-class, partitions the objects ONCE with the
/// group-maximal interaction distance and evaluates each clip for every
/// member: distance members per candidate pair (in parallel mode one upload
/// per row, N rules), whole-clip members over the clip's shape set.
struct plan_group {
  db::layer_t layer1 = rules::any_layer;
  db::layer_t layer2 = rules::any_layer;
  bool two_layer = false;
  /// Max over pair-class members (sound for all of them); an intra member's
  /// inflate is its width, which must not coarsen the partition.
  coord_t inflate = 0;
  std::vector<std::size_t> members;  ///< indices into the compiled plan list
};

/// Group every plan of a compiled deck. Groups preserve first-appearance
/// deck order; members keep deck order within a group.
[[nodiscard]] std::vector<plan_group> group_plans(std::span<const exec_plan> plans);

}  // namespace odrc::engine
