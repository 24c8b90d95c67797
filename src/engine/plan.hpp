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
//   - the per-candidate-pair edge predicate (evaluated host-side through
//     check_pair(), device-side through device_config());
//   - whether the rule has an intra-object component (spacing notches) and
//     whether it needs the containment post-pass (enclosure).
//
// Plans exist so the pipeline driver (pipeline.hpp) can be written once:
// every distance rule is "enumerate objects, partition, sweep candidates,
// evaluate predicates", and a deck of rules over the same layers can share
// the enumerate/partition/sweep work by evaluating several plans' predicates
// per candidate (group_pair_plans below — the deck-batching key).
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

/// Which pipeline a compiled rule runs through.
enum class plan_class : std::uint8_t {
  intra,   ///< width / area / rectilinear / custom — per-master, memoized
  pair,    ///< spacing / enclosure — partition + candidate sweep + edge pairs
  global,  ///< derived-layer booleans, coloring — whole-layer algorithms
};

/// The polygons of one check object, pre-transformed into a common frame.
struct poly_set {
  std::vector<polygon> polys;
  std::vector<rect> mbrs;
};

/// A rule compiled for execution by the pipeline driver.
struct exec_plan {
  rules::rule rule;
  plan_class cls = plan_class::intra;
  db::layer_t layer1 = rules::any_layer;  ///< primary / inner layer
  db::layer_t layer2 = rules::any_layer;  ///< outer layer (two_layer plans)
  bool two_layer = false;          ///< objects come from two layers (enclosure)
  coord_t inflate = 0;             ///< interaction distance (partition + halo)
  bool intra_object = false;       ///< has an intra-object part (spacing notches)
  bool track_containment = false;  ///< needs the enclosure containment post-pass
  sweep::pair_check device_kind = sweep::pair_check::spacing;

  /// Device kernel configuration for this plan's edge predicate.
  [[nodiscard]] sweep::device_check_config device_config(sweep::sweep_axis axis) const;

  /// Intra-object predicate: edge pairs within one polygon (spacing
  /// notches). No-op unless `intra_object`.
  void check_single(const polygon& p, std::vector<checks::violation>& out,
                    checks::check_stats& cs) const;

  /// Pair predicate between two polygons in a common frame, with this plan's
  /// own MBR prefilter (`am`/`bm` are the polygons' MBRs in that frame). For
  /// two_layer plans `a` must come from layer1 and `b` from layer2.
  /// Containment is plan-independent and tracked by the pipeline driver.
  void check_pair(const polygon& a, const rect& am, const polygon& b, const rect& bm,
                  std::vector<checks::violation>& out, checks::check_stats& cs) const;
};

/// Compile one rule. Every rule kind compiles; `cls` tells the caller which
/// driver to hand the plan to.
[[nodiscard]] exec_plan compile_plan(const rules::rule& r);

/// A batch of pair plans sharing the same check-object space: identical
/// (layer1, layer2, two_layer). The pipeline enumerates instances, computes
/// the row partition, and (in parallel mode) packs row edges ONCE per group
/// with the group-maximal interaction distance, then evaluates every member
/// plan's predicate per candidate — one upload, N rules.
struct plan_group {
  db::layer_t layer1 = rules::any_layer;
  db::layer_t layer2 = rules::any_layer;
  bool two_layer = false;
  coord_t inflate = 0;                ///< max over member plans (sound for all)
  std::vector<std::size_t> members;   ///< indices into the compiled plan list
};

/// Group the pair-class plans of a compiled deck (plans of other classes are
/// ignored). Groups preserve first-appearance deck order; members keep deck
/// order within a group.
[[nodiscard]] std::vector<plan_group> group_pair_plans(std::span<const exec_plan> plans);

}  // namespace odrc::engine
