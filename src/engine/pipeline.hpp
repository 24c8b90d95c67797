// The generic check pipeline driver (paper Sections IV-C/D/E, V-C).
//
// Every compiled plan belongs to a plan group (plan.hpp group_plans: the
// plans that read the same objects), and every group runs through one body,
// run_group(). It collects the placed objects carrying the group's layer(s)
// once, runs every member's per-object part on each (the per-object
// evaluator: a member's per-polygon predicate on the master, computed once
// per master and replayed at each isometric placement, §IV-C), and, when a
// member is pair-class, partitions the object MBRs into adaptive rows and
// clips and evaluates each clip once for every member — distance rules
// enumerate candidate pairs inside the clip and evaluate an edge predicate
// per candidate; derived-area and coloring rules evaluate the clip's whole
// shape set once. This module owns that machinery ONCE; the engine compiles
// each rule into an exec_plan (plan.hpp) and hands its group here.
//
// A group shares its walk across its member plans: one object collection,
// one row partition, one candidate sweep per clip and (in parallel mode) one
// packed-edge upload per row — the deck-batching amortization. A single rule
// is just a group with one member.
//
// Reports come back split (group_report): the `shared` report carries the
// phases paid once per group (partition / sweepline / pack / device) plus the
// object count, partition shape and device counters; each `per_rule` report
// carries that plan's violations, edge_check time, predicate counters and
// prune counters. The split is what makes per-rule attribution sound —
// merging a group's reports never double-counts the shared phases because
// they exist in exactly one report.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "db/mbr_index.hpp"
#include "device/device.hpp"
#include "engine/engine.hpp"
#include "engine/plan.hpp"
#include "engine/snapshot.hpp"

namespace odrc::engine {

// ---------------------------------------------------------------------------
// Check objects
// ---------------------------------------------------------------------------

/// Sentinel poly_index: the object is a whole placed cell.
inline constexpr std::uint32_t whole_cell = 0xFFFFFFFFu;

/// A check object: either a whole placed cell (poly_index == whole_cell), or
/// one individual polygon of a placed cell. Masters instantiated exactly once
/// with many polygons (typically the top cell holding the routing) are split
/// into per-polygon objects so the adaptive partition operates on wires, not
/// on one giant pseudo-cell; there is no reuse to lose since the master
/// occurs once.
struct inst {
  db::cell_id master = db::invalid_cell;
  std::uint32_t poly_index = whole_cell;  ///< index into the layer view's list
  transform t;
  rect mbr;  ///< transformed layer MBR (of the cell or the single polygon)

  [[nodiscard]] bool split() const { return poly_index != whole_cell; }
};

/// Threshold above which a single-use master is split into polygon objects.
inline constexpr std::size_t split_poly_threshold = 8;

/// Enumerate the check objects of one top cell on one layer, pruned to the
/// objects overlapping a rect of `window` when one is given
/// (region-of-interest checking). The polygon objects of one split placement
/// are consecutive. Uses the snapshot's memoized instance lists and layer
/// views — repeated calls for the same (top, layer) across rule groups walk
/// the hierarchy once.
[[nodiscard]] std::vector<inst> collect_instances(
    layout_snapshot& snap, db::cell_id top, db::layer_t layer,
    const std::optional<geo::region>& window = std::nullopt);

// ---------------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------------

/// Adaptive row partition of the object MBRs (or the one-row ablation
/// fallback); records the "partition" phase and the partition shape in
/// `report`.
[[nodiscard]] partition::partition_result partition_instances(const engine_config& cfg,
                                                              std::span<const rect> mbrs,
                                                              coord_t distance,
                                                              check_report& report);

/// Join of a clip's member MBRs (`mbrs` as passed to partition_instances):
/// covers every shape of the clip, hence every derived region and conflict
/// component a whole-clip plan evaluates in it.
[[nodiscard]] rect clip_extent(const partition::clip& c, std::span<const rect> mbrs);

/// Sound candidate inflation: a violating pair's MBR gap is strictly below
/// the rule distance, so inflating BOTH sides by ceil(d/2) already makes the
/// MBRs overlap. Using d here would double the candidate halo and enumerate
/// pairs the partition correctly proves independent.
[[nodiscard]] constexpr coord_t half_distance(coord_t d) {
  return static_cast<coord_t>((d + 1) / 2);
}

// ---------------------------------------------------------------------------
// Device streams
// ---------------------------------------------------------------------------

/// Lazily-created device streams, one per row-pipeline slot (paper V-C:
/// "OpenDRC creates CUDA stream objects that are responsible for
/// asynchronous operations").
class stream_pool {
 public:
  device::stream& get(std::size_t slot = 0) {
    while (streams_.size() <= slot) {
      streams_.push_back(std::make_unique<device::stream>(device::context::instance()));
    }
    return *streams_[slot];
  }

 private:
  std::vector<std::unique_ptr<device::stream>> streams_;
};

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Result of running one plan group: the shared machinery's report plus one
/// report per member plan (parallel to plan_group::members).
struct group_report {
  check_report shared;
  std::vector<check_report> per_rule;
  geo::region scope;  ///< windowed runs: where it reports every current violation

  /// Collapse into a single report (single-rule entry points). Shared phases
  /// appear once; per-rule phases and counters sum.
  [[nodiscard]] check_report merged() &&;
};

/// Run every member plan of `g` through one body. For each top cell (every
/// populated layer for an any_layer group):
///
///   1. Collect the objects. With a window: every object if a member is
///      whole-clip; otherwise, if a member is a distance rule, those around
///      each rect's reach (the rect joined with every object overlapping
///      it, inflated by the group's inflate); otherwise those overlapping
///      the window. A group that does not partition keeps none: each object
///      goes to step 3 as it is collected.
///   2. Scope (windowed runs): the window, closed over the extent of every
///      clip overlapping one of its rects if a member is whole-clip. Every
///      member shares it and reports every current violation touching it.
///   3. Per-object pass over the layer1 objects overlapping the scope: a
///      whole placement through the master memo (the device width kernel
///      in parallel mode), the split polygons of one placement as one batch
///      with check_single only. Sequential mode runs every member with a
///      per-object part (intra members, spacing notches and same-object
///      pairs); parallel mode only intra members, as the row kernel covers
///      spacing.
///   4. If a member is pair-class: one partition with the group's inflate,
///      then over the clips overlapping the scope, distance members sweep
///      candidate pairs (sequential) or run the row pipeline — the calling
///      thread packs each row's clips while up to `cfg.pipeline_depth`
///      earlier rows run on device streams, all distance members evaluated
///      by one multi-config kernel (sweep::async_multi_check); whole-clip
///      members run check_shapes once per clip, a clip whose content is a
///      translation of an evaluated one replaying that result (clip_memo,
///      task_prune.hpp); enclosure members report the uncontained polygons
///      of the inner objects of those clips. A candidate pair reads its
///      objects' polygons in place from the masters' storage; an object in
///      a non-identity frame is placed once per clip, never per pair.
///
/// A violation touching the scope has an edge on an object overlapping it;
/// its partner lies within the member's inflate, at most the group's, so
/// both share one clip, whose extent contains that object.
[[nodiscard]] group_report run_group(const engine_config& cfg, stream_pool& streams,
                                     layout_snapshot& snap, std::span<const exec_plan> plans,
                                     const plan_group& g,
                                     const std::optional<geo::region>& window = std::nullopt);

}  // namespace odrc::engine
