// The OpenDRC engine (paper Sections III, IV-C/D/E, V).
//
// The engine is the application-layer controller: it takes a layout library
// and a rule deck, performs the adaptive row-based partition, prunes checks
// through the hierarchy memos, and dispatches the remaining work to the
// sequential (CPU cell-level sweep) or parallel (device edge-kernel) branch.
//
// Sequential mode, distance rules:
//   1. enumerate placed instances carrying the rule's layer(s);
//   2. adaptive row partition of the instance MBRs (rule-distance inflated);
//   3. per clip: sweepline over instance MBRs -> candidate instance pairs;
//   4. intra-instance results come from the per-master memo (checked once
//      per master); inter-instance pairs from the relative-placement memo;
//   5. remaining pairs run edge-to-edge checks (shared predicates).
//
// Parallel mode, distance rules:
//   1-2. as above;
//   3. per row: pack the row's transformed polygon edges into a flat array,
//      enqueue upload + check kernels on a device stream, and immediately
//      start packing the NEXT row on the host — the Section V-C overlap;
//   4. the device executor is brute-force (threads per polygon/pair) for
//      small rows, two-kernel parallel sweep for large ones (Section IV-E).
//
// Intra-polygon rules (width, area, shape) run per master in both modes (the
// width kernel on the device in parallel mode) and reuse results across
// isometric placements (Section IV-C intra-polygon pruning) through the same
// per-object evaluator that checks spacing notches.
//
// Derived-area (boolean) and coloring rules partition like distance rules —
// inflate 0 so abutting shapes share a clip, the same-mask spacing for
// coloring — and evaluate each clip's whole shape set once on the host.
//
// Rules that read the same layers form one plan group (plan.hpp) and share
// one object collection, one per-object pass and, when any partitions, one
// partition and one walk over its clips (pipeline.hpp run_group).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "checks/poly_checks.hpp"
#include "checks/violation.hpp"
#include "db/layout.hpp"
#include "engine/rule.hpp"
#include "engine/task_prune.hpp"
#include "geo/region.hpp"
#include "infra/simd.hpp"
#include "infra/timer.hpp"
#include "partition/row_partition.hpp"
#include "sweep/device_sweep.hpp"
#include "sweep/sweepline.hpp"

namespace odrc::engine {

struct exec_plan;       // plan.hpp
class layout_snapshot;  // snapshot.hpp

/// Execution branch (paper Fig. 1: sequential CPU / parallel GPU).
enum class mode { sequential, parallel };

struct engine_config {
  mode run_mode = mode::sequential;

  /// Ablation switches (all default to the paper's configuration).
  bool enable_partition = true;    ///< off: one row containing everything
  bool enable_memoization = true;  ///< off: recompute every instance/pair
  partition::merge_strategy merge = partition::merge_strategy::pigeonhole;
  sweep::executor_choice executor = sweep::executor_choice::automatic;
  std::size_t brute_threshold = sweep::default_brute_threshold;

  /// Parallel-mode row pipeline depth: how many rows are in flight on the
  /// device at once, each on its own stream (paper Section V-C uses multiple
  /// CUDA streams to overlap copies, kernels and host preprocessing).
  std::size_t pipeline_depth = 2;

  /// SIMD dispatch policy for the hot kernels (simd.hpp): `automatic` probes
  /// CPUID (overridable per-process via ODRC_SIMD=off|avx2|auto), `off`
  /// forces the scalar path (ablation), `avx2` forces AVX2 where the CPU has
  /// it (degrades to scalar with a warning otherwise). Process-wide: the
  /// engine constructor applies it via simd::set_mode.
  simd::mode simd = simd::mode::automatic;
};

/// Everything a check run produces: violations plus the instrumentation the
/// benches report (work counters, partition shape, Fig. 4 phase breakdown).
struct check_report {
  std::vector<checks::violation> violations;

  checks::check_stats check_stats;
  sweep::sweep_stats sweep_stats;
  sweep::device_check_stats device_stats;
  prune_stats prune;
  phase_profiler phases;  ///< Fig. 4 phase breakdown (timer.hpp phase)

  std::size_t rows = 0;
  std::size_t clips = 0;
  std::size_t instances = 0;

  /// Plain accumulation. A group's shared phases (partition / sweepline /
  /// pack / device) live in its shared report only, never in a per-rule
  /// report (pipeline.hpp group_report), so merging a group's reports counts
  /// each phase once.
  void merge_from(check_report&& o) {
    violations.insert(violations.end(), std::make_move_iterator(o.violations.begin()),
                      std::make_move_iterator(o.violations.end()));
    check_stats += o.check_stats;
    sweep_stats += o.sweep_stats;
    device_stats += o.device_stats;
    prune += o.prune;
    phases += o.phases;
    rows += o.rows;
    clips += o.clips;
    instances += o.instances;
  }
};

/// One executed plan group: its member rules and the wall time of its
/// run_group call (the shared walk plus every member's predicates).
struct group_timing {
  std::vector<std::size_t> members;  ///< indices into deck_report::per_rule
  double seconds = 0;
};

/// Deck-level result with per-rule attribution preserved: `per_rule[i]` is
/// rule i's own report (its violations, predicate counters and edge_check
/// time; shared group phases are not attributed to individual rules), and
/// `total` merges everything plus the shared phase reports once per group.
struct deck_report {
  check_report total;
  std::vector<check_report> per_rule;  ///< parallel to drc_engine::deck()
  std::vector<group_timing> groups;    ///< plan groups, in execution order
  std::vector<geo::region> scope;      ///< windowed runs: each rule's scope (run_group)
};

/// The DRC engine. Holds configuration and an optional rule deck. Every entry
/// point compiles rules into plans (plan.hpp) and runs them over a layout
/// snapshot: a deck's plans reading the same layer set form one group and
/// run over one shared walk (deck batching); a single rule is a one-member
/// group.
class drc_engine {
 public:
  explicit drc_engine(engine_config cfg = {});
  ~drc_engine();

  drc_engine(const drc_engine&) = delete;
  drc_engine& operator=(const drc_engine&) = delete;

  [[nodiscard]] const engine_config& config() const { return cfg_; }

  // --- rule deck interface (paper Listing 1) -------------------------------
  void add_rules(std::vector<rules::rule> deck);
  [[nodiscard]] std::span<const rules::rule> deck() const { return deck_; }

  /// Run every rule in the deck against `lib`; reports are merged. Same as
  /// check_deck(lib).total.
  check_report check(const db::library& lib);

  /// Run the whole deck with per-rule report attribution: compile the deck,
  /// build one layout snapshot and run the plan-level check_deck below.
  /// Rules whose plans share a layer set are grouped (plan.hpp group_plans)
  /// and executed over one shared walk; `groups` times each group.
  deck_report check_deck(const db::library& lib);

  /// Plan-level variant for warm-path callers (odrc::serve sessions, the
  /// CLI --window route): run already-compiled `plans` against a
  /// caller-owned snapshot of the library — no recompilation, no snapshot
  /// rebuild. `per_rule` is parallel to `plans`. `window` (a region: one or
  /// more rects) restricts candidate collection to objects near its rects;
  /// each rule then reports every current violation touching its group's
  /// `scope` — the window, or for a group with a whole-clip member
  /// (derived-area, coloring) the window plus every partition clip extent
  /// overlapping one of its rects. The reports are NOT filtered to the scope
  /// (check_region keeps exactly the window).
  deck_report check_deck(std::span<const exec_plan> plans, layout_snapshot& snap,
                         const std::optional<geo::region>& window = {});

  /// Region-of-interest over precompiled plans: exactly the violations with
  /// at least one offending edge intersecting `window`, examining only
  /// objects near the window (clips overlapping it, for whole-clip plans).
  /// The deck/plan-level analogue of the single-rule check_region below.
  deck_report check_region(std::span<const exec_plan> plans, layout_snapshot& snap,
                           const rect& window);

  /// Task parallelism (paper Section I: "different design rules can be
  /// checked concurrently"): run the deck's plan groups as independent tasks
  /// on the host worker pool — the engine's one host-parallel path. Each
  /// task owns its memo tables and (in parallel mode) device streams; a
  /// group's clips run in order inside its task, so the memos take no lock.
  /// All tasks share one layout snapshot, whose caches are thread-safe. The
  /// merged report equals check(lib) up to ordering.
  check_report check_concurrent(const db::library& lib);

  /// Run a single rule over a fresh snapshot: the plan-level check_deck over
  /// its one compiled plan.
  check_report check(const db::library& lib, const rules::rule& r);

  /// Region-of-interest (incremental) checking: report exactly the
  /// violations with at least one offending edge intersecting `window`,
  /// while only *examining* objects near the window — the re-check
  /// primitive an incremental flow (e.g. a router fixing one net) needs.
  /// Candidate soundness follows from the MBR argument of Section IV-C: an
  /// edge in the window belongs to an object whose MBR overlaps the window,
  /// and its violation partner lies within the rule distance of it, hence
  /// within the rule-distance-inflated window. The plan-level check_region
  /// over the rule's one compiled plan.
  check_report check_region(const db::library& lib, const rules::rule& r, const rect& window);

  // --- individual checks (each builds the rule and runs check(lib, r)) ------
  check_report run_width(const db::library& lib, db::layer_t layer, coord_t min_width) {
    return check(lib, rules::layer(layer).width().greater_than(min_width));
  }
  check_report run_area(const db::library& lib, db::layer_t layer, area_t min_area) {
    return check(lib, rules::layer(layer).area().greater_than(min_area));
  }
  check_report run_spacing(const db::library& lib, db::layer_t layer, coord_t min_space) {
    return check(lib, rules::layer(layer).spacing().greater_than(min_space));
  }

  /// Conditional (PRL) spacing: requirement depends on the facing pair's
  /// parallel run length (paper Section II "conditional rules").
  check_report run_spacing(const db::library& lib, db::layer_t layer,
                           const checks::spacing_table& table) {
    return check(lib, {checks::rule_kind::spacing, layer, layer, table.max_distance(), 0, {},
                       {}, table});
  }
  check_report run_enclosure(const db::library& lib, db::layer_t inner, db::layer_t outer,
                             coord_t min_enclosure) {
    return check(lib, rules::layer(inner).enclosed_by(outer).greater_than(min_enclosure));
  }

  /// Multi-patterning decomposition check: shapes closer than
  /// `same_mask_spacing` must be 2-colorable (see rules::layer_sel).
  check_report run_coloring(const db::library& lib, db::layer_t layer,
                            coord_t same_mask_spacing) {
    return check(lib, rules::layer(layer).two_colorable(same_mask_spacing));
  }

 private:
  struct impl;
  engine_config cfg_;
  std::vector<rules::rule> deck_;
  std::unique_ptr<impl> impl_;
};

}  // namespace odrc::engine

namespace odrc {
using engine::drc_engine;
using engine::engine_config;
}  // namespace odrc
