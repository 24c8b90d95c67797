// Session layer of odrc::serve (DESIGN.md §8).
//
// A session owns everything a repeated-check consumer keeps warm between
// requests: the mutable `db::library`, the deck's compiled `exec_plan`s, a
// `layout_snapshot` kept consistent across edits via the invalidation hooks,
// and the `violation_db` of the last completed check. `recheck()` is the
// incremental scheduler. apply() accumulates dirty rects, one per placement
// of each edited cell, each carrying the layers its edit touched. A recheck
// grows each rect into a window by the largest interaction distance among
// the plans that read one of its layers, and runs every such plan ONCE, over
// the region of the windows whose layers it reads (drc_engine::check_deck;
// plans with the same windows share one run). An any_layer intra plan runs
// once per touched layer instead, restricted to that layer. It purges the stored
// violations touching each run rule's scope (edge-wise) and inserts the
// run's violations touching it, with key dedup. Every plan class takes this
// one path. Edits that change the top-cell set (a removed last reference
// promotes a cell to top) force a full recheck: a whole check context
// appears or vanishes.
//
// Why purge+insert is exact (matches a fresh full check): let D be a dirty
// rect (old ∪ new MBR of the edited geometry at one placement), W its window
// and S a rule's scope in the run over a region holding W. The run reports
// every current violation touching S (run_group's contract), so it suffices
// that every violation that changed, before or after the edits, lies inside
// S of a run of its rule:
//   - a plan that reads none of W's layers has no changed violation from
//     the edits behind W: its check objects are shapes on the layers it
//     reads, and those edits changed no such shape (an instance edit
//     touches every layer of the child's subtree). W is not in its region;
//     a change it does see comes from a dirty rect carrying a layer it
//     reads, whose window is in its region, grown by at least its own
//     distance;
//   - an any_layer intra plan (SHAPES) runs once per touched layer L, over
//     the windows carrying L, and purges only entries on L: its violations
//     are per polygon, and the edits behind a window changed no polygon on
//     a layer the window does not carry;
//   - pair and intra violations: S holds the region (it is the region
//     unless a whole-clip rule shares the group). One edge lies in some D
//     (a pair violation involves an edited polygon itself; an enclosure
//     "uncovered inner" violation's inner lies inside the removed outer's
//     MBR ⊆ D) and the other within the rule distance of it, inside W;
//   - derived regions and conflict components: S adds to the region the
//     extent of every partition clip overlapping one of its windows. A
//     changed region or component has a shape in some D or, before the
//     edits, was joined through an edited shape to parts now within the
//     interaction distance of D, hence in a clip overlapping W;
//   - a shard stores only violations touching its band, so its intra and
//     distance plans leave out a window W disjoint from the band unless an
//     object of a layer its distance plans read overlaps both: a changed
//     violation from W lies on an edited polygon in D and, for a distance
//     rule, on a partner polygon overlapping W.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/layout.hpp"
#include "engine/engine.hpp"
#include "engine/plan.hpp"
#include "engine/rule.hpp"
#include "engine/snapshot.hpp"
#include "report/violation_db.hpp"
#include "serve/edits.hpp"

namespace odrc::serve {

struct recheck_result {
  report::key_diff diff;     ///< vs the key set of the previous check/recheck
  std::size_t windows = 0;   ///< dirty rects (one per edited placement) that ran a plan
  std::size_t plans = 0;     ///< plans run, each at most once
  std::size_t objects = 0;   ///< check objects examined (check_report::instances)
  std::size_t purged = 0;    ///< stored entries removed
  std::size_t inserted = 0;  ///< fresh entries added (after dedup)
  bool full = false;         ///< fell back to a full check
  double seconds = 0;
};

struct session_stats {
  std::size_t checks = 0;
  std::size_t edits = 0;
  std::size_t rechecks = 0;
  std::size_t violations = 0;
  std::size_t pending_dirty = 0;
  double last_check_seconds = 0;
  double last_recheck_seconds = 0;
};

/// One serving session. All public methods serialize on an internal mutex:
/// concurrent requests against one session are safe and ordered; requests
/// against different sessions run concurrently.
class session {
 public:
  /// Shard assignment for cluster workers (DESIGN.md §10): this session
  /// answers for the violations whose offending edges touch `band`. Bands
  /// tile the plane, so the union of all workers' check results is exactly
  /// the single-process result (seam straddlers appear on every band their
  /// edges touch and are deduplicated by key at the coordinator).
  struct shard_info {
    rect band;
    std::uint32_t index = 0;
    std::uint32_t count = 1;
  };

  /// Result of a pure windowed query (check_window): summary rows plus the
  /// sorted keys, computed fresh without touching the session's store.
  struct window_result {
    std::vector<report::summary_row> rows;
    std::vector<std::string> keys;
  };

  /// Cold-boot session: the frozen-backed constructor without a blob.
  session(db::library lib, std::vector<rules::rule> deck,
          engine::engine_config cfg = {});

  /// Frozen-backed session (mmap boot, DESIGN.md §9): `lib` must be the
  /// library deserialized from the same blob (`frozen_snapshot::
  /// make_library`). The snapshot's caches serve span-views into the
  /// mapping; edits go to the copy-on-write overlay, the file stays
  /// untouched. The shared_ptr keeps the mapping alive while any check is
  /// in flight. A null `frozen` builds the snapshot from `lib` alone.
  session(std::shared_ptr<const engine::frozen_backing> frozen, db::library lib,
          std::vector<rules::rule> deck, engine::engine_config cfg = {});

  session(const session&) = delete;
  session& operator=(const session&) = delete;

  /// Observer invoked with the key diff of a completed check/recheck WHILE
  /// the session mutex is held — deltas published from here are totally
  /// ordered with the checks that produced them, so a subscriber can never
  /// see two concurrent rechecks' diffs swapped. Keep it non-blocking (the
  /// server's callback only enqueues; see subscription_manager::publish).
  using diff_callback = std::function<void(const report::key_diff&)>;

  /// Full deck check from the warm snapshot; replaces the violation store.
  /// Returns the summary rows of the fresh store.
  std::vector<report::summary_row> check_full(const diff_callback& on_diff = {});

  /// Apply an edit script: mutate the library, invalidate the snapshot,
  /// accumulate dirty rects. Throws on unknown cells / bad indices, in which
  /// case the session requires a full check before the next recheck.
  edit_result apply(std::span<const edit_op> ops);

  /// Incremental recheck over the accumulated dirty rects (see file
  /// comment). Falls back to a full check when nothing was ever checked,
  /// when an edit changed the top-cell set, or after a failed edit script.
  recheck_result recheck(const diff_callback& on_diff = {});

  /// Hot-swap to a new snapshot version: replace the library and rebuild
  /// the layout_snapshot over `frozen`. Serialized against checks by the
  /// session mutex, so the flip lands between checks; the previous mapping
  /// stays referenced (shared_ptr) until the last reader drops it. Forces a
  /// full check on the next check/recheck. The deck is kept — a swap
  /// changes the layout version, not the rules.
  void reload(std::shared_ptr<const engine::frozen_backing> frozen, db::library lib);

  /// Adopt a shard assignment. Subsequent check_full() runs check the band
  /// only; recheck() keeps the band entries of each scope. Forces a full check
  /// before the next incremental step (the store changes meaning).
  void set_shard(shard_info s);

  /// Current shard assignment, if any.
  [[nodiscard]] std::optional<shard_info> shard() const;

  /// Pure windowed query: check `w` (clipped to the shard band when
  /// sharded) against the full deck and return rows + keys. Does not touch
  /// the violation store, the dirty set, or the diff baseline.
  [[nodiscard]] window_result check_window(const rect& w);

  /// Windowed lookup over the STORED violations of the last check/recheck:
  /// entries whose marker box overlaps `w`, summarized per rule plus sorted
  /// keys. A linear scan of the store (violation_db::in_window) — no
  /// geometry is rechecked, so this is the cheap "what's under the cursor"
  /// query.
  [[nodiscard]] window_result query_stored(const rect& w) const;

  /// The diff produced by the most recent check_full()/recheck().
  [[nodiscard]] report::key_diff last_diff() const;

  /// Sorted violation keys of the current store.
  [[nodiscard]] std::vector<std::string> keys() const;

  [[nodiscard]] session_stats stats() const;

  /// Serialized text report of the current store (violation_db::write_text).
  [[nodiscard]] std::string report_text() const;

 private:
  void run_full_locked();

  mutable std::mutex mu_;
  std::shared_ptr<const engine::frozen_backing> frozen_;  ///< null on cold boot
  db::library lib_;
  std::vector<rules::rule> deck_;
  std::vector<engine::exec_plan> plans_;
  engine::drc_engine eng_;
  std::optional<engine::layout_snapshot> snap_;
  report::violation_db db_;
  std::vector<std::string> last_keys_;
  report::key_diff last_diff_;
  std::vector<dirty_rect> dirty_;
  std::optional<shard_info> shard_;
  bool checked_ = false;
  bool full_required_ = false;
  session_stats stats_;
};

/// Registry of live sessions, keyed by the protocol's session id. Thread-safe.
class session_manager {
 public:
  std::uint32_t create(db::library lib, std::vector<rules::rule> deck,
                       engine::engine_config cfg = {});

  /// Frozen-backed variant of create() (mmap boot); create() is this with a
  /// null `frozen`.
  std::uint32_t create_frozen(std::shared_ptr<const engine::frozen_backing> frozen,
                              db::library lib, std::vector<rules::rule> deck,
                              engine::engine_config cfg = {});

  /// nullptr when the id is unknown (or was closed).
  [[nodiscard]] std::shared_ptr<session> get(std::uint32_t id) const;

  bool close(std::uint32_t id);

  [[nodiscard]] std::size_t count() const;

 private:
  mutable std::mutex mu_;
  std::uint32_t next_id_ = 1;
  std::unordered_map<std::uint32_t, std::shared_ptr<session>> sessions_;
};

}  // namespace odrc::serve
