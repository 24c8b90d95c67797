// Deck-wide layout snapshot (paper Section IV-C taken seriously across the
// whole deck, not per rule group).
//
// The hierarchical structures a check run needs — the layer-wise MBR index,
// the per-(master, layer) polygon views, the flattened instance lists and the
// packed edge arrays the device executors consume — depend only on the
// (library, window) pair, never on the rule being checked. Before this module
// existed every plan group rebuilt all of them from scratch, so a 20-rule
// deck paid the hierarchy walk ~20 times. A `layout_snapshot` owns them once
// per check call:
//
//   - one `db::mbr_index` over the library;
//   - one `view_cache` of per-(master, layer) polygon views;
//   - memoized `flat_instance_list(top, layer)` results plus the per-master
//     occurrence counts the instance collector consults for splitting, and
//     the top-frame layer MBR of every placement (placed_mbrs), so a
//     windowed collect tests rects without a view lookup or a transform;
//   - a master-local packed-edge cache: `pack_polygon_edges` runs once per
//     (master, layer), and packing an *instance* afterwards only applies the
//     placement transform to the cached records (append_packed_instance).
//
// Frozen backing (DESIGN.md §9): every cached structure stores its arrays in
// `odrc::storage_span`s, so an entry is either built from the library
// (owning vectors — the cold path) or adopted zero-copy from a mapped
// `frozen_snapshot` blob via the `frozen_backing` interface. A cache miss
// first consults the backing; only masked (edited) masters fall back to a
// fresh build — the copy-on-write overlay. The mapped file is never
// modified.
//
// Lifetime and invalidation: the engine entry points create a snapshot on
// the stack per check call and drop it on return. Incremental sessions
// (odrc::serve) instead keep one warm across edits and call the invalidation
// hooks — invalidate_master() after editing a cell's polygons or references
// (drops that master's layer views and packed edges, masks its frozen
// records, and refreshes the MBR index partially via mbr_index::update_cell,
// falling back to a full rebuild), invalidate_instances(layers) when the
// placements on some layers changed (drops those layers' flat instance lists
// and marks their frozen instance records stale). Invalidation is
// NOT thread-safe against concurrent readers: a session must serialize edits
// against checks (the serve session mutex does). All read caches remain
// thread-safe (shared_mutex, node-stable unordered_map values):
// `check_concurrent`'s group tasks share one snapshot.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "db/flatten.hpp"
#include "db/layout.hpp"
#include "db/mbr_index.hpp"
#include "infra/arena.hpp"
#include "sweep/device_sweep.hpp"

namespace odrc::engine {

// ---------------------------------------------------------------------------
// Per-master layer views
// ---------------------------------------------------------------------------

/// The polygons a master contributes *directly* to one layer (its references
/// appear as separate placed instances, so they are excluded here).
struct master_layer_view {
  odrc::storage_span<std::uint32_t> poly_indices;
  odrc::storage_span<rect> poly_mbrs;  ///< master-local frame
  rect mbr;                            ///< union of the above

  [[nodiscard]] bool empty() const { return poly_indices.empty(); }
};

/// One (master, count) pair of an instance set's occurrence table, sorted by
/// master id for binary-search lookup. POD so the frozen store serializes
/// the table verbatim.
struct occurrence_entry {
  db::cell_id cell = db::invalid_cell;
  std::uint32_t count = 0;
};

/// The flattened placements of one (top, layer) plus the per-master
/// occurrence counts the instance collector uses for split decisions. Both
/// are window-independent, so one entry serves every rule group.
struct instance_set {
  odrc::storage_span<db::placed_cell> placed;
  odrc::storage_span<occurrence_entry> occ;  ///< sorted by cell id

  /// Placement count of `master` in this set (0 when absent).
  [[nodiscard]] std::uint32_t occurrences(db::cell_id master) const;
};

/// The packed edges of one (master, layer): every polygon of the layer view,
/// packed once in master-local coordinates with `poly` = the view-local
/// polygon index and `group` = 0. Instance packs re-tag and transform these
/// records instead of re-walking the polygons.
struct packed_master_edges {
  odrc::storage_span<sweep::packed_edge> edges;
  odrc::storage_span<std::uint32_t> poly_offsets;  ///< size poly_count()+1, into edges
  /// Per view-local polygon: was the master ring clockwise? A reflecting
  /// placement flips orientation and polygon::transformed() restores the
  /// clockwise invariant by reversing the ring — for packed records that is
  /// exactly a from/to swap per edge, applied iff this flag is set.
  odrc::storage_span<std::uint8_t> clockwise;

  [[nodiscard]] std::size_t poly_count() const {
    return poly_offsets.empty() ? 0 : poly_offsets.size() - 1;
  }
};

// ---------------------------------------------------------------------------
// Frozen backing interface
// ---------------------------------------------------------------------------

/// What a mapped snapshot blob provides to the runtime caches. Implemented
/// by `frozen_snapshot` (src/engine/snapshot_store.hpp); the interface keeps
/// the store's file format out of this header. Every fill_* call constructs
/// span-views referencing the mapped bytes (no data copy) and returns false
/// when the blob has no record for the key — the caller then builds from the
/// library as usual.
class frozen_backing {
 public:
  virtual ~frozen_backing() = default;
  [[nodiscard]] virtual bool fill_view(db::cell_id cell, std::int32_t layer,
                                       master_layer_view& out) const = 0;
  [[nodiscard]] virtual bool fill_instances(db::cell_id top, std::int32_t layer,
                                            instance_set& out) const = 0;
  [[nodiscard]] virtual bool fill_packed(db::cell_id master, std::int32_t layer,
                                         packed_master_edges& out) const = 0;
  /// Zero-copy mbr_index over the mapped node arrays.
  [[nodiscard]] virtual db::mbr_index make_index(const db::library& lib) const = 0;
};

// ---------------------------------------------------------------------------
// View cache
// ---------------------------------------------------------------------------

/// Cache of layer views per (master, layer) for one check run. Thread-safe:
/// `check_concurrent`'s group tasks hit it concurrently.
/// References are stable (unordered_map nodes) so a caller may keep one
/// across later insertions.
class view_cache {
 public:
  /// Cache key: the (master, layer) pair held at full width. The previous
  /// packed-integer key `(cell_id << 16) | uint16(layer)` was injective only
  /// by accident of the current type widths — a cell id using bits >= 48, or
  /// a layer type wider than 16 bits (where the sign-extension of
  /// rules::any_layer no longer truncates to 0xFFFF), would silently alias
  /// distinct pairs and get() would return the wrong master's view. A
  /// struct key with field-wise equality cannot alias, whatever the widths.
  struct key {
    std::uint64_t cell = 0;
    std::int32_t layer = 0;
    [[nodiscard]] bool operator==(const key&) const = default;
  };
  struct key_hash {
    [[nodiscard]] std::size_t operator()(const key& k) const {
      return static_cast<std::size_t>(odrc::mix64(
          k.cell ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.layer)) << 32)));
    }
  };

  [[nodiscard]] static key make_key(std::uint64_t cell, std::int32_t layer) {
    return {cell, layer};
  }

  explicit view_cache(const db::library& lib, const frozen_backing* frozen = nullptr)
      : lib_(lib), frozen_(frozen) {}

  const master_layer_view& get(db::cell_id id, db::layer_t layer);

  /// Drop every layer's view of `id` (a polygon edit shifts the element
  /// indices of ALL layers' views in that cell, not just the edited layer's)
  /// and mask its frozen records: later misses rebuild from the (mutated)
  /// library instead of the stale blob.
  void invalidate(db::cell_id id);

  /// Masked masters — the copy-on-write overlay's size.
  [[nodiscard]] std::size_t masked_count() const;

 private:
  const db::library& lib_;
  const frozen_backing* frozen_;
  mutable std::shared_mutex mu_;
  std::unordered_map<key, master_layer_view, key_hash> map_;
  std::unordered_set<std::uint64_t> masked_;  ///< cells whose frozen records are stale
};

/// Append one placed instance of a cached master: apply `t` to every cached
/// edge and re-tag polygons `first_poly_id .. first_poly_id+poly_count()-1`.
/// Byte-for-byte equivalent (up to intra-polygon edge order) to transforming
/// the master's polygons and packing them from scratch.
void append_packed_instance(const packed_master_edges& pm, const transform& t,
                            std::uint32_t first_poly_id, std::uint16_t group,
                            std::vector<sweep::packed_edge>& out);

/// Same for a single view-local polygon (split check objects).
void append_packed_polygon(const packed_master_edges& pm, std::size_t local_poly,
                           const transform& t, std::uint32_t poly_id, std::uint16_t group,
                           std::vector<sweep::packed_edge>& out);

// ---------------------------------------------------------------------------
// The snapshot
// ---------------------------------------------------------------------------

/// Every rule-independent structure of one check run over one library. See
/// the file comment for the ownership/lifetime contract.
class layout_snapshot {
 public:
  /// Snapshot of `lib`, built on demand. With `frozen`, frozen-backed: the
  /// MBR index adopts the blob's node arrays zero-copy and every cache miss
  /// consults the blob before building. `lib` must then be the library the
  /// blob was built from (the session deserializes it from the same file);
  /// the shared_ptr keeps the mapping alive for the snapshot's lifetime.
  explicit layout_snapshot(const db::library& lib,
                           std::shared_ptr<const frozen_backing> frozen = nullptr)
      : lib_(lib),
        frozen_(std::move(frozen)),
        index_(frozen_ ? frozen_->make_index(lib) : db::mbr_index(lib)),
        views_(lib, frozen_.get()) {}

  layout_snapshot(const layout_snapshot&) = delete;
  layout_snapshot& operator=(const layout_snapshot&) = delete;

  [[nodiscard]] const db::library& lib() const { return lib_; }
  [[nodiscard]] const db::mbr_index& index() const { return index_; }
  [[nodiscard]] view_cache& views() { return views_; }

  /// True when backed by a mapped frozen snapshot.
  [[nodiscard]] bool frozen_backed() const { return frozen_ != nullptr; }

  /// Copy-on-write overlay size: masked masters plus layers whose frozen
  /// instance records are stale. 0 until the first invalidation of a
  /// frozen-backed snapshot.
  [[nodiscard]] std::size_t overlay_entries() const;

  /// Memoized flat_instance_list(index, top, layer) + occurrence counts.
  /// Thread-safe; the reference is stable for the snapshot's lifetime.
  const instance_set& instances(db::cell_id top, db::layer_t layer);

  /// Top-frame MBR of each placement's layer view, parallel to
  /// instances(top, layer).placed (empty where the view is empty).
  /// Memoized per (top, layer) and thread-safe like instances();
  /// invalidate_master() refreshes the edited master's entries in place.
  std::span<const rect> placed_mbrs(db::cell_id top, db::layer_t layer);

  /// Memoized master-local packed edges of (master, layer). Thread-safe and
  /// built once: concurrent misses on one key wait for the first build. The
  /// reference is stable for the snapshot's lifetime.
  const packed_master_edges& packed(db::cell_id master, db::layer_t layer);

  // -- Incremental-session invalidation (see the file comment). Callers must
  //    hold off concurrent readers; previously returned references into the
  //    invalidated entries dangle.

  /// Cell `master`'s polygons or references changed in place: drop its layer
  /// views and packed edges (masking their frozen records), refresh the
  /// placed_mbrs entries of its placements and the MBR index (partial
  /// update — thaws a frozen index — with a full rebuild as fallback). Does
  /// NOT touch the flat-instance memo — call
  /// invalidate_instances() too if placements or per-layer emptiness changed.
  void invalidate_master(db::cell_id master);

  /// Placements on `layers` changed (instance added/removed/moved, or a
  /// cell's content appeared on / vanished from a layer): drop those layers'
  /// memoized flat instance lists and placed_mbrs (and the any-layer
  /// entries), and stop consulting the blob's instance records for them.
  /// Other layers' entries stay valid: their placements did not move.
  void invalidate_instances(std::span<const db::layer_t> layers);

 private:
  const db::library& lib_;
  std::shared_ptr<const frozen_backing> frozen_;
  db::mbr_index index_;
  view_cache views_;

  mutable std::shared_mutex inst_mu_;
  std::unordered_map<view_cache::key, instance_set, view_cache::key_hash> inst_map_;
  /// placed_mbrs entries, guarded by inst_mu_ and dropped with inst_map_.
  std::unordered_map<view_cache::key, std::vector<rect>, view_cache::key_hash> mbr_map_;
  /// Layers whose blob instance records are stale; guarded by inst_mu_.
  std::unordered_set<std::int32_t> inst_stale_;

  /// One (master, layer) entry of the packed-edge cache, built once: a miss
  /// inserts the slot under pack_mu_ and builds it under `once`.
  struct pack_slot {
    std::once_flag once;
    packed_master_edges edges;
  };
  mutable std::shared_mutex pack_mu_;
  std::unordered_map<view_cache::key, pack_slot, view_cache::key_hash> pack_map_;
  std::unordered_set<std::uint64_t> pack_masked_;  ///< guarded by pack_mu_
};

}  // namespace odrc::engine
