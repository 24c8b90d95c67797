// Task pruning from the hierarchy tree (paper Section IV-C).
//
// Three memoization tables realize the paper's check-reuse strategy:
//
//  - `intra_memo` caches intra-cell results per master: once a master's
//    polygons have been checked (width, area, shape, intra-cell spacing),
//    every further instantiation reuses the result, because the transforms
//    OpenDRC admits (translation, 90-degree rotation, reflection) are
//    isometries that "preserve the target properties of the check".
//
//  - `pair_memo` caches inter-instance results keyed by (master A, master B,
//    relative placement of B in A's frame). The paper reuses a pair result
//    when both instances share a parent cell — the relative-placement key is
//    the general form of that condition: two pairs with equal keys have
//    identical relative geometry wherever they occur.
//
//  - `clip_memo` caches whole-clip results (derived-area and coloring rules,
//    which evaluate a partition clip's whole shape set) keyed by the clip's
//    content: its members sorted as (operand side, master, polygon index of
//    a split object, placement with the offset taken relative to the
//    lower-left corner of the clip extent). transform::apply is
//    integer-exact (integral magnification, 90-degree rotations), so two
//    clips with equal keys are exact translations of one another, magnified
//    members included, and one clip's violations replay at the other under
//    that translation.
//
// Every table lives for one group run: an edited master keeps its cell id,
// so a memo that outlived the run would replay a stale result.
//
// Checks are also *eliminated* (never run) when the rule-distance-inflated
// MBRs of the two objects are disjoint, and duplicate (b, a) checks are
// skipped by id ordering; both implemented in the engine drivers and counted
// here.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "checks/violation.hpp"
#include "db/layout.hpp"
#include "infra/geometry.hpp"

namespace odrc::engine {

struct prune_stats {
  std::uint64_t intra_computed = 0;   ///< masters actually checked
  std::uint64_t intra_reused = 0;     ///< instance-level reuses
  std::uint64_t pairs_computed = 0;   ///< distinct relative placements checked
  std::uint64_t pairs_reused = 0;     ///< pair-level reuses
  std::uint64_t pairs_pruned_mbr = 0; ///< eliminated by disjoint inflated MBRs
  std::uint64_t clips_computed = 0;   ///< whole clips evaluated
  std::uint64_t clips_reused = 0;     ///< whole clips replayed from the clip memo

  prune_stats& operator+=(const prune_stats& o) {
    intra_computed += o.intra_computed;
    intra_reused += o.intra_reused;
    pairs_computed += o.pairs_computed;
    pairs_reused += o.pairs_reused;
    pairs_pruned_mbr += o.pairs_pruned_mbr;
    clips_computed += o.clips_computed;
    clips_reused += o.clips_reused;
    return *this;
  }
};

/// Transform a violation's geometry into another frame.
[[nodiscard]] inline checks::violation transformed(const checks::violation& v,
                                                   const transform& t) {
  checks::violation out = v;
  out.e1 = {t.apply(v.e1.from), t.apply(v.e1.to)};
  out.e2 = {t.apply(v.e2.from), t.apply(v.e2.to)};
  return out;
}

/// Per-master memo of intra-cell check results (violations in the master's
/// own frame).
class intra_memo {
 public:
  [[nodiscard]] const std::vector<checks::violation>* find(db::cell_id id) const {
    auto it = map_.find(id);
    return it == map_.end() ? nullptr : &it->second;
  }

  const std::vector<checks::violation>& store(db::cell_id id,
                                              std::vector<checks::violation> vs) {
    return map_[id] = std::move(vs);
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  std::unordered_map<db::cell_id, std::vector<checks::violation>> map_;
};

/// Key of an inter-instance pair check: the two masters plus the placement
/// of B expressed in A's coordinate frame.
struct pair_key {
  db::cell_id a = db::invalid_cell;
  db::cell_id b = db::invalid_cell;
  transform rel;

  friend bool operator==(const pair_key&, const pair_key&) = default;
};

struct pair_key_hash {
  std::size_t operator()(const pair_key& k) const {
    // FNV-1a over the packed fields.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(k.a);
    mix(k.b);
    mix(static_cast<std::uint32_t>(k.rel.offset.x));
    mix(static_cast<std::uint32_t>(k.rel.offset.y));
    mix((static_cast<std::uint64_t>(k.rel.rotation) << 2) |
        (static_cast<std::uint64_t>(k.rel.reflect_x) << 1));
    mix(static_cast<std::uint32_t>(k.rel.mag));
    return static_cast<std::size_t>(h);
  }
};

/// Memo of inter-instance results keyed by pair_key, each value in A's
/// frame: a plan's local violations, or a group's containment flags (per
/// polygon of A, whether some polygon of B contains it).
template <typename V>
class pair_memo {
 public:
  [[nodiscard]] const V* find(const pair_key& k) const {
    auto it = map_.find(k);
    return it == map_.end() ? nullptr : &it->second;
  }

  const V& store(const pair_key& k, V v) { return map_[k] = std::move(v); }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  std::unordered_map<pair_key, V, pair_key_hash> map_;
};

/// One member of a whole clip as the clip memo keys it: the operand side
/// (layer2 of a two-layer plan), the check object and its placement relative
/// to the lower-left corner of the clip extent.
struct clip_member {
  bool side_b = false;
  db::cell_id master = db::invalid_cell;
  std::uint32_t poly_index = 0;  ///< engine::whole_cell for a whole placed cell
  transform rel;

  friend auto operator<=>(const clip_member&, const clip_member&) = default;
};

/// Key of a whole clip: its members, sorted.
using clip_key = std::vector<clip_member>;

/// Memo of whole-clip results keyed by clip_key: per member plan, the clip's
/// violations in its anchor frame (the clip extent's lower-left corner at
/// the origin).
class clip_memo {
 public:
  using value = std::vector<std::vector<checks::violation>>;

  [[nodiscard]] const value* find(const clip_key& k) const {
    auto it = map_.find(k);
    return it == map_.end() ? nullptr : &it->second;
  }

  const value& store(clip_key k, value v) { return map_[std::move(k)] = std::move(v); }

 private:
  std::map<clip_key, value> map_;
};

}  // namespace odrc::engine
