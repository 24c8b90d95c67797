// Task pruning from the hierarchy tree (paper Section IV-C).
//
// Two memoization tables realize the paper's check-reuse strategy:
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
// Checks are also *eliminated* (never run) when the rule-distance-inflated
// MBRs of the two objects are disjoint, and duplicate (b, a) checks are
// skipped by id ordering; both implemented in the engine drivers and counted
// here.
#pragma once

#include <cstdint>
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

  prune_stats& operator+=(const prune_stats& o) {
    intra_computed += o.intra_computed;
    intra_reused += o.intra_reused;
    pairs_computed += o.pairs_computed;
    pairs_reused += o.pairs_reused;
    pairs_pruned_mbr += o.pairs_pruned_mbr;
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

}  // namespace odrc::engine
