// Static packed R-tree (paper Section IV-A: "such MBR technique is widely
// applied in geometric data structures such as kd-trees [5] and R-trees
// [6]").
//
// Bulk-loaded by sorting the items on the Morton code of their MBR centers
// and packing `fanout` consecutive items per leaf, then repeating upward —
// the classic packed/Hilbert-style construction that gives near-optimal
// space utilization and good query clustering for layout data.
//
// report::violation_index builds its windowed violation queries on it; the
// micro_sweepline bench compares its MBR-overlap enumeration with the
// sweepline's.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "infra/geometry.hpp"

namespace odrc::geo {

class rtree {
 public:
  /// Build over `items`; empty rectangles are stored but never reported.
  explicit rtree(std::span<const rect> items, std::size_t fanout = 16);

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t height() const { return height_; }
  [[nodiscard]] const rect& bounds() const { return nodes_.empty() ? empty_ : nodes_[root_].mbr; }

  /// Visit the index of every item whose rectangle overlaps `window`
  /// (closed-overlap semantics, matching the sweepline).
  void query(const rect& window, const std::function<void(std::uint32_t)>& visit) const;

  /// Visit every unordered overlapping pair (i < j) — the R-tree analogue of
  /// sweep::overlap_pairs, implemented as a query per item restricted to
  /// higher indices.
  void overlap_pairs(const std::function<void(std::uint32_t, std::uint32_t)>& report) const;

  /// Nodes touched by the last query (instrumentation).
  [[nodiscard]] std::uint64_t last_nodes_visited() const { return nodes_visited_; }

 private:
  struct node {
    rect mbr;
    std::uint32_t first = 0;  ///< child node index, or item slot for leaves
    std::uint16_t count = 0;
    bool leaf = true;
  };

  void query_rec(std::uint32_t n, const rect& window,
                 const std::function<void(std::uint32_t)>& visit) const;

  std::vector<node> nodes_;
  std::vector<std::uint32_t> item_ids_;  ///< leaf slots -> original indices
  std::vector<rect> items_;              ///< original rectangles
  std::uint32_t root_ = 0;
  std::size_t count_ = 0;
  std::size_t height_ = 0;
  mutable std::uint64_t nodes_visited_ = 0;
  static const rect empty_;
};

}  // namespace odrc::geo
