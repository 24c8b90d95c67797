// A region of interest: a set of closed rects, possibly overlapping, read as
// their union. The engine's windowed runs (one rect per dirty placement of an
// edited master) and the serve recheck's purge take a region where they once
// took one rect. A single rect converts implicitly and keeps its meaning.
//
// Overlap tests go through a uniform bucket grid over the rects' bounds: the
// rects are counting-sorted into the cells they overlap, and a query scans
// only the cells it overlaps. Cells are about twice the mean rect size, so a
// query near the region reads a handful of rects, not all of them. Cell
// sides are powers of two: a coordinate's cell is a shift, not a division.
// (A packed R-tree over the 1,776 thin per-placement rects of an aes x2
// master edit visited 47 nodes per query, about 200 ns; see EXPERIMENTS.md.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "infra/geometry.hpp"

namespace odrc::geo {

class region {
 public:
  region() = default;
  region(const rect& r) : region(std::vector<rect>{r}) {}  // NOLINT: a rect is a region
  /// Empty rects are dropped; the others keep their order.
  explicit region(std::vector<rect> rects);

  /// The non-empty rects, in construction order.
  [[nodiscard]] std::span<const rect> rects() const { return rects_; }
  [[nodiscard]] bool empty() const { return rects_.empty(); }
  /// Join of every rect (empty for an empty region).
  [[nodiscard]] const rect& bounds() const { return bounds_; }

  /// True iff some rect shares a point with `r` (closed overlap).
  [[nodiscard]] bool overlaps(const rect& r) const {
    if (rects_.size() == 1) return rects_[0].overlaps(r);
    bool hit = false;
    scan(r, [&](std::uint32_t id, std::size_t) {
      hit = rects_[id].overlaps(r);
      return hit;
    });
    return hit;
  }

  /// Call `visit(i)` once for the index i (into rects()) of every rect
  /// overlapping `r`.
  template <class F>
  void for_each_overlapping(const rect& r, F&& visit) const {
    if (rects_.size() == 1) {
      if (rects_[0].overlaps(r)) visit(0u);
      return;
    }
    scan(r, [&](std::uint32_t id, std::size_t cell) {
      const rect& x = rects_[id];
      // Report from the cell holding the overlap's lower-left corner only:
      // a rect listed in several scanned cells is visited once.
      if (x.overlaps(r) &&
          cell_of(std::max(x.x_min, r.x_min), std::max(x.y_min, r.y_min)) == cell) {
        visit(id);
      }
      return false;
    });
  }

  /// Every rect inflated by `d`.
  [[nodiscard]] region inflated(coord_t d) const;

  friend bool operator==(const region& a, const region& b) { return a.rects_ == b.rects_; }

 private:
  [[nodiscard]] std::uint32_t col_of(coord_t x) const {
    const std::int64_t c = (static_cast<std::int64_t>(x) - bounds_.x_min) >> shift_x_;
    return static_cast<std::uint32_t>(std::clamp<std::int64_t>(c, 0, cols_ - 1));
  }
  [[nodiscard]] std::uint32_t row_of(coord_t y) const {
    const std::int64_t c = (static_cast<std::int64_t>(y) - bounds_.y_min) >> shift_y_;
    return static_cast<std::uint32_t>(std::clamp<std::int64_t>(c, 0, rows_ - 1));
  }
  [[nodiscard]] std::size_t cell_of(coord_t x, coord_t y) const {
    return static_cast<std::size_t>(row_of(y)) * cols_ + col_of(x);
  }

  // Call `f(id, cell)` for every rect id listed in a cell overlapping `r`
  // until it returns true.
  template <class F>
  void scan(const rect& r, F&& f) const {
    if (!bounds_.overlaps(r)) return;
    const std::uint32_t c0 = col_of(r.x_min), c1 = col_of(r.x_max);
    const std::uint32_t r1 = row_of(r.y_max);
    for (std::uint32_t row = row_of(r.y_min); row <= r1; ++row) {
      for (std::uint32_t col = c0; col <= c1; ++col) {
        const std::size_t cell = static_cast<std::size_t>(row) * cols_ + col;
        for (std::uint32_t k = first_[cell]; k < first_[cell + 1]; ++k) {
          if (f(ids_[k], cell)) return;
        }
      }
    }
  }

  std::vector<rect> rects_;
  rect bounds_;
  int shift_x_ = 0, shift_y_ = 0;  ///< cell sides are 2^shift
  std::int64_t cols_ = 0, rows_ = 0;
  std::vector<std::uint32_t> first_;  ///< per cell, into ids_; size cells + 1
  std::vector<std::uint32_t> ids_;    ///< rect ids, grouped by cell
};

}  // namespace odrc::geo
