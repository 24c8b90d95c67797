#include "geo/region.hpp"

#include <cmath>

namespace odrc::geo {

region::region(std::vector<rect> rects) : rects_(std::move(rects)) {
  std::erase_if(rects_, [](const rect& r) { return r.empty(); });
  if (rects_.empty()) return;
  // Extents in double or int64: a rect spanning the whole coordinate range
  // overflows coord_t.
  double sum_w = 0, sum_h = 0;
  for (const rect& r : rects_) {
    bounds_ = bounds_.join(r);
    sum_w += static_cast<double>(r.x_max) - r.x_min + 1;
    sum_h += static_cast<double>(r.y_max) - r.y_min + 1;
  }
  const double n = static_cast<double>(rects_.size());
  const std::int64_t bw = static_cast<std::int64_t>(bounds_.x_max) - bounds_.x_min + 1;
  const std::int64_t bh = static_cast<std::int64_t>(bounds_.y_max) - bounds_.y_min + 1;
  // Cell sides: the power of two at or above twice the mean rect side.
  const auto shift_for = [](double side) {
    int s = 0;
    while (s < 33 && std::ldexp(1.0, s) < side) ++s;
    return s;
  };
  shift_x_ = shift_for(2 * sum_w / n);
  shift_y_ = shift_for(2 * sum_h / n);
  const auto cells = [](std::int64_t extent, int shift) { return ((extent - 1) >> shift) + 1; };
  // At most 4n + 16 cells: widen the denser axis until the grid fits.
  const double cap = 4 * n + 16;
  while (static_cast<double>(cells(bw, shift_x_)) * static_cast<double>(cells(bh, shift_y_)) >
         cap) {
    if (cells(bw, shift_x_) >= cells(bh, shift_y_)) {
      ++shift_x_;
    } else {
      ++shift_y_;
    }
  }
  cols_ = cells(bw, shift_x_);
  rows_ = cells(bh, shift_y_);

  // Counting sort of the rect ids into the cells each overlaps.
  first_.assign(static_cast<std::size_t>(cols_ * rows_) + 1, 0);
  const auto for_cells = [&](const rect& r, auto&& f) {
    const std::uint32_t c0 = col_of(r.x_min), c1 = col_of(r.x_max), r1 = row_of(r.y_max);
    for (std::uint32_t row = row_of(r.y_min); row <= r1; ++row) {
      for (std::uint32_t col = c0; col <= c1; ++col) {
        f(static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) + col);
      }
    }
  };
  for (const rect& r : rects_) for_cells(r, [&](std::size_t c) { ++first_[c + 1]; });
  for (std::size_t c = 1; c < first_.size(); ++c) first_[c] += first_[c - 1];
  ids_.resize(first_.back());
  std::vector<std::uint32_t> fill(first_.begin(), first_.end() - 1);
  for (std::uint32_t i = 0; i < rects_.size(); ++i) {
    for_cells(rects_[i], [&](std::size_t c) { ids_[fill[c]++] = i; });
  }
}

region region::inflated(coord_t d) const {
  std::vector<rect> out(rects_.begin(), rects_.end());
  for (rect& r : out) r = r.inflated(d);
  return region(std::move(out));
}

}  // namespace odrc::geo
