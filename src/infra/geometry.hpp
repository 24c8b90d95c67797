// OpenDRC reproduction — infrastructure layer.
//
// Integer geometry primitives used throughout the engine: points, rectangles
// (axis-aligned MBRs), directed axis-parallel edges, rectilinear polygons and
// GDSII-style affine transforms (translate / mirror / rotate by multiples of
// 90 degrees / integral magnification).
//
// All coordinates are 32-bit database units (1 dbu = 1 nm in the bundled
// ASAP7-like workloads), matching the 4-byte signed integers of the GDSII
// stream format. Derived quantities that can overflow 32 bits (areas, squared
// distances) are computed in 64-bit.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <span>
#include <vector>

namespace odrc {

/// Database-unit coordinate type (GDSII XY records are 4-byte signed).
using coord_t = std::int32_t;
/// Wide type for products of coordinates (areas, squared distances).
using area_t = std::int64_t;

/// A point in database units.
struct point {
  coord_t x = 0;
  coord_t y = 0;

  friend constexpr bool operator==(const point&, const point&) = default;
  friend constexpr auto operator<=>(const point&, const point&) = default;

  constexpr point operator+(const point& o) const { return {static_cast<coord_t>(x + o.x), static_cast<coord_t>(y + o.y)}; }
  constexpr point operator-(const point& o) const { return {static_cast<coord_t>(x - o.x), static_cast<coord_t>(y - o.y)}; }
};

std::ostream& operator<<(std::ostream& os, const point& p);

/// Closed axis-aligned rectangle [x_min, x_max] x [y_min, y_max].
///
/// The empty rectangle is represented by an inverted extent
/// (x_min > x_max or y_min > y_max); `rect{}` is empty. Empty rectangles
/// behave as identity under `join` and as annihilator under `meet`.
struct rect {
  coord_t x_min = std::numeric_limits<coord_t>::max();
  coord_t y_min = std::numeric_limits<coord_t>::max();
  coord_t x_max = std::numeric_limits<coord_t>::min();
  coord_t y_max = std::numeric_limits<coord_t>::min();

  friend constexpr bool operator==(const rect&, const rect&) = default;

  [[nodiscard]] constexpr bool empty() const { return x_min > x_max || y_min > y_max; }
  [[nodiscard]] constexpr coord_t width() const { return static_cast<coord_t>(x_max - x_min); }
  [[nodiscard]] constexpr coord_t height() const { return static_cast<coord_t>(y_max - y_min); }
  [[nodiscard]] constexpr area_t area() const {
    return empty() ? 0 : static_cast<area_t>(width()) * static_cast<area_t>(height());
  }

  /// True iff the two closed rectangles share at least one point.
  [[nodiscard]] constexpr bool overlaps(const rect& o) const {
    return !empty() && !o.empty() && x_min <= o.x_max && o.x_min <= x_max &&
           y_min <= o.y_max && o.y_min <= y_max;
  }

  /// True iff the interiors intersect (touching boundaries do not count).
  [[nodiscard]] constexpr bool overlaps_strictly(const rect& o) const {
    return !empty() && !o.empty() && x_min < o.x_max && o.x_min < x_max &&
           y_min < o.y_max && o.y_min < y_max;
  }

  [[nodiscard]] constexpr bool contains(const point& p) const {
    return x_min <= p.x && p.x <= x_max && y_min <= p.y && p.y <= y_max;
  }

  [[nodiscard]] constexpr bool contains(const rect& o) const {
    return !o.empty() && x_min <= o.x_min && o.x_max <= x_max && y_min <= o.y_min &&
           o.y_max <= y_max;
  }

  /// Smallest rectangle covering both operands.
  [[nodiscard]] constexpr rect join(const rect& o) const {
    if (empty()) return o;
    if (o.empty()) return *this;
    return {std::min(x_min, o.x_min), std::min(y_min, o.y_min),
            std::max(x_max, o.x_max), std::max(y_max, o.y_max)};
  }

  /// Intersection; empty if the operands do not overlap.
  [[nodiscard]] constexpr rect meet(const rect& o) const {
    rect r{std::max(x_min, o.x_min), std::max(y_min, o.y_min),
           std::min(x_max, o.x_max), std::min(y_max, o.y_max)};
    return r.empty() ? rect{} : r;
  }

  /// Rectangle inflated by `d` on every side. Used to widen MBRs by a rule
  /// distance so that MBR-disjointness certifies absence of violations
  /// (paper Section IV-C).
  [[nodiscard]] constexpr rect inflated(coord_t d) const {
    if (empty()) return {};
    return {static_cast<coord_t>(x_min - d), static_cast<coord_t>(y_min - d),
            static_cast<coord_t>(x_max + d), static_cast<coord_t>(y_max + d)};
  }

  [[nodiscard]] constexpr rect translated(const point& p) const {
    if (empty()) return {};
    return {static_cast<coord_t>(x_min + p.x), static_cast<coord_t>(y_min + p.y),
            static_cast<coord_t>(x_max + p.x), static_cast<coord_t>(y_max + p.y)};
  }

  /// Extend to cover `p`.
  constexpr void expand(const point& p) {
    x_min = std::min(x_min, p.x);
    y_min = std::min(y_min, p.y);
    x_max = std::max(x_max, p.x);
    y_max = std::max(y_max, p.y);
  }

  static constexpr rect of(point a, point b) {
    return {std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x), std::max(a.y, b.y)};
  }
};

std::ostream& operator<<(std::ostream& os, const rect& r);

/// Orientation of a directed axis-parallel polygon edge.
///
/// With vertices stored in clockwise order and positive y pointing up, the
/// polygon interior lies to the LEFT of each directed edge... no: for a
/// clockwise rectilinear polygon the interior lies to the *right* of each
/// directed edge. The orientation therefore tells which side is inside:
/// an edge running east (left-to-right) has the interior below it.
enum class edge_dir : std::uint8_t { east, north, west, south };

[[nodiscard]] constexpr bool is_horizontal(edge_dir d) {
  return d == edge_dir::east || d == edge_dir::west;
}
[[nodiscard]] constexpr edge_dir opposite(edge_dir d) {
  return static_cast<edge_dir>((static_cast<int>(d) + 2) % 4);
}

/// A directed axis-parallel edge of a rectilinear polygon.
struct edge {
  point from;
  point to;

  friend constexpr bool operator==(const edge&, const edge&) = default;

  [[nodiscard]] constexpr bool horizontal() const { return from.y == to.y; }
  [[nodiscard]] constexpr bool vertical() const { return from.x == to.x; }

  [[nodiscard]] constexpr edge_dir dir() const {
    if (horizontal()) return to.x > from.x ? edge_dir::east : edge_dir::west;
    return to.y > from.y ? edge_dir::north : edge_dir::south;
  }

  [[nodiscard]] constexpr coord_t length() const {
    return horizontal() ? static_cast<coord_t>(std::abs(to.x - from.x))
                        : static_cast<coord_t>(std::abs(to.y - from.y));
  }

  [[nodiscard]] constexpr rect mbr() const { return rect::of(from, to); }

  /// The invariant coordinate: y for horizontal edges, x for vertical ones.
  [[nodiscard]] constexpr coord_t level() const { return horizontal() ? from.y : from.x; }

  /// Span along the varying axis, normalized so lo <= hi.
  [[nodiscard]] constexpr coord_t lo() const {
    return horizontal() ? std::min(from.x, to.x) : std::min(from.y, to.y);
  }
  [[nodiscard]] constexpr coord_t hi() const {
    return horizontal() ? std::max(from.x, to.x) : std::max(from.y, to.y);
  }

  [[nodiscard]] constexpr edge reversed() const { return {to, from}; }
};

std::ostream& operator<<(std::ostream& os, const edge& e);

/// Projected overlap length of two parallel edges along their varying axis;
/// zero or negative when the projections do not overlap. This is the
/// "projection length" that conditional spacing rules discriminate on.
[[nodiscard]] constexpr coord_t projection_overlap(const edge& a, const edge& b) {
  return static_cast<coord_t>(std::min(a.hi(), b.hi()) - std::max(a.lo(), b.lo()));
}

/// Saturate a 128-bit intermediate into area_t. Coordinate products near the
/// coord_t limits exceed 64 bits (dx up to 2^32 squares to 2^64); clamping
/// keeps comparisons against realistic rule limits correct instead of
/// wrapping into negative values (signed overflow is UB).
[[nodiscard]] constexpr area_t saturate_area(__int128 v) {
  constexpr __int128 hi = std::numeric_limits<area_t>::max();
  constexpr __int128 lo = -std::numeric_limits<area_t>::max();  // abs()-safe
  return static_cast<area_t>(v > hi ? hi : (v < lo ? lo : v));
}

/// Squared Euclidean distance between two points (saturating: the true value
/// can reach 2^65 for corner-to-corner spans of the coordinate space).
[[nodiscard]] constexpr area_t squared_distance(const point& a, const point& b) {
  const area_t dx = static_cast<area_t>(a.x) - b.x;
  const area_t dy = static_cast<area_t>(a.y) - b.y;
  return saturate_area(static_cast<__int128>(dx) * dx + static_cast<__int128>(dy) * dy);
}

/// Squared Euclidean distance between two axis-parallel edges treated as
/// closed segments.
[[nodiscard]] area_t squared_distance(const edge& a, const edge& b);

/// GDSII structure-reference transform (STRANS): optional mirroring about the
/// x-axis *before* rotation, rotation by a multiple of 90 degrees, integral
/// magnification, then translation.
///
/// OpenDRC restricts rotations to multiples of 90deg (the only
/// rectilinearity-preserving rotations) as the paper's hierarchy reuse logic
/// assumes transforms that keep shapes axis-aligned.
struct transform {
  point offset{};
  std::uint16_t rotation = 0;  ///< degrees / 90, i.e. 0..3
  bool reflect_x = false;      ///< mirror about x-axis (y -> -y) before rotating
  coord_t mag = 1;             ///< integral magnification

  friend constexpr bool operator==(const transform&, const transform&) = default;
  friend constexpr auto operator<=>(const transform&, const transform&) = default;

  [[nodiscard]] constexpr bool is_identity() const {
    return offset == point{} && rotation == 0 && !reflect_x && mag == 1;
  }

  /// True iff the linear part is the identity (pure translation). Pure
  /// translations preserve *all* geometric check results, so memoized
  /// intra-cell results can always be reused across them (Section IV-C).
  [[nodiscard]] constexpr bool is_translation() const {
    return rotation == 0 && !reflect_x && mag == 1;
  }

  /// True iff distances are preserved (no magnification). Rotations by 90deg
  /// and reflections are isometries of the integer grid.
  [[nodiscard]] constexpr bool is_isometry() const { return mag == 1; }

  [[nodiscard]] constexpr point apply(point p) const {
    coord_t x = static_cast<coord_t>(p.x * mag);
    coord_t y = static_cast<coord_t>(p.y * mag);
    if (reflect_x) y = static_cast<coord_t>(-y);
    coord_t rx = x, ry = y;
    switch (rotation & 3) {
      case 0: break;
      case 1: rx = static_cast<coord_t>(-y); ry = x; break;
      case 2: rx = static_cast<coord_t>(-x); ry = static_cast<coord_t>(-y); break;
      case 3: rx = y; ry = static_cast<coord_t>(-x); break;
    }
    return {static_cast<coord_t>(rx + offset.x), static_cast<coord_t>(ry + offset.y)};
  }

  [[nodiscard]] constexpr rect apply(const rect& r) const {
    if (r.empty()) return {};
    const point a = apply(point{r.x_min, r.y_min});
    const point b = apply(point{r.x_max, r.y_max});
    return rect::of(a, b);
  }

  /// Inverse of an isometry (mag must be 1): inverse().apply(apply(p)) == p.
  /// Used to express one instance's frame in another's (relative-placement
  /// memoization keys in the engine).
  [[nodiscard]] constexpr transform inverse() const {
    // Linear part L = R_rot ∘ F (reflect first). L⁻¹ = F ∘ R_{-rot}, which in
    // reflect-first form is R_{rot} ∘ F when reflected (F R_a F = R_{-a}),
    // and R_{-rot} otherwise.
    transform inv;
    inv.reflect_x = reflect_x;
    inv.rotation = reflect_x ? rotation : static_cast<std::uint16_t>((4 - rotation) & 3);
    inv.mag = 1;
    const point t = inv.apply(offset);  // L⁻¹(offset), since inv.offset is 0 here
    inv.offset = {static_cast<coord_t>(-t.x), static_cast<coord_t>(-t.y)};
    return inv;
  }

  /// Composition: (this * inner).apply(p) == this->apply(inner.apply(p)).
  [[nodiscard]] constexpr transform compose(const transform& inner) const {
    transform out;
    out.mag = static_cast<coord_t>(mag * inner.mag);
    out.reflect_x = reflect_x != inner.reflect_x;
    // Reflection conjugates the rotation direction of the inner transform.
    const int inner_rot = reflect_x ? (4 - inner.rotation) & 3 : inner.rotation & 3;
    out.rotation = static_cast<std::uint16_t>((rotation + inner_rot) & 3);
    out.offset = apply(inner.offset);
    return out;
  }
};

std::ostream& operator<<(std::ostream& os, const transform& t);

/// A rectilinear polygon stored as a clockwise vertex ring (paper Section
/// IV-D: "polygon vertices are stored in clockwise order, so that positional
/// relations of edges are determined accordingly").
///
/// The ring is implicitly closed: an edge runs from vertices[i] to
/// vertices[(i+1) % size].
class polygon {
 public:
  polygon() = default;
  explicit polygon(std::vector<point> vertices) : vertices_(std::move(vertices)) {}

  [[nodiscard]] std::span<const point> vertices() const { return vertices_; }
  [[nodiscard]] std::size_t size() const { return vertices_.size(); }
  [[nodiscard]] bool valid() const { return vertices_.size() >= 4; }

  /// Number of edges (== number of vertices for a closed ring).
  [[nodiscard]] std::size_t edge_count() const { return vertices_.size(); }
  [[nodiscard]] edge edge_at(std::size_t i) const {
    return {vertices_[i], vertices_[(i + 1) % vertices_.size()]};
  }

  /// True iff every edge is axis-parallel and no edge is degenerate.
  [[nodiscard]] bool is_rectilinear() const;

  /// Signed area via the Shoelace Theorem (paper Section IV-D); positive for
  /// counter-clockwise rings, negative for clockwise rings.
  [[nodiscard]] area_t signed_area() const;

  [[nodiscard]] area_t area() const { return std::abs(signed_area()); }

  /// True iff vertices are in clockwise order (signed area < 0).
  [[nodiscard]] bool is_clockwise() const { return signed_area() < 0; }

  /// Reverse the ring in place so that it is clockwise. No-op if already so.
  void make_clockwise();

  [[nodiscard]] rect mbr() const;

  /// Append all edges (directed, clockwise) to `out`.
  void collect_edges(std::vector<edge>& out) const;

  /// Polygon with every vertex transformed. Clockwise orientation is
  /// restored if the transform includes a reflection (which flips it).
  [[nodiscard]] polygon transformed(const transform& t) const;

  /// Point-in-polygon test (even-odd rule); boundary points count as inside.
  [[nodiscard]] bool contains(const point& p) const;

  /// Axis-aligned rectangle as a 4-vertex clockwise polygon.
  static polygon from_rect(const rect& r);

  friend bool operator==(const polygon&, const polygon&) = default;

 private:
  std::vector<point> vertices_;
};

std::ostream& operator<<(std::ostream& os, const polygon& p);

}  // namespace odrc
