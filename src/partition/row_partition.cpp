#include "partition/row_partition.hpp"

#include <algorithm>
#include <cassert>

#include "infra/pigeonhole.hpp"

namespace odrc::partition {

namespace {

// Assign every input interval to the merged group containing it (each input
// lies inside exactly one group by construction of the merge).
void assign_groups(std::span<const interval> inputs, grouping& g) {
  std::vector<coord_t> starts;
  starts.reserve(g.groups.size());
  for (const interval& m : g.groups) starts.push_back(m.lo);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto it = std::upper_bound(starts.begin(), starts.end(), inputs[i].lo);
    const auto gi = static_cast<std::uint32_t>(it - starts.begin() - 1);
    assert(gi < g.groups.size());
    assert(g.groups[gi].lo <= inputs[i].lo && inputs[i].hi <= g.groups[gi].hi);
    g.group_of[i] = gi;
  }
}

// The raw-coordinate pigeonhole array (the paper's Theta(k+N) path, no
// sorting at all) wins when "k is typically much larger than N": its cost is
// the domain span N, paid in init + scan, so it only beats the O(k log k)
// compressed path when the span is within a small multiple of k — and must
// stay within a sane scratch size regardless.
constexpr std::int64_t direct_domain_limit = std::int64_t{1} << 22;

bool use_direct_pigeonhole(std::int64_t span, std::size_t k) {
  return span <= direct_domain_limit && span <= 4 * static_cast<std::int64_t>(k);
}

}  // namespace

grouping merge_1d(std::span<const interval> intervals, merge_strategy strategy) {
  grouping g;
  g.group_of.assign(intervals.size(), 0);
  if (intervals.empty()) return g;

  if (strategy == merge_strategy::pigeonhole) {
    coord_t lo = intervals[0].lo, hi = intervals[0].hi;
    for (const interval& iv : intervals) {
      lo = std::min(lo, iv.lo);
      hi = std::max(hi, iv.hi);
    }
    if (use_direct_pigeonhole(static_cast<std::int64_t>(hi) - lo, intervals.size())) {
      pigeonhole_merger merger(lo, hi);
      for (const interval& iv : intervals) merger.add(iv);
      g.groups = merger.merged();
      assign_groups(intervals, g);
      return g;
    }
    // Astronomical spans (sparse coordinates): fall through to the
    // coordinate-compressed path below.
  }

  // Coordinate-compress endpoints so the pigeonhole domain is the number of
  // distinct coordinates (the paper's N), not the raw coordinate range. One
  // sort of (coordinate, endpoint) keys yields every endpoint's rank in a
  // single pass: endpoint 2i is interval i's lo, 2i + 1 its hi (the low 32
  // bits of the key).
  std::vector<std::uint64_t> keys;
  keys.reserve(intervals.size() * 2);
  const auto biased = [](coord_t v) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v) ^ 0x80000000u) << 32;
  };
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    keys.push_back(biased(intervals[i].lo) | (2 * i));
    keys.push_back(biased(intervals[i].hi) | (2 * i + 1));
  }
  std::sort(keys.begin(), keys.end());
  std::vector<coord_t> coords;  // rank -> coordinate
  std::vector<interval> ranked(intervals.size());
  for (const std::uint64_t key : keys) {
    const std::uint32_t e = static_cast<std::uint32_t>(key);
    const coord_t v = (e & 1) ? intervals[e / 2].hi : intervals[e / 2].lo;
    if (coords.empty() || coords.back() != v) coords.push_back(v);
    const coord_t r = static_cast<coord_t>(coords.size() - 1);
    (e & 1 ? ranked[e / 2].hi : ranked[e / 2].lo) = r;
  }

  std::vector<interval> merged_ranked;
  if (strategy == merge_strategy::pigeonhole) {
    pigeonhole_merger merger(0, static_cast<coord_t>(coords.size()) - 1);
    for (const interval& iv : ranked) merger.add(iv);
    merged_ranked = merger.merged();
  } else {
    merged_ranked = merge_intervals_by_sort(ranked);
  }

  // Map group extents back to real coordinates, and every rank inside a
  // group to that group: each input lies inside exactly one group, the one
  // holding its lo rank.
  g.groups.reserve(merged_ranked.size());
  std::vector<std::uint32_t> group_at(coords.size(), 0);
  for (std::size_t gi = 0; gi < merged_ranked.size(); ++gi) {
    const interval& m = merged_ranked[gi];
    g.groups.push_back({coords[static_cast<std::size_t>(m.lo)],
                        coords[static_cast<std::size_t>(m.hi)],
                        static_cast<std::uint32_t>(gi)});
    std::fill(group_at.begin() + m.lo, group_at.begin() + m.hi + 1,
              static_cast<std::uint32_t>(gi));
  }
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const std::uint32_t gi = group_at[static_cast<std::size_t>(ranked[i].lo)];
    assert(merged_ranked[gi].lo <= ranked[i].lo && ranked[i].hi <= merged_ranked[gi].hi);
    g.group_of[i] = gi;
  }
  return g;
}

partition_result partition_rows(std::span<const rect> mbrs, coord_t distance,
                                merge_strategy strategy) {
  partition_result result;
  const coord_t h = static_cast<coord_t>((distance + 1) / 2);  // ceil(d/2)

  // Collect non-empty inputs with inflated extents.
  std::vector<interval> y_ivs;
  std::vector<std::uint32_t> input_of;  // dense index -> original index
  y_ivs.reserve(mbrs.size());
  for (std::uint32_t i = 0; i < mbrs.size(); ++i) {
    if (mbrs[i].empty()) continue;
    const rect r = mbrs[i].inflated(h);
    y_ivs.push_back({r.y_min, r.y_max, static_cast<std::uint32_t>(y_ivs.size())});
    input_of.push_back(i);
  }
  if (y_ivs.empty()) return result;

  const grouping rows = merge_1d(y_ivs, strategy);
  result.rows.resize(rows.groups.size());
  std::vector<std::vector<std::uint32_t>> row_members(rows.groups.size());
  for (std::size_t i = 0; i < y_ivs.size(); ++i) {
    row_members[rows.group_of[i]].push_back(input_of[i]);
  }

  // Second pass within each row: merge along x to form clips (intuition 2).
  for (std::size_t ri = 0; ri < rows.groups.size(); ++ri) {
    row& out = result.rows[ri];
    out.y_range = rows.groups[ri];
    const auto& members = row_members[ri];
    std::vector<interval> x_ivs;
    x_ivs.reserve(members.size());
    for (std::size_t j = 0; j < members.size(); ++j) {
      const rect r = mbrs[members[j]].inflated(h);
      x_ivs.push_back({r.x_min, r.x_max, static_cast<std::uint32_t>(j)});
    }
    const grouping cols = merge_1d(x_ivs, strategy);
    out.clips.resize(cols.groups.size());
    for (std::size_t ci = 0; ci < cols.groups.size(); ++ci) {
      out.clips[ci].x_range = cols.groups[ci];
    }
    for (std::size_t j = 0; j < members.size(); ++j) {
      out.clips[cols.group_of[j]].members.push_back(members[j]);
    }
  }
  return result;
}

}  // namespace odrc::partition
