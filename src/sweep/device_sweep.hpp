// Parallel (device) check executors (paper Section IV-E).
//
// "Before checking, OpenDRC packs the edges of relevant polygons into a
//  flattened array, which is transferred from the host memory to the GPU
//  device memory. Depending on the complexity of each polygon or polygon
//  pair, OpenDRC selects either a brute-force executor or a sweepline
//  executor. For smaller tasks, parallel threads are launched for each
//  polygon (or pair), in which edge pairs are enumerated and checked. For
//  larger tasks, a parallel sweepline algorithm is performed [...]: firstly,
//  a parallel scan determines the check range of each edge; then parallel
//  threads are launched to perform the check between an edge and all other
//  edges within its check range."
//
// This module implements both executors against the simulated device
// (device/device.hpp). Edges are packed into POD `packed_edge` records
// sorted by their lower y coordinate; kernel 1 computes, for every edge, the
// end of its check range (the last edge whose span can lie within the rule
// distance); kernel 2 tests each edge against the edges in its range with
// the shared predicates from checks/edge_checks.hpp. Violations are appended
// to a device buffer through an atomic cursor; on overflow the host grows
// the buffer and relaunches kernel 2 (two kernel launches per retry, as the
// paper separates them "for efficient kernel code optimization").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "checks/edge_checks.hpp"
#include "checks/violation.hpp"
#include "device/device.hpp"
#include "infra/geometry.hpp"

namespace odrc::sweep {

/// POD edge record packed into the flat device array.
struct packed_edge {
  point from{};
  point to{};
  std::uint32_t poly = 0;   ///< flat polygon id (same-polygon filtering)
  std::uint16_t group = 0;  ///< 0 = primary/inner layer, 1 = secondary/outer layer
  std::uint16_t pad = 0;

  [[nodiscard]] edge to_edge() const { return {from, to}; }
  [[nodiscard]] coord_t y_lo() const { return std::min(from.y, to.y); }
  [[nodiscard]] coord_t y_hi() const { return std::max(from.y, to.y); }
  [[nodiscard]] coord_t x_lo() const { return std::min(from.x, to.x); }
  [[nodiscard]] coord_t x_hi() const { return std::max(from.x, to.x); }

  /// Sort/range key along the chosen sweep axis.
  [[nodiscard]] coord_t key_lo(bool axis_x) const { return axis_x ? x_lo() : y_lo(); }
  [[nodiscard]] coord_t key_hi(bool axis_x) const { return axis_x ? x_hi() : y_hi(); }
};

/// Direction the parallel sweep advances in. X-Check's global sweep is
/// vertical (sorted by y); OpenDRC's row pipeline sweeps each row along x,
/// because a row is a thin horizontal band — sorting by y there would put
/// every edge in every check range.
enum class sweep_axis : std::uint8_t { y, x };

/// Which pair predicate kernel 2 evaluates.
enum class pair_check : std::uint8_t {
  width,      ///< same-polygon interior-facing pairs, group 0 only
  spacing,    ///< inter-polygon pairs + same-polygon notches, group 0 only
  enclosure,  ///< (inner=group 0, outer=group 1) same-direction pairs
};

struct device_check_config {
  pair_check kind = pair_check::spacing;
  coord_t distance = 0;  ///< min width / MAX spacing / enclosure in dbu
  std::int16_t layer1 = 0;
  std::int16_t layer2 = 0;  ///< enclosure outer layer; else unused
  sweep_axis axis = sweep_axis::y;
  /// Conditional spacing tiers for spacing checks. When empty (count == 0)
  /// a single tier of `distance` is assumed. `distance` must equal the
  /// table's max_distance(): it sizes kernel 1's check ranges.
  checks::spacing_table table{};
};

struct device_check_stats {
  std::uint64_t edges_uploaded = 0;
  std::uint64_t edge_pairs_tested = 0;
  std::uint64_t sweep_launches = 0;
  std::uint64_t brute_launches = 0;
  std::uint64_t overflow_retries = 0;
  std::uint64_t simd_lanes_active = 0;  ///< box-filter survivors (simd:lanes_active)

  device_check_stats& operator+=(const device_check_stats& o) {
    edges_uploaded += o.edges_uploaded;
    edge_pairs_tested += o.edge_pairs_tested;
    sweep_launches += o.sweep_launches;
    brute_launches += o.brute_launches;
    overflow_retries += o.overflow_retries;
    simd_lanes_active += o.simd_lanes_active;
    return *this;
  }
};

/// Edge count at or below which the brute-force executor is selected
/// (overridable for the executor-cutoff ablation bench). Re-measured after
/// the SIMD pass (EXPERIMENTS.md §IV-E): the 8-wide filter speeds the sweep
/// executor more than brute, moving the crossover down from 64 — at 64
/// edges the sweep already wins; brute's launch-latency advantage ends at 32.
inline constexpr std::size_t default_brute_threshold = 32;

/// Run one check over a packed edge batch on the device, synchronously
/// (upload, kernels, download, convert). `edges` need not be pre-sorted.
/// Appends violations (top-cell coordinates) to `out`.
void device_check_edges(device::stream& s, std::span<const packed_edge> edges,
                        const device_check_config& cfg, std::vector<checks::violation>& out,
                        device_check_stats& stats,
                        std::size_t brute_threshold = default_brute_threshold);

/// Force a specific executor (ablation bench).
enum class executor_choice { automatic, brute, sweep };

void device_check_edges_with(device::stream& s, std::span<const packed_edge> edges,
                             const device_check_config& cfg, executor_choice choice,
                             std::vector<checks::violation>& out, device_check_stats& stats,
                             std::size_t brute_threshold = default_brute_threshold);

/// Asynchronous multi-predicate check: the deck-batching kernel entry (one
/// upload, N rules). Construction enqueues the upload and the check kernels
/// on the stream and returns immediately; the host is then free to
/// preprocess the next row while the device works (paper Section V-C).
/// finish() synchronizes, handles output-buffer overflow retries, downloads
/// and demultiplexes the results per config.
///
/// All configs must share `kind` and `axis` — the invariant of a batched
/// plan group (same-layer groups hold spacing rules, two-layer groups
/// enclosure rules). Kernel 1's check ranges are sized by the largest
/// distance in the batch; kernel 2 evaluates every config on each candidate
/// pair and tags hits with the config index.
class async_multi_check {
 public:
  async_multi_check(device::stream& s, std::vector<packed_edge> edges,
                    std::vector<device_check_config> cfgs,
                    executor_choice choice = executor_choice::automatic,
                    std::size_t brute_threshold = default_brute_threshold);
  ~async_multi_check();

  async_multi_check(const async_multi_check&) = delete;
  async_multi_check& operator=(const async_multi_check&) = delete;
  async_multi_check(async_multi_check&&) noexcept;
  async_multi_check& operator=(async_multi_check&&) noexcept;

  /// Blocks until the enqueued work completes; appends config k's violations
  /// to *outs[k]. outs.size() must equal the config count. Must be called
  /// exactly once.
  void finish(std::span<std::vector<checks::violation>* const> outs,
              device_check_stats& stats);

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

/// Pack one polygon's edges (appending), tagging them with `poly_id`/`group`.
void pack_polygon_edges(const polygon& poly, std::uint32_t poly_id, std::uint16_t group,
                        std::vector<packed_edge>& out);

}  // namespace odrc::sweep
