#include "sweep/device_sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>

#include "checks/edge_checks.hpp"
#include "device/device.hpp"
#include "infra/simd.hpp"
#include "infra/trace.hpp"

namespace odrc::sweep {

namespace {

/// Violation record produced on the device: indices into the uploaded edge
/// array, the measured quantity, and the index of the config whose predicate
/// fired (0 for single-predicate checks). Converted host-side.
struct hit {
  std::uint32_t i;
  std::uint32_t j;
  area_t measured;
  std::uint32_t rule;
};

/// Device-side output cursor + pair counter, placed in the device arena.
struct cursor_block {
  std::atomic<std::uint32_t> count;
  std::atomic<std::uint64_t> pairs;
  std::atomic<std::uint64_t> lanes;  ///< simd:lanes_active (filter survivors)
};

/// Per-device-thread violation emission batch (DESIGN.md §11): hits collect
/// into a local buffer and materialize into the shared output through ONE
/// atomic reservation per flush, instead of an atomic fetch_add plus a
/// capacity branch inside the innermost pair loop. The global count still
/// ends up equal to the total number of hits found (even past capacity), so
/// the host's overflow-retry protocol is unchanged.
struct emit_batch {
  static constexpr std::uint32_t local_cap = 64;
  hit buf[local_cap];
  std::uint32_t n = 0;

  void push(const hit& h, cursor_block* cur, hit* out, std::uint32_t out_cap) {
    buf[n++] = h;
    if (n == local_cap) flush(cur, out, out_cap);
  }

  void flush(cursor_block* cur, hit* out, std::uint32_t out_cap) {
    if (n == 0) return;
    const std::uint32_t base = cur->count.fetch_add(n, std::memory_order_relaxed);
    const std::uint32_t lim = base < out_cap ? std::min(n, out_cap - base) : 0;
    for (std::uint32_t k = 0; k < lim; ++k) out[base + k] = buf[k];
    n = 0;
  }
};

/// Sound per-edge candidate window: a pair can only violate when the boxes
/// are within the batch's max rule distance along BOTH axes (projected and
/// Euclidean separations are each bounded below by the per-axis box gaps),
/// so filtering on the closed inflated window never drops a violation.
simd::filter_bounds edge_bounds(const simd::edge_soa& soa, std::uint32_t i, coord_t dist) {
  return simd::make_bounds(soa.x_lo[i], soa.x_hi[i], soa.y_lo[i], soa.y_hi[i], dist);
}

/// Evaluate one config's predicate on a candidate pair. Returns the measured
/// quantity when violating.
std::optional<area_t> eval_pair(const packed_edge& a, const packed_edge& b,
                                const device_check_config& cfg) {
  switch (cfg.kind) {
    case pair_check::width: {
      if (a.poly != b.poly || a.group != 0 || b.group != 0) return std::nullopt;
      if (auto d = checks::check_width_pair(a.to_edge(), b.to_edge(), cfg.distance)) {
        return static_cast<area_t>(*d) * *d;
      }
      return std::nullopt;
    }
    case pair_check::spacing: {
      if (a.group != 0 || b.group != 0) return std::nullopt;
      const checks::spacing_table table =
          cfg.table.count > 0 ? cfg.table : checks::spacing_table::simple(cfg.distance);
      return checks::check_space_pair_table(a.to_edge(), b.to_edge(), a.poly == b.poly, table);
    }
    case pair_check::enclosure: {
      // Ordered: inner = group 0, outer = group 1.
      const packed_edge* inner = nullptr;
      const packed_edge* outer = nullptr;
      if (a.group == 0 && b.group == 1) {
        inner = &a;
        outer = &b;
      } else if (a.group == 1 && b.group == 0) {
        inner = &b;
        outer = &a;
      } else {
        return std::nullopt;
      }
      if (auto m =
              checks::check_enclosure_pair(inner->to_edge(), outer->to_edge(), cfg.distance)) {
        return static_cast<area_t>(*m) * *m;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

/// Convert device hits to violation records using the host copy of the
/// uploaded edges, demultiplexed per config.
void convert_hits(std::span<const packed_edge> edges, std::span<const hit> hits,
                  std::span<const device_check_config> cfgs,
                  std::span<std::vector<checks::violation>* const> outs) {
  for (const hit& h : hits) {
    const packed_edge& a = edges[h.i];
    const packed_edge& b = edges[h.j];
    const device_check_config& cfg = cfgs[h.rule];
    std::vector<checks::violation>& out = *outs[h.rule];
    switch (cfg.kind) {
      case pair_check::width:
        out.push_back({checks::rule_kind::width, cfg.layer1, cfg.layer1, a.to_edge(), b.to_edge(),
                       h.measured});
        break;
      case pair_check::spacing:
        out.push_back({checks::rule_kind::spacing, cfg.layer1, cfg.layer1, a.to_edge(),
                       b.to_edge(), h.measured});
        break;
      case pair_check::enclosure: {
        const packed_edge& inner = a.group == 0 ? a : b;
        const packed_edge& outer = a.group == 0 ? b : a;
        out.push_back({checks::rule_kind::enclosure, cfg.layer1, cfg.layer2, inner.to_edge(),
                       outer.to_edge(), h.measured});
        break;
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// async_multi_check
// ---------------------------------------------------------------------------

struct async_multi_check::impl {
  device::stream& s;
  std::vector<device_check_config> cfgs;
  coord_t max_distance = 0;  // kernel 1 range bound, sound for every config
  bool use_brute = false;

  std::vector<packed_edge> edges;          // host copy in device order
  std::vector<std::uint32_t> offsets;      // brute: per-polygon edge ranges
  std::uint32_t inner_polys = 0;           // brute: count of group-0 polygons
  device::buffer<packed_edge> dev_edges;
  device::buffer<device_check_config> dev_cfgs;
  device::buffer<std::uint32_t> dev_aux;   // sweep: range_end; brute: offsets
  std::vector<coord_t> host_soa;           // [x_lo | x_hi | y_lo | y_hi], padded
  device::buffer<coord_t> dev_soa;
  std::uint32_t padded_n = 0;
  cursor_block* cursor = nullptr;
  device::buffer<hit> hit_buf;
  std::uint32_t capacity = 0;
  bool finished = false;

  /// Dispatch tier captured at enqueue time (simd.hpp: per-process dispatch,
  /// but a set_mode between enqueue and finish must not split one check
  /// across tiers).
  simd::tier simd_tier = simd::active();

  std::uint64_t launches_sweep = 0;
  std::uint64_t launches_brute = 0;
  std::uint64_t retries = 0;

  explicit impl(device::stream& stream) : s(stream) {}

  /// Build and upload the padded SoA mirror of the (already sorted) edge
  /// array: the 8-wide filter loads contiguous x_lo/x_hi/y_lo/y_hi lanes
  /// instead of gathering through 24-byte AoS records. Padding lanes carry
  /// never-matching sentinels; they are additionally masked off by index.
  void build_soa() {
    const auto n = static_cast<std::uint32_t>(edges.size());
    padded_n = simd::padded_size(n);
    host_soa.assign(static_cast<std::size_t>(padded_n) * 4, 0);
    coord_t* xl = host_soa.data();
    coord_t* xh = xl + padded_n;
    coord_t* yl = xh + padded_n;
    coord_t* yh = yl + padded_n;
    for (std::uint32_t i = 0; i < n; ++i) {
      xl[i] = edges[i].x_lo();
      xh[i] = edges[i].x_hi();
      yl[i] = edges[i].y_lo();
      yh[i] = edges[i].y_hi();
    }
    for (std::uint32_t i = n; i < padded_n; ++i) {
      xl[i] = std::numeric_limits<coord_t>::max();
      xh[i] = std::numeric_limits<coord_t>::min();
      yl[i] = std::numeric_limits<coord_t>::max();
      yh[i] = std::numeric_limits<coord_t>::min();
    }
    dev_soa = device::buffer<coord_t>(host_soa.size(), s.ctx());
    dev_soa.upload(s, host_soa);
  }

  /// SoA view over the device copy.
  [[nodiscard]] simd::edge_soa device_soa() const {
    const coord_t* base = dev_soa.device_ptr();
    return {base, base + padded_n, base + 2 * padded_n, base + 3 * padded_n};
  }

  ~impl() {
    if (cursor) {
      s.synchronize();
      cursor->~cursor_block();
      s.ctx().free(cursor);
    }
  }

  void enqueue_reset() {
    cursor_block* c = cursor;
    s.launch(1, 1, [c](device::thread_id) {
      c->count.store(0, std::memory_order_relaxed);
      c->pairs.store(0, std::memory_order_relaxed);
      c->lanes.store(0, std::memory_order_relaxed);
    });
  }

  void enqueue_sweep_kernels(bool first_time) {
    const auto n = static_cast<std::uint32_t>(edges.size());
    constexpr std::uint32_t block = 128;
    const std::uint32_t grid = (n + block - 1) / block;
    packed_edge* ep = dev_edges.device_ptr();
    std::uint32_t* rep = dev_aux.device_ptr();
    const coord_t dist = max_distance;
    const bool ax = cfgs.front().axis == sweep_axis::x;
    const simd::edge_soa soa = device_soa();
    const simd::tier st = simd_tier;

    if (first_time) {
      // Kernel 1: check-range scan. Edge i's candidates are the edges j > i
      // (sorted by lower sweep-axis key) whose lower key is at most
      // key_hi(i) + distance — a sound bound because violating pairs are
      // within `distance` along every axis; the batch's MAX distance is
      // sound for every config. The sorted keys live in the SoA mirror, so
      // the scan is an 8-wide linear probe with a binary-search fallback
      // (simd::range_end); the bound saturates at the int32 limit instead of
      // wrapping for extreme coordinates (widening is sound).
      s.launch(grid, block, [soa, rep, n, dist, ax, st](device::thread_id t) {
        const std::uint32_t i = t.global();
        if (i >= n) return;
        const coord_t* keys = ax ? soa.x_lo : soa.y_lo;
        const coord_t key_hi = ax ? soa.x_hi[i] : soa.y_hi[i];
        const std::int64_t wide = static_cast<std::int64_t>(key_hi) + dist;
        const coord_t bound = wide > std::numeric_limits<coord_t>::max()
                                  ? std::numeric_limits<coord_t>::max()
                                  : static_cast<coord_t>(wide);
        rep[i] = simd::range_end(st, keys, i + 1, n, bound);
      });
    }

    // Kernel 2: per-edge range checks. The 8-wide box filter prunes the
    // candidate range down to pairs that can possibly violate; survivors run
    // every config's exact scalar predicate; hits emit through the batched
    // per-thread buffer (one atomic reservation per flush).
    hit* out_hits = hit_buf.device_ptr();
    const std::uint32_t cap = capacity;
    const device_check_config* cp = dev_cfgs.device_ptr();
    const auto ncfg = static_cast<std::uint32_t>(cfgs.size());
    cursor_block* cur = cursor;
    s.launch(grid, block,
             [ep, soa, rep, n, dist, cp, ncfg, out_hits, cap, cur, st](device::thread_id t) {
      const std::uint32_t i = t.global();
      if (i >= n) return;
      std::uint64_t tested = 0;
      std::uint64_t lanes = 0;
      emit_batch batch;
      const simd::filter_bounds b = edge_bounds(soa, i, dist);
      simd::for_candidates(st, soa, i + 1, rep[i], b, lanes, [&](std::uint32_t j) {
        for (std::uint32_t r = 0; r < ncfg; ++r) {
          ++tested;
          if (auto m = eval_pair(ep[i], ep[j], cp[r])) {
            batch.push({i, j, *m, r}, cur, out_hits, cap);
          }
        }
      });
      batch.flush(cur, out_hits, cap);
      cur->pairs.fetch_add(tested, std::memory_order_relaxed);
      cur->lanes.fetch_add(lanes, std::memory_order_relaxed);
    });
    ++launches_sweep;
  }

  void enqueue_brute_kernel() {
    const auto poly_count = static_cast<std::uint32_t>(offsets.size() - 1);
    // Task space: width -> one thread per polygon; spacing -> one thread per
    // unordered polygon pair incl. the diagonal (notches); enclosure -> one
    // thread per (inner, outer) pair. All configs share `kind`, so one
    // decomposition serves the whole batch.
    std::uint64_t tasks = 0;
    switch (cfgs.front().kind) {
      case pair_check::width: tasks = inner_polys; break;
      case pair_check::spacing:
        tasks = static_cast<std::uint64_t>(inner_polys) * (inner_polys + 1) / 2;
        break;
      case pair_check::enclosure:
        tasks = static_cast<std::uint64_t>(inner_polys) * (poly_count - inner_polys);
        break;
    }
    if (tasks == 0) return;

    constexpr std::uint32_t block = 64;
    const auto grid = static_cast<std::uint32_t>((tasks + block - 1) / block);
    packed_edge* ep = dev_edges.device_ptr();
    std::uint32_t* op = dev_aux.device_ptr();
    hit* out_hits = hit_buf.device_ptr();
    const std::uint32_t cap = capacity;
    const device_check_config* cp = dev_cfgs.device_ptr();
    const auto ncfg = static_cast<std::uint32_t>(cfgs.size());
    const pair_check kind = cfgs.front().kind;
    const std::uint32_t inner = inner_polys;
    const coord_t dist = max_distance;
    const simd::edge_soa soa = device_soa();
    const simd::tier st = simd_tier;
    cursor_block* cur = cursor;

    s.launch(grid, block,
             [ep, op, soa, cp, ncfg, kind, tasks, inner, dist, out_hits, cap, cur,
              st](device::thread_id t) {
      const std::uint64_t task = t.global();
      if (task >= tasks) return;
      std::uint32_t pa = 0, pb = 0;
      switch (kind) {
        case pair_check::width:
          pa = pb = static_cast<std::uint32_t>(task);
          break;
        case pair_check::spacing: {
          // Row-major triangular decode over unordered pairs p <= q.
          std::uint64_t rem = task;
          std::uint32_t p = 0;
          std::uint32_t row = inner;
          while (rem >= row) {
            rem -= row;
            --row;
            ++p;
          }
          pa = p;
          pb = p + static_cast<std::uint32_t>(rem);
          break;
        }
        case pair_check::enclosure:
          pa = static_cast<std::uint32_t>(task % inner);
          pb = inner + static_cast<std::uint32_t>(task / inner);
          break;
      }
      std::uint64_t tested = 0;
      std::uint64_t lanes = 0;
      emit_batch batch;
      const std::uint32_t a_lo = op[pa], a_hi = op[pa + 1];
      const std::uint32_t b_lo = op[pb], b_hi = op[pb + 1];
      for (std::uint32_t i = a_lo; i < a_hi; ++i) {
        const std::uint32_t j_start = (pa == pb) ? i + 1 : b_lo;
        if (j_start >= b_hi) continue;
        // 8-wide box filter over polygon b's contiguous edge range; survivors
        // run the exact scalar predicates, hits batch through one reservation.
        const simd::filter_bounds bounds = edge_bounds(soa, i, dist);
        simd::for_candidates(st, soa, j_start, b_hi, bounds, lanes, [&](std::uint32_t j) {
          for (std::uint32_t r = 0; r < ncfg; ++r) {
            ++tested;
            if (auto m = eval_pair(ep[i], ep[j], cp[r])) {
              batch.push({i, j, *m, r}, cur, out_hits, cap);
            }
          }
        });
      }
      batch.flush(cur, out_hits, cap);
      cur->pairs.fetch_add(tested, std::memory_order_relaxed);
      cur->lanes.fetch_add(lanes, std::memory_order_relaxed);
    });
    ++launches_brute;
  }
};

async_multi_check::async_multi_check(device::stream& s, std::vector<packed_edge> edges,
                                     std::vector<device_check_config> cfgs,
                                     executor_choice choice, std::size_t brute_threshold)
    : impl_(std::make_unique<impl>(s)) {
  impl& st = *impl_;
  trace::span ts("sweep", "enqueue", "edges", static_cast<std::int64_t>(edges.size()), "stream",
                 s.id());
  assert(!cfgs.empty());
  assert(std::all_of(cfgs.begin(), cfgs.end(), [&](const device_check_config& c) {
    return c.kind == cfgs.front().kind && c.axis == cfgs.front().axis;
  }));
  st.cfgs = std::move(cfgs);
  for (const device_check_config& c : st.cfgs) {
    st.max_distance = std::max(st.max_distance, c.distance);
  }
  st.edges = std::move(edges);
  if (st.edges.empty()) {
    st.finished = true;  // nothing enqueued; finish() becomes a no-op
    return;
  }
  st.use_brute = choice == executor_choice::brute ||
                 (choice == executor_choice::automatic && st.edges.size() <= brute_threshold);

  device::context& ctx = s.ctx();
  const auto n = static_cast<std::uint32_t>(st.edges.size());

  if (st.use_brute) {
    // Group edges by (group, polygon) and build the offset table.
    std::sort(st.edges.begin(), st.edges.end(), [](const packed_edge& a, const packed_edge& b) {
      if (a.group != b.group) return a.group < b.group;
      return a.poly < b.poly;
    });
    for (std::uint32_t i = 0; i < n; ++i) {
      if (i == 0 || st.edges[i].poly != st.edges[i - 1].poly ||
          st.edges[i].group != st.edges[i - 1].group) {
        st.offsets.push_back(i);
        if (st.edges[i].group == 0) ++st.inner_polys;
      }
    }
    st.offsets.push_back(n);
    st.dev_aux = device::buffer<std::uint32_t>(st.offsets.size(), ctx);
    st.dev_aux.upload(s, st.offsets);
  } else {
    // Sort by the lower sweep-axis key.
    const bool ax = st.cfgs.front().axis == sweep_axis::x;
    std::sort(st.edges.begin(), st.edges.end(), [ax](const packed_edge& a, const packed_edge& b) {
      return a.key_lo(ax) < b.key_lo(ax);
    });
    st.dev_aux = device::buffer<std::uint32_t>(n, ctx);
  }

  st.dev_edges = device::buffer<packed_edge>(n, ctx);
  st.dev_edges.upload(s, st.edges);
  st.build_soa();
  st.dev_cfgs = device::buffer<device_check_config>(st.cfgs.size(), ctx);
  st.dev_cfgs.upload(s, st.cfgs);

  st.cursor = static_cast<cursor_block*>(ctx.malloc(sizeof(cursor_block)));
  new (st.cursor) cursor_block{};
  st.capacity = 256;
  st.hit_buf = device::buffer<hit>(st.capacity, ctx);

  st.enqueue_reset();
  if (st.use_brute) {
    st.enqueue_brute_kernel();
  } else {
    st.enqueue_sweep_kernels(/*first_time=*/true);
  }
}

async_multi_check::~async_multi_check() = default;
async_multi_check::async_multi_check(async_multi_check&&) noexcept = default;
async_multi_check& async_multi_check::operator=(async_multi_check&&) noexcept = default;

void async_multi_check::finish(std::span<std::vector<checks::violation>* const> outs,
                               device_check_stats& stats) {
  if (!impl_) return;  // moved-from
  impl& st = *impl_;
  if (st.finished) return;
  st.finished = true;
  assert(outs.size() == st.cfgs.size());
  device::stream& s = st.s;
  trace::span ts("sweep", "finish", "edges", static_cast<std::int64_t>(st.edges.size()), "stream",
                 s.id());

  for (;;) {
    s.synchronize();
    const std::uint32_t found = st.cursor->count.load(std::memory_order_relaxed);
    const std::uint64_t pairs = st.cursor->pairs.load(std::memory_order_relaxed);
    const std::uint64_t lanes = st.cursor->lanes.load(std::memory_order_relaxed);
    if (found <= st.capacity) {
      stats.edge_pairs_tested += pairs;
      stats.simd_lanes_active += lanes;
      trace::instant("sweep", "edge_pairs_tested", "delta", static_cast<std::int64_t>(pairs));
      trace::instant("simd", "lanes_active", "delta", static_cast<std::int64_t>(lanes));
      std::vector<hit> hits(found);
      if (found > 0) {
        st.hit_buf.download(s, hits);
        s.synchronize();
      }
      convert_hits(st.edges, hits, st.cfgs, outs);
      break;
    }
    // Overflow: grow the output buffer and relaunch the check kernel (the
    // range scan from kernel 1 is still valid).
    ++st.retries;
    st.capacity = found;
    st.hit_buf = device::buffer<hit>(st.capacity, s.ctx());
    st.enqueue_reset();
    if (st.use_brute) {
      st.enqueue_brute_kernel();
    } else {
      st.enqueue_sweep_kernels(/*first_time=*/false);
    }
  }

  stats.edges_uploaded += st.edges.size();
  stats.sweep_launches += st.launches_sweep;
  stats.brute_launches += st.launches_brute;
  stats.overflow_retries += st.retries;
  // Delta samples: the metrics summary sums "delta" instants per key, so the
  // trace totals can be reconciled against device_check_stats.
  trace::instant("sweep", "edges_uploaded", "delta", static_cast<std::int64_t>(st.edges.size()));
  trace::instant("sweep", "sweep_launches", "delta", static_cast<std::int64_t>(st.launches_sweep));
  trace::instant("sweep", "brute_launches", "delta", static_cast<std::int64_t>(st.launches_brute));
  trace::instant("sweep", "overflow_retries", "delta", static_cast<std::int64_t>(st.retries));
  trace::counter("simd", "tier", static_cast<std::int64_t>(st.simd_tier));
}

// ---------------------------------------------------------------------------
// Synchronous wrappers
// ---------------------------------------------------------------------------

void pack_polygon_edges(const polygon& poly, std::uint32_t poly_id, std::uint16_t group,
                        std::vector<packed_edge>& out) {
  const std::size_t n = poly.edge_count();
  for (std::size_t i = 0; i < n; ++i) {
    const edge e = poly.edge_at(i);
    out.push_back({e.from, e.to, poly_id, group, 0});
  }
}

void device_check_edges_with(device::stream& s, std::span<const packed_edge> edges,
                             const device_check_config& cfg, executor_choice choice,
                             std::vector<checks::violation>& out, device_check_stats& stats,
                             std::size_t brute_threshold) {
  async_multi_check check(s, std::vector<packed_edge>(edges.begin(), edges.end()), {cfg}, choice,
                          brute_threshold);
  std::vector<checks::violation>* outs[] = {&out};
  check.finish(outs, stats);
}

void device_check_edges(device::stream& s, std::span<const packed_edge> edges,
                        const device_check_config& cfg, std::vector<checks::violation>& out,
                        device_check_stats& stats, std::size_t brute_threshold) {
  device_check_edges_with(s, edges, cfg, executor_choice::automatic, out, stats, brute_threshold);
}

}  // namespace odrc::sweep
