// Device executor tests: the brute-force and two-kernel-sweep executors must
// agree with each other and with the host polygon drivers, including under
// output-buffer overflow and for both sweep axes.
#include "sweep/device_sweep.hpp"

#include <gtest/gtest.h>

#include <random>

#include "checks/poly_checks.hpp"

namespace odrc::sweep {
namespace {

device::stream& test_stream() {
  static device::stream s(device::context::instance());
  return s;
}

std::vector<checks::violation> run_device(std::span<const packed_edge> edges,
                                          const device_check_config& cfg, executor_choice choice,
                                          device_check_stats* stats_out = nullptr) {
  std::vector<checks::violation> out;
  device_check_stats stats;
  device_check_edges_with(test_stream(), edges, cfg, choice, out, stats);
  checks::normalize_all(out);
  if (stats_out) *stats_out = stats;
  return out;
}

// Random rectilinear "wire field": rectangles with varied sizes/positions.
std::vector<polygon> random_rects(int n, std::uint32_t seed, coord_t span = 2000) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<coord_t> pos(0, span);
  std::uniform_int_distribution<coord_t> size(5, 120);
  std::vector<polygon> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const coord_t x = pos(rng), y = pos(rng);
    out.push_back(polygon::from_rect({x, y, x + size(rng), y + size(rng)}));
  }
  return out;
}

std::vector<packed_edge> pack(std::span<const polygon> polys, std::uint16_t group = 0,
                              std::uint32_t id_base = 0) {
  std::vector<packed_edge> edges;
  for (std::size_t i = 0; i < polys.size(); ++i) {
    pack_polygon_edges(polys[i], id_base + static_cast<std::uint32_t>(i), group, edges);
  }
  return edges;
}

TEST(DeviceSweep, EmptyInput) {
  device_check_stats stats;
  std::vector<checks::violation> out;
  device_check_edges(test_stream(), {}, {pair_check::spacing, 18, 1, 1}, out, stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.edges_uploaded, 0u);
}

TEST(DeviceSweep, PackPolygonEdges) {
  std::vector<packed_edge> edges;
  pack_polygon_edges(polygon::from_rect({0, 0, 10, 20}), 7, 1, edges);
  ASSERT_EQ(edges.size(), 4u);
  for (const packed_edge& e : edges) {
    EXPECT_EQ(e.poly, 7u);
    EXPECT_EQ(e.group, 1);
  }
  EXPECT_EQ(edges[0].y_lo(), 0);
  EXPECT_EQ(edges[0].y_hi(), 20);
  EXPECT_EQ(edges[0].x_lo(), 0);
  EXPECT_EQ(edges[0].key_lo(true), edges[0].x_lo());
  EXPECT_EQ(edges[0].key_lo(false), edges[0].y_lo());
}

TEST(DeviceSweep, SpacingMatchesHostDriver) {
  const auto polys = random_rects(60, 42);
  const auto edges = pack(polys);
  const device_check_config cfg{pair_check::spacing, 18, 5, 5};

  // Host reference: all polygon pairs + notches via the shared drivers.
  std::vector<checks::violation> expected;
  checks::check_stats cs;
  for (std::size_t i = 0; i < polys.size(); ++i) {
    checks::check_spacing_notch(polys[i], 5, 18, expected, cs);
    for (std::size_t j = i + 1; j < polys.size(); ++j) {
      checks::check_spacing(polys[i], polys[j], 5, 18, expected, cs);
    }
  }
  checks::normalize_all(expected);

  EXPECT_EQ(run_device(edges, cfg, executor_choice::brute), expected);
  EXPECT_EQ(run_device(edges, cfg, executor_choice::sweep), expected);
}

TEST(DeviceSweep, WidthMatchesHostDriver) {
  // Mix of narrow and wide bars plus an L-shape.
  std::vector<polygon> polys{
      polygon::from_rect({0, 0, 10, 100}),
      polygon::from_rect({50, 0, 68, 100}),
      polygon::from_rect({100, 0, 117, 40}),
      polygon{{{200, 0}, {200, 100}, {210, 100}, {210, 30}, {260, 30}, {260, 0}}},
  };
  const auto edges = pack(polys);
  const device_check_config cfg{pair_check::width, 18, 5, 5};

  std::vector<checks::violation> expected;
  checks::check_stats cs;
  for (const polygon& p : polys) checks::check_width(p, 5, 18, expected, cs);
  checks::normalize_all(expected);
  ASSERT_FALSE(expected.empty());

  EXPECT_EQ(run_device(edges, cfg, executor_choice::brute), expected);
  EXPECT_EQ(run_device(edges, cfg, executor_choice::sweep), expected);
}

TEST(DeviceSweep, EnclosureMatchesHostDriver) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<coord_t> pos(0, 1000);
  std::vector<polygon> vias, metals;
  for (int i = 0; i < 40; ++i) {
    const coord_t x = pos(rng), y = pos(rng);
    vias.push_back(polygon::from_rect({x, y, x + 8, y + 8}));
    // Metal with randomized (sometimes violating) margins.
    const coord_t ml = static_cast<coord_t>(x - (i % 7));
    metals.push_back(polygon::from_rect({ml, y - 5, x + 13, y + 13}));
  }
  auto edges = pack(vias, 0, 0);
  auto metal_edges = pack(metals, 1, static_cast<std::uint32_t>(vias.size()));
  edges.insert(edges.end(), metal_edges.begin(), metal_edges.end());
  const device_check_config cfg{pair_check::enclosure, 5, 21, 19};

  std::vector<checks::violation> expected;
  checks::check_stats cs;
  for (const polygon& v : vias) {
    for (const polygon& m : metals) {
      checks::check_enclosure(v, m, 21, 19, 5, expected, cs);
    }
  }
  checks::normalize_all(expected);
  ASSERT_FALSE(expected.empty());

  EXPECT_EQ(run_device(edges, cfg, executor_choice::brute), expected);
  EXPECT_EQ(run_device(edges, cfg, executor_choice::sweep), expected);
}

TEST(DeviceSweep, AxesProduceIdenticalResults) {
  const auto polys = random_rects(120, 99);
  const auto edges = pack(polys);
  device_check_config ycfg{pair_check::spacing, 18, 5, 5, sweep_axis::y};
  device_check_config xcfg{pair_check::spacing, 18, 5, 5, sweep_axis::x};
  EXPECT_EQ(run_device(edges, ycfg, executor_choice::sweep),
            run_device(edges, xcfg, executor_choice::sweep));
}

TEST(DeviceSweep, OverflowRetryGrowsBuffer) {
  // A dense field with > 256 violations exercises the grow-and-relaunch
  // path (initial device buffer capacity is 256).
  std::vector<polygon> polys;
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 10; ++j) {
      // 20-wide bars with a 10 gap horizontally: every adjacent pair
      // violates spacing 18 several times.
      const coord_t x = static_cast<coord_t>(i * 30);
      const coord_t y = static_cast<coord_t>(j * 200);
      polys.push_back(polygon::from_rect({x, y, x + 20, y + 100}));
    }
  }
  const auto edges = pack(polys);
  device_check_stats stats;
  const auto out =
      run_device(edges, {pair_check::spacing, 18, 5, 5}, executor_choice::sweep, &stats);
  EXPECT_GT(out.size(), 256u);
  EXPECT_GE(stats.overflow_retries, 1u);

  // And the brute executor finds the same set.
  EXPECT_EQ(run_device(edges, {pair_check::spacing, 18, 5, 5}, executor_choice::brute), out);
}

TEST(DeviceSweep, AutomaticChoiceThreshold) {
  const auto small = pack(random_rects(5, 1));
  const auto big = pack(random_rects(200, 2));
  device_check_stats s1, s2;
  std::vector<checks::violation> out;
  device_check_edges(test_stream(), small, {pair_check::spacing, 18, 5, 5}, out, s1);
  EXPECT_EQ(s1.brute_launches, 1u);
  EXPECT_EQ(s1.sweep_launches, 0u);
  device_check_edges(test_stream(), big, {pair_check::spacing, 18, 5, 5}, out, s2);
  EXPECT_EQ(s2.brute_launches, 0u);
  EXPECT_GE(s2.sweep_launches, 1u);
}

TEST(DeviceSweep, AsyncOverlapsHostWork) {
  const auto polys = random_rects(300, 5);
  auto edges = pack(polys);
  const device_check_config cfg{pair_check::spacing, 18, 5, 5};
  async_multi_check check(test_stream(), std::move(edges), {cfg});
  // Host-side work here runs while the device processes the batch.
  int host_work = 0;
  for (int i = 0; i < 1000; ++i) host_work += i;
  EXPECT_EQ(host_work, 499500);
  std::vector<checks::violation> out;
  std::vector<checks::violation>* outs[] = {&out};
  device_check_stats stats;
  check.finish(outs, stats);
  EXPECT_GT(stats.edge_pairs_tested, 0u);
}

TEST(DeviceSweep, FinishOnEmptyBatchIsNoop) {
  async_multi_check check(test_stream(), {}, {{pair_check::width, 18, 1, 1}});
  std::vector<checks::violation> out;
  std::vector<checks::violation>* outs[] = {&out};
  device_check_stats stats;
  check.finish(outs, stats);
  check.finish(outs, stats);  // second call is also safe
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace odrc::sweep
