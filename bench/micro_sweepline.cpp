// Sweepline / interval-tree micro-benchmarks (paper Section IV-D, Fig. 3):
// the O(n log n + k) sweepline MBR-overlap report against the O(n^2) scan,
// and raw interval-tree operation throughput. Registered into the
// odrc::bench harness: one case per (algorithm, n); sub-millisecond
// operations run a fixed inner batch per sample.
#include <random>
#include <string>
#include <vector>

#include "infra/bench_harness.hpp"
#include "infra/interval_tree.hpp"
#include "infra/simd.hpp"
#include "sweep/sweepline.hpp"

namespace {

using namespace odrc;

std::vector<rect> make_rects(std::size_t n, coord_t span) {
  std::mt19937 rng(n);
  std::uniform_int_distribution<coord_t> pos(0, span);
  std::uniform_int_distribution<coord_t> size(10, 120);
  std::vector<rect> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const coord_t x = pos(rng), y = pos(rng);
    out.push_back({x, y, static_cast<coord_t>(x + size(rng)), static_cast<coord_t>(y + size(rng))});
  }
  return out;
}

template <typename Fn>
void add_overlap_case(bench::suite& s, const std::string& name, std::size_t n, Fn count_pairs) {
  s.add(name + "/n=" + std::to_string(n), [n, count_pairs](bench::case_context& ctx) {
    const auto rects = make_rects(n, 50000);
    std::uint64_t pairs = 0;
    while (ctx.next_rep()) pairs = count_pairs(rects);
    ctx.counter("items", static_cast<double>(n));
    ctx.counter("pairs", static_cast<double>(pairs));
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::suite s("micro_sweepline");
  if (auto rc = s.parse(argc, argv)) return *rc;
  const bool quick = s.opts().quick;

  const std::vector<std::size_t> sweep_ns =
      quick ? std::vector<std::size_t>{1 << 10, 1 << 13}
            : std::vector<std::size_t>{1 << 10, 1 << 13, 1 << 15, 1 << 17};
  // simd-off ablation: the "_nosimd" column forces the scalar live-interval
  // filter, isolating the AVX2 kernels' contribution.
  for (const std::size_t n : sweep_ns) {
    add_overlap_case(s, "sweepline_overlap", n, [](const std::vector<rect>& rects) {
      simd::set_mode(simd::mode::automatic);
      std::uint64_t pairs = 0;
      sweep::overlap_pairs(rects, [&](std::uint32_t, std::uint32_t) { ++pairs; });
      return pairs;
    });
    add_overlap_case(s, "sweepline_overlap_nosimd", n, [](const std::vector<rect>& rects) {
      simd::set_mode(simd::mode::off);
      std::uint64_t pairs = 0;
      sweep::overlap_pairs(rects, [&](std::uint32_t, std::uint32_t) { ++pairs; });
      simd::set_mode(simd::mode::automatic);
      return pairs;
    });
  }

  const std::vector<std::size_t> brute_ns =
      quick ? std::vector<std::size_t>{1 << 10}
            : std::vector<std::size_t>{1 << 10, 1 << 13, 1 << 15};
  for (const std::size_t n : brute_ns) {
    add_overlap_case(s, "brute_overlap", n, [](const std::vector<rect>& rects) {
      std::uint64_t pairs = 0;
      for (std::size_t i = 0; i < rects.size(); ++i) {
        for (std::size_t j = i + 1; j < rects.size(); ++j) {
          if (rects[i].overlaps(rects[j])) ++pairs;
        }
      }
      return pairs;
    });
  }

  const std::vector<std::size_t> tree_ns =
      quick ? std::vector<std::size_t>{1 << 10}
            : std::vector<std::size_t>{1 << 10, 1 << 14, 1 << 16};
  for (const std::size_t n : tree_ns) {
    s.add("interval_tree_insert_remove/n=" + std::to_string(n),
          [n](bench::case_context& ctx) {
            std::mt19937 rng(3);
            std::uniform_int_distribution<coord_t> lo(0, 100000);
            std::vector<interval> ivs;
            ivs.reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
              const coord_t l = lo(rng);
              ivs.push_back({l, static_cast<coord_t>(l + 100), static_cast<std::uint32_t>(i)});
            }
            while (ctx.next_rep()) {
              interval_tree t;
              for (const interval& iv : ivs) t.insert(iv);
              for (const interval& iv : ivs) t.remove(iv);
            }
            ctx.counter("items", static_cast<double>(2 * n));
          });

    s.add("interval_tree_query/n=" + std::to_string(n), [n](bench::case_context& ctx) {
      std::mt19937 rng(5);
      std::uniform_int_distribution<coord_t> lo(0, 100000);
      interval_tree t;
      for (std::size_t i = 0; i < n; ++i) {
        const coord_t l = lo(rng);
        t.insert({l, static_cast<coord_t>(l + 100), static_cast<std::uint32_t>(i)});
      }
      // A single query is microseconds: batch 4096 per sample.
      constexpr std::size_t inner = 4096;
      std::vector<std::uint32_t> hits;
      std::size_t q = 0;
      while (ctx.next_rep()) {
        for (std::size_t i = 0; i < inner; ++i) {
          hits.clear();
          const coord_t l = lo(rng);
          t.query({l, static_cast<coord_t>(l + 200), static_cast<std::uint32_t>(q++)}, hits);
        }
      }
      ctx.counter("items", static_cast<double>(inner));
    });
  }

  return s.run();
}
