// Tests for the deck-wide layout snapshot and the parallel row pipeline.
// The snapshot (one shared mbr_index + view cache + memoized instance lists
// + master-local packed edges per check call) must be invisible in the
// results: every mode, mixed decks, multiple top cells, windowed region
// checks and concurrent execution report exactly what solo per-rule runs
// (check(lib, rule), each over its own fresh snapshot) report. The parallel
// branch's row pipeline must be deterministic across pipeline depths (and
// worker counts — exercised by the SnapshotWorkers* ctest entries, since
// the global pool is sized once per process). The env-gated overlap test
// asserts the point of the pipeline: the driver packing a row while the
// device streams run earlier rows.
#include "engine/snapshot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "engine/plan.hpp"
#include "infra/trace.hpp"
#include "workload/workload.hpp"

namespace odrc::engine {
namespace {

using workload::layers;
using workload::tech;

std::vector<checks::violation> norm(std::vector<checks::violation> v) {
  checks::normalize_all(v);
  return v;
}

// A deck mixing pair rules (spacing, enclosure) with intra rules (width,
// area) so both the packed-edge cache and the per-master memo paths run.
std::vector<rules::rule> mixed_deck() {
  return {
      rules::layer(layers::M1).spacing().greater_than(tech::wire_space),
      rules::layer(layers::M2).spacing().greater_than(tech::wire_space),
      rules::layer(layers::V1).enclosed_by(layers::M1).greater_than(tech::via_enclosure),
      rules::layer(layers::M1).width().greater_than(tech::wire_width),
      rules::layer(layers::M1).area().greater_than(tech::min_area),
  };
}

workload::design_spec base_spec() {
  workload::design_spec spec = workload::spec_for("uart", 0.3);
  spec.inject = {2, 2, 1, 1};
  return spec;
}

// The generated design plus a second top cell whose private master is placed
// in all eight orientations and magnified — the packed-master-edge cache has
// to reproduce every placement class from one master-local extraction.
db::library two_top_lib() {
  db::library lib = workload::generate(base_spec()).lib;

  const db::cell_id leaf = lib.add_cell("snap_leaf");
  lib.at(leaf).add_rect(layers::M1, {0, 0, 40, 10});
  db::polygon_elem notch;
  notch.layer = layers::M1;
  // Ring stored clockwise, as the db invariant requires.
  notch.poly = polygon({{0, 22}, {26, 22}, {26, 34}, {40, 34}, {40, 14}, {0, 14}});
  lib.at(leaf).add_polygon(std::move(notch));
  lib.at(leaf).add_rect(layers::M2, {0, 40, 30, 48});

  const db::cell_id extra = lib.add_cell("snap_extra_top");
  coord_t x = 0;
  for (std::uint16_t rot = 0; rot < 4; ++rot) {
    for (const bool refl : {false, true}) {
      lib.at(extra).add_ref({leaf, transform{{x, 0}, rot, refl, 1}});
      x += 120;
    }
  }
  lib.at(extra).add_ref({leaf, transform{{x, 0}, 0, false, 2}});

  // Deterministic violations local to the second top: a too-close M1 pair
  // and an off-center via.
  lib.at(extra).add_rect(layers::M1, {0, 200, 60, 218});
  lib.at(extra).add_rect(layers::M1, {0, 221, 60, 239});
  lib.at(extra).add_rect(layers::M1, {200, 200, 220, 220});
  lib.at(extra).add_rect(layers::V1, {201, 206, 209, 214});
  return lib;
}

// The deck run over one shared snapshot must agree rule-for-rule with solo
// runs that each rebuild the snapshot, in both modes, including the per-rule
// attribution of check_deck.
TEST(SnapshotEquivalence, MixedDeckMatchesPerGroupRebuild) {
  const db::library lib = two_top_lib();
  ASSERT_GE(lib.top_cells().size(), 2u);
  const std::vector<rules::rule> deck = mixed_deck();

  for (const mode m : {mode::sequential, mode::parallel}) {
    engine_config cfg;
    cfg.run_mode = m;
    drc_engine e(cfg);
    e.add_rules(deck);
    const deck_report dr = e.check_deck(lib);

    ASSERT_EQ(dr.per_rule.size(), deck.size());
    bool any = false;
    for (std::size_t i = 0; i < deck.size(); ++i) {
      EXPECT_EQ(norm(dr.per_rule[i].violations), norm(e.check(lib, deck[i]).violations))
          << "mode=" << static_cast<int>(m) << " rule " << i;
      any = any || !dr.per_rule[i].violations.empty();
    }
    EXPECT_TRUE(any);
  }
}

// The second top cell is really checked through the snapshot: its injected
// violations are on top of the generated design's.
TEST(SnapshotEquivalence, SecondTopCellContributes) {
  const db::library base = workload::generate(base_spec()).lib;
  const db::library both = two_top_lib();

  drc_engine e;
  e.add_rules({rules::layer(layers::M1).spacing().greater_than(tech::wire_space)});
  EXPECT_GT(e.check(both).violations.size(), e.check(base).violations.size());
}

// Windowed region checks over one shared snapshot (the plan-level
// check_region) must agree rule-for-rule with single-rule check_region runs,
// each over its own snapshot, for a pair rule and an enclosure rule, both
// modes.
TEST(SnapshotEquivalence, WindowedRegionCheckMatches) {
  const db::library lib = two_top_lib();
  const rect window{0, 0, 2500, 1500};
  const std::vector<rules::rule> probes = {
      rules::layer(layers::M1).spacing().greater_than(tech::wire_space),
      rules::layer(layers::V1).enclosed_by(layers::M1).greater_than(tech::via_enclosure),
  };
  std::vector<exec_plan> plans;
  for (const rules::rule& r : probes) plans.push_back(compile_plan(r));

  for (const mode m : {mode::sequential, mode::parallel}) {
    engine_config cfg;
    cfg.run_mode = m;
    drc_engine e(cfg);
    layout_snapshot snap(lib);
    const deck_report dr = e.check_region(plans, snap, window);
    ASSERT_EQ(dr.per_rule.size(), probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(norm(dr.per_rule[i].violations),
                norm(e.check_region(lib, probes[i], window).violations))
          << "mode=" << static_cast<int>(m) << " rule " << i;
    }
  }
}

// check_concurrent shares ONE snapshot across its group tasks; the shared
// cache must not change what solo runs, each over a fresh snapshot, report.
TEST(SnapshotEquivalence, ConcurrentSharesOneSnapshot) {
  const db::library lib = two_top_lib();
  const std::vector<rules::rule> deck = mixed_deck();

  for (const mode m : {mode::sequential, mode::parallel}) {
    engine_config cfg;
    cfg.run_mode = m;
    drc_engine e(cfg);
    e.add_rules(deck);
    const auto vs = norm(e.check_concurrent(lib).violations);
    EXPECT_FALSE(vs.empty());
    std::vector<checks::violation> solo;
    for (const rules::rule& r : deck) {
      const auto rv = e.check(lib, r).violations;
      solo.insert(solo.end(), rv.begin(), rv.end());
    }
    EXPECT_EQ(vs, norm(solo)) << "mode=" << static_cast<int>(m);
    EXPECT_EQ(vs, norm(e.check(lib).violations)) << "mode=" << static_cast<int>(m);
  }
}

// A frozen backing with no records that counts packed-edge lookups: every
// packed() build asks it once before packing from the library. The lookup
// sleeps so that concurrent misses overlap the build.
class counting_backing : public frozen_backing {
 public:
  bool fill_view(db::cell_id, std::int32_t, master_layer_view&) const override { return false; }
  bool fill_instances(db::cell_id, std::int32_t, instance_set&) const override { return false; }
  bool fill_packed(db::cell_id, std::int32_t, packed_master_edges&) const override {
    ++packed_lookups;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return false;
  }
  db::mbr_index make_index(const db::library& lib) const override { return db::mbr_index(lib); }

  mutable std::atomic<int> packed_lookups{0};
};

// check_concurrent tasks share one snapshot, so two groups may miss the same
// (master, layer) at once: the later callers wait for the first build instead
// of packing again, and all get the one cached entry.
TEST(SnapshotPacked, ConcurrentMissesBuildOnce) {
  db::library lib;
  const db::cell_id master = lib.add_cell("leaf");
  lib.at(master).add_rect(layers::M1, {0, 0, 40, 10});
  lib.at(master).add_rect(layers::M1, {0, 20, 40, 30});
  const auto backing = std::make_shared<counting_backing>();
  layout_snapshot snap(lib, backing);

  constexpr int threads = 4;
  std::atomic<int> ready{0};
  std::vector<const packed_master_edges*> got(threads, nullptr);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ++ready;
      while (ready.load() < threads) std::this_thread::yield();
      got[static_cast<std::size_t>(t)] = &snap.packed(master, layers::M1);
    });
  }
  for (std::thread& th : pool) th.join();

  EXPECT_EQ(backing->packed_lookups.load(), 1);
  for (const packed_master_edges* p : got) EXPECT_EQ(p, got.front());
  EXPECT_FALSE(got.front()->edges.empty());
}

// Row pipelining must be invisible: the parallel branch reports the same
// violations whatever the pipeline depth, and the same as sequential.
// The SnapshotWorkers1/SnapshotWorkers4 ctest entries re-run this suite
// with ODRC_WORKERS pinned, covering the worker-count axis.
TEST(RowPipeline, DepthInvariant) {
  const db::library lib = two_top_lib();
  const std::vector<rules::rule> deck = mixed_deck();

  engine_config seq;
  seq.run_mode = mode::sequential;
  drc_engine ground(seq);
  ground.add_rules(deck);
  const auto expect = norm(ground.check(lib).violations);
  EXPECT_FALSE(expect.empty());

  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    engine_config cfg;
    cfg.run_mode = mode::parallel;
    cfg.pipeline_depth = depth;
    drc_engine e(cfg);
    e.add_rules(deck);
    EXPECT_EQ(norm(e.check(lib).violations), expect) << "depth=" << depth;
  }
}

// Every orientation class (4 rotations x reflection, plus magnification)
// through the packed-master-edge cache: the cached edges are extracted once
// in master space, so the per-instance transform replay must reproduce the
// from-scratch pack for reflected rings (where the edge direction flips).
TEST(RowPipeline, ReflectedPlacementsMatchSequential) {
  db::library lib;
  const db::cell_id m = lib.add_cell("om");
  lib.at(m).add_rect(1, {0, 0, 30, 8});
  db::polygon_elem e;
  e.layer = 1;
  // Clockwise ring (db storage invariant).
  e.poly = polygon({{0, 20}, {20, 20}, {20, 30}, {30, 30}, {30, 12}, {0, 12}});
  lib.at(m).add_polygon(std::move(e));

  const db::cell_id top = lib.add_cell("otop");
  coord_t y = 0;
  for (std::uint16_t rot = 0; rot < 4; ++rot) {
    coord_t x = 0;
    for (const bool refl : {false, true}) {
      for (const coord_t mag : {1, 2}) {
        lib.at(top).add_ref({m, transform{{x, y}, rot, refl, mag}});
        x += 34 * mag;  // a few-dbu gap at mag 1: cross-instance violations
      }
    }
    y += 200;  // separate partition rows
  }

  const rules::rule r = rules::layer(1).spacing().greater_than(6);

  engine_config seq;
  seq.run_mode = mode::sequential;
  drc_engine ground(seq);
  const auto expect = norm(ground.check(lib, r).violations);
  EXPECT_FALSE(expect.empty());

  engine_config par;
  par.run_mode = mode::parallel;
  drc_engine cached(par);
  EXPECT_EQ(norm(cached.check(lib, r).violations), expect);
}

// --- trace-overlap acceptance --------------------------------------------

/// Closed [begin, end] intervals of spans named `name` in `cat`, per track.
std::map<std::uint32_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
named_intervals(const std::vector<trace::tagged_event>& events, const char* cat,
                const char* name) {
  std::map<std::uint32_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>> out;
  std::map<std::uint32_t, std::vector<std::uint64_t>> open;
  for (const trace::tagged_event& te : events) {
    if (std::strcmp(te.e.cat, cat) != 0 || std::strcmp(te.e.name, name) != 0) continue;
    if (te.e.k == trace::event::kind::begin) {
      open[te.tid].push_back(te.e.ts_ns);
    } else if (te.e.k == trace::event::kind::end && !open[te.tid].empty()) {
      out[te.tid].emplace_back(open[te.tid].back(), te.e.ts_ns);
      open[te.tid].pop_back();
    }
  }
  return out;
}

bool intervals_overlap(std::pair<std::uint64_t, std::uint64_t> a,
                       std::pair<std::uint64_t, std::uint64_t> b) {
  return std::max(a.first, b.first) < std::min(a.second, b.second);
}

// The Section V-C overlap the row pipeline exists for: while the streams run
// earlier rows, the driver packs the next one, so some pack span on the
// driver's track overlaps a device copy or kernel span on a stream track.
// Timing-dependent, so it needs a slow simulated device
// (ODRC_DEVICE_GBPS=0.5) and retries; the pack_overlap_trace ctest entry
// provides both, everywhere else it skips.
TEST(RowPipeline, OverlapShowsConcurrentPacks) {
  if (!std::getenv("ODRC_SNAPSHOT_OVERLAP_TEST")) {
    GTEST_SKIP() << "run via the pack_overlap_trace ctest entry "
                    "(needs a slow simulated device)";
  }

  // 24 partition rows x 24 instances x 144 polygons: ~14k edges per row,
  // several hundred microseconds of simulated transfer at 0.5 GB/s.
  db::library lib;
  const db::cell_id m = lib.add_cell("gm");
  for (coord_t i = 0; i < 12; ++i) {
    for (coord_t j = 0; j < 12; ++j) {
      lib.at(m).add_rect(1, {i * 12, j * 12, i * 12 + 8, j * 12 + 8});
    }
  }
  const db::cell_id top = lib.add_cell("gtop");
  for (coord_t r = 0; r < 24; ++r) {
    for (coord_t c = 0; c < 24; ++c) {
      lib.at(top).add_ref({m, transform{{c * 150, r * 400}, 0, false, 1}});
    }
  }

  engine_config cfg;
  cfg.run_mode = mode::parallel;
  drc_engine e(cfg);
  e.add_rules({rules::layer(1).spacing().greater_than(6),
               rules::layer(1).spacing().greater_than(4)});

  trace::recorder& rec = trace::recorder::instance();
  bool found = false;
  for (int attempt = 0; attempt < 8 && !found; ++attempt) {
    rec.enable();
    (void)e.check(lib);
    rec.disable();
    const std::vector<trace::tagged_event> events = rec.snapshot();
    std::map<std::uint32_t, std::string> track_names;
    for (const trace::tagged_event& te : events) track_names[te.tid] = *te.thread_name;
    const auto packs = named_intervals(events, "pipeline", "pack");
    std::vector<std::pair<std::uint64_t, std::uint64_t>> device_work;
    for (const char* name : {"h2d", "kernel"}) {
      for (const auto& [tid, iv] : named_intervals(events, "device", name)) {
        if (track_names[tid].rfind("stream ", 0) != 0) continue;
        device_work.insert(device_work.end(), iv.begin(), iv.end());
      }
    }
    for (const auto& [pt, piv] : packs) {
      if (track_names[pt].rfind("stream ", 0) == 0) continue;
      for (const auto& p : piv) {
        for (const auto& d : device_work) found = found || intervals_overlap(p, d);
      }
    }
  }
  EXPECT_TRUE(found) << "no pack span overlapped device work on a stream track";
}

}  // namespace
}  // namespace odrc::engine
