// Frozen-snapshot boot benchmark (DESIGN.md §9): the value proposition of the
// .snap format is that a serving process boots by mapping one file instead of
// parsing GDSII and rebuilding every derived structure. Cases:
//
//   cold_parse_build/<design>  gdsii::read + layout_snapshot build + warming
//                              every per-(cell,layer) view, instance set and
//                              packed edge set — the work a cold serve start
//                              pays before the first check can run
//   mmap_boot/<design>         frozen_snapshot::load (map + validate) +
//                              make_library + frozen-backed layout_snapshot —
//                              the derived structures come straight from the
//                              mapping, nothing is recomputed
//   boot_first_check/<design>  mmap boot plus one full deck check, the
//                              end-to-end latency an editor sees
//
// Acceptance for the PR: mmap_boot median ≥10x faster than cold_parse_build
// in --quick mode. The committed BENCH_snapshot_boot.json baseline gates both
// against regressions via scripts/perf_smoke.sh.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/plan.hpp"
#include "engine/rule.hpp"
#include "engine/snapshot.hpp"
#include "engine/snapshot_store.hpp"
#include "gdsii/reader.hpp"
#include "gdsii/writer.hpp"
#include "infra/bench_harness.hpp"
#include "workload/workload.hpp"

namespace {

using namespace odrc;
using workload::layers;
using workload::tech;

std::vector<rules::rule> make_deck() {
  return {
      rules::layer(layers::M1).width().greater_than(tech::wire_width).named("M1.W.1"),
      rules::layer(layers::M1).spacing().greater_than(tech::wire_space).named("M1.S.1"),
      rules::layer(layers::M2).spacing().greater_than(tech::wire_space).named("M2.S.1"),
  };
}

struct deck_files {
  std::string gds;
  std::string snap;
};

// Generate the design once per case setup, write its GDSII and build its
// .snap next to it in the temp directory — both cases then boot from disk,
// which is exactly the serve startup being modeled.
deck_files prepare(const std::string& name, double scale) {
  const auto dir = std::filesystem::temp_directory_path();
  deck_files f;
  f.gds = (dir / ("odrc_snapshot_boot_" + name + ".gds")).string();
  f.snap = (dir / ("odrc_snapshot_boot_" + name + ".snap")).string();
  const auto gen = workload::generate(workload::spec_for(name, scale));
  gdsii::write(gen.lib, f.gds);
  engine::build_snapshot_file(gen.lib, f.snap);
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  bench::suite s("snapshot_boot");
  if (auto rc = s.parse(argc, argv)) return *rc;

  // Boot cost at tiny scales is dominated by fixed overhead on both sides;
  // scale >= 1.5 is where the cold path's parse+warm work is representative
  // of a real serve start (and where the >=10x acceptance margin is stable).
  const std::vector<std::pair<std::string, double>> designs =
      s.opts().quick ? std::vector<std::pair<std::string, double>>{{"ibex", 1.5}}
                     : std::vector<std::pair<std::string, double>>{{"ibex", 2.0},
                                                                   {"aes", 1.5}};

  for (const auto& [name, scale] : designs) {
    s.add("cold_parse_build/" + name, [name = name, scale = scale](bench::case_context& ctx) {
      const deck_files f = prepare(name, scale);
      std::size_t polygons = 0, views = 0;
      while (ctx.next_rep()) {
        const db::library lib = gdsii::read(f.gds);
        engine::layout_snapshot snap(lib);
        const engine::warm_stats w = engine::warm_snapshot(snap);
        polygons = static_cast<std::size_t>(lib.expanded_polygon_count());
        views = w.views;
      }
      ctx.counter("polygons", static_cast<double>(polygons));
      ctx.counter("views_warmed", static_cast<double>(views));
    });

    s.add("mmap_boot/" + name, [name = name, scale = scale](bench::case_context& ctx) {
      const deck_files f = prepare(name, scale);
      std::uint64_t mapped = 0;
      while (ctx.next_rep()) {
        const auto fs = engine::frozen_snapshot::load(f.snap);
        const db::library lib = fs->make_library();
        engine::layout_snapshot snap(lib, fs);
        mapped = fs->mapped_bytes();
      }
      ctx.counter("mapped_bytes", static_cast<double>(mapped));
    });

    s.add("boot_first_check/" + name, [name = name, scale = scale](bench::case_context& ctx) {
      const deck_files f = prepare(name, scale);
      const auto deck = make_deck();
      std::vector<engine::exec_plan> plans;
      plans.reserve(deck.size());
      for (const rules::rule& r : deck) plans.push_back(engine::compile_plan(r));
      std::size_t violations = 0;
      while (ctx.next_rep()) {
        const auto fs = engine::frozen_snapshot::load(f.snap);
        const db::library lib = fs->make_library();
        engine::layout_snapshot snap(lib, fs);
        engine::drc_engine eng;
        eng.add_rules(deck);
        const engine::deck_report dr = eng.check_deck(plans, snap);
        violations = dr.total.violations.size();
      }
      ctx.counter("violations", static_cast<double>(violations));
    });
  }

  return s.run();
}
