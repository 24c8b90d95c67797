// Fig. 4 reproduction: runtime breakdown of OpenDRC's SEQUENTIAL space
// checks. The paper reports, per design:
//   - adaptive layout partition: ~15% of overall runtime,
//   - sweepline + interval-tree operations: ~35%,
//   - edge-to-edge space checks: 40-50%.
// One harness case per (design, layer): each runs the sequential space check
// with the engine's phase profiler and records the three-way split as
// counters; the Fig. 4 table is rendered from them in summarize.
#include "table_common.hpp"

namespace {

using namespace odrc;
using namespace odrc::bench;
using workload::layers;
using workload::tech;

constexpr db::layer_t fig_layers[] = {layers::M1, layers::M2, layers::M3};

}  // namespace

int main(int argc, char** argv) {
  bench::suite s("fig4_breakdown");
  if (auto rc = s.parse(argc, argv)) return *rc;

  workload_cache cache;
  const std::vector<std::string> designs = bench_designs(s, {"uart", "aes"});

  for (const std::string& design : designs) {
    for (const db::layer_t layer : fig_layers) {
      s.add(design + "/L" + std::to_string(layer), [&cache, design, layer](case_context& ctx) {
        const auto& g = cache.get(design, 2, ctx.scale());
        drc_engine seq({.run_mode = engine::mode::sequential});
        engine::check_report r;
        while (ctx.next_rep()) r = seq.run_spacing(g.lib, layer, tech::wire_space);
        ctx.counter("phase_total_s", r.phases.total());
        ctx.counter("frac_partition", r.phases.fraction(phase::partition));
        ctx.counter("frac_sweepline", r.phases.fraction(phase::sweepline));
        ctx.counter("frac_edge_check", r.phases.fraction(phase::edge_check));
      });
    }
  }

  return s.run([&](const suite_report& rep) {
    std::printf("\nFIG. 4: runtime breakdown of sequential space checks (scale=%.2f)\n",
                rep.scale);
    std::printf("%-8s %-6s %10s | %10s %10s %10s\n", "Design", "Layer", "total(s)",
                "partition", "sweepline", "edge_check");
    for (const std::string& design : designs) {
      for (const db::layer_t layer : fig_layers) {
        const std::string name = design + "/L" + std::to_string(layer);
        std::printf("%-8s %-6d %10.4f | %9.1f%% %9.1f%% %9.1f%%\n", design.c_str(), layer,
                    counter_or(rep, name, "phase_total_s"),
                    100 * counter_or(rep, name, "frac_partition"),
                    100 * counter_or(rep, name, "frac_sweepline"),
                    100 * counter_or(rep, name, "frac_edge_check"));
      }
    }
    std::printf("\nPaper reference: partition ~15%%, sweepline ~35%%, edge checks 40-50%%.\n");
  });
}
