// Ablation: the paper's two hierarchy-exploitation mechanisms, toggled
// independently on the sequential engine (Section IV-B/IV-C):
//   - adaptive row partition (on/off),
//   - memoization of intra-master and relative-placement pair results
//     (on/off),
//   - pigeonhole vs sort-based interval merging inside the partitioner.
// One harness case per (design, config). Violations must be identical across
// all configurations: each case checks against the "full" config's set and
// throws (failing the case and the suite) on a mismatch. The runtime and
// work-counter deltas quantify each mechanism's contribution.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "table_common.hpp"

namespace {

using namespace odrc;
using namespace odrc::bench;
using workload::layers;
using workload::tech;

struct config_row {
  const char* label;
  engine_config cfg;
};
const config_row configs[] = {
    {"full", {}},
    {"no-partition", {.enable_partition = false}},
    {"no-memo", {.enable_memoization = false}},
    {"no-both", {.enable_partition = false, .enable_memoization = false}},
    {"sort-merge", {.merge = partition::merge_strategy::sort}},
};

}  // namespace

int main(int argc, char** argv) {
  bench::suite s("ablation_pruning");
  if (auto rc = s.parse(argc, argv)) return *rc;

  workload_cache cache;
  const std::vector<std::string> all = bench_designs(s, {"uart"});
  // The full list intentionally leads with the designs whose hierarchy the
  // ablations stress; keep the historical aes/jpeg/uart order when present.
  std::vector<std::string> designs;
  for (const char* d : {"aes", "jpeg", "uart"}) {
    if (std::find(all.begin(), all.end(), d) != all.end()) designs.emplace_back(d);
  }
  if (designs.empty()) designs = all;

  // Reference violation set per design, captured by the "full" case (cases
  // run in registration order).
  auto reference = std::make_shared<std::map<std::string, std::vector<checks::violation>>>();

  for (const std::string& design : designs) {
    for (const config_row& cr : configs) {
      s.add(design + "/" + cr.label, [&cache, reference, design, cr](case_context& ctx) {
        const auto& g = cache.get(design, 1, ctx.scale());
        drc_engine e(cr.cfg);
        engine::check_report total;
        while (ctx.next_rep()) {
          total = {};
          for (const db::layer_t layer : {layers::M1, layers::M2}) {
            total.merge_from(e.run_spacing(g.lib, layer, tech::wire_space));
          }
        }
        checks::normalize_all(total.violations);
        auto [it, inserted] = reference->try_emplace(design, total.violations);
        if (!inserted && total.violations != it->second) {
          throw std::runtime_error(std::string("config '") + cr.label +
                                   "' changed the violation set");
        }
        ctx.counter("edge_pairs", static_cast<double>(total.check_stats.edge_pairs_tested));
        ctx.counter("pairs_reused", static_cast<double>(total.prune.intra_reused +
                                                        total.prune.pairs_reused));
        ctx.counter("rows", static_cast<double>(total.rows));
        ctx.counter("clips", static_cast<double>(total.clips));
      });
    }
  }

  return s.run([&](const suite_report& rep) {
    std::printf("\nABLATION: partition / memoization (sequential spacing checks, scale=%.2f)\n",
                rep.scale);
    std::printf("%-8s %-14s %10s %14s %12s %10s %10s\n", "Design", "Config", "time(s)",
                "edge-pairs(M)", "pairs-reused", "rows", "clips");
    bool all_ok = true;
    for (const std::string& design : designs) {
      for (const config_row& cr : configs) {
        const std::string name = design + "/" + cr.label;
        const case_result* c = rep.find(name);
        if (!c || !c->error.empty()) {
          all_ok = false;
          continue;
        }
        std::printf("%-8s %-14s %10.4f %14.3f %12.0f %10.0f %10.0f\n", design.c_str(),
                    cr.label, c->wall.median, counter_or(rep, name, "edge_pairs") / 1e6,
                    counter_or(rep, name, "pairs_reused"), counter_or(rep, name, "rows"),
                    counter_or(rep, name, "clips"));
      }
    }
    if (all_ok) {
      std::printf("\nAll configurations produced identical violation sets (verified).\n");
    }
  });
}
