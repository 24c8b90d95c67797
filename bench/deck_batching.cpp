// Deck-batching bench: wall-clock of one batched deck pass vs per-rule
// execution, sequential and parallel mode.
//
// The deck has 9 pair rules over 3 layers (M2 spacing ×4 incl. a PRL tier,
// M3 spacing ×2, V2-in-M3 enclosure ×3), so batching collapses nine full
// pipeline passes — instance enumeration, adaptive row partition, candidate
// sweep, and in parallel mode the per-row edge pack + upload — into three,
// evaluating all predicates of a group per candidate pair. Expected shape:
// batched beats per-rule in both modes, with the larger win in parallel mode
// where the pack/upload is the dominant shared cost.
//
// One harness case per (design, mode, per-rule|batched): per-rule runs each
// rule alone through check(lib, rule), each with its own layout snapshot;
// batched runs the deck through check(lib). Each batched case verifies its
// violation count against the per-rule case that ran before it and throws on
// mismatch. Two extra cases measure the trace recorder's
// enabled-vs-disabled overhead contract.
#include <memory>
#include <stdexcept>

#include "table_common.hpp"

#include "infra/trace.hpp"

namespace {

using namespace odrc;
using namespace odrc::bench;
using workload::layers;
using workload::tech;

std::vector<rules::rule> make_deck() {
  return {
      rules::layer(layers::M2).spacing().greater_than(tech::wire_space).named("M2.S.1"),
      rules::layer(layers::M2).spacing().greater_than(tech::wire_space - 4).named("M2.S.2"),
      rules::layer(layers::M2).spacing().greater_than(12)
          .when_projection_over(100, 24).named("M2.S.PRL"),
      rules::layer(layers::M2).spacing().greater_than(8).named("M2.S.3"),
      rules::layer(layers::M3).spacing().greater_than(tech::wire_space).named("M3.S.1"),
      rules::layer(layers::M3).spacing().greater_than(10).named("M3.S.2"),
      rules::layer(layers::V2).enclosed_by(layers::M3).greater_than(tech::via_enclosure)
          .named("V2.M3.EN.1"),
      rules::layer(layers::V2).enclosed_by(layers::M3).greater_than(3).named("V2.M3.EN.2"),
      rules::layer(layers::V2).enclosed_by(layers::M3).greater_than(1).named("V2.M3.EN.3"),
  };
}

}  // namespace

int main(int argc, char** argv) {
  bench::suite s("deck_batching");
  if (auto rc = s.parse(argc, argv)) return *rc;

  workload_cache cache;
  const std::vector<std::string> designs = bench_designs(s, {"uart", "sha3"});

  // Violation counts of the per-rule passes, keyed "design/mode", checked by
  // the batched cases (cases run in registration order).
  auto reference = std::make_shared<std::map<std::string, std::size_t>>();

  for (const std::string& design : designs) {
    for (const engine::mode m : {engine::mode::sequential, engine::mode::parallel}) {
      const std::string mode_s = m == engine::mode::sequential ? "seq" : "par";
      for (const bool batched : {false, true}) {
        const char* variant = batched ? "batched" : "per-rule";
        s.add(design + "/" + mode_s + "/" + variant,
              [&cache, reference, design, m, mode_s, batched](case_context& ctx) {
                const auto& g = cache.get(design, 2, ctx.scale());
                engine_config cfg;
                cfg.run_mode = m;
                drc_engine eng(cfg);
                eng.add_rules(make_deck());
                engine::check_report report;
                while (ctx.next_rep()) {
                  if (batched) {
                    report = eng.check(g.lib);
                  } else {
                    report = {};
                    for (const rules::rule& r : eng.deck()) report.merge_from(eng.check(g.lib, r));
                  }
                }
                const std::string key = design + "/" + mode_s;
                auto [it, inserted] = reference->try_emplace(key, report.violations.size());
                if (!inserted && report.violations.size() != it->second) {
                  throw std::runtime_error("batched and per-rule violation counts differ");
                }
                ctx.counter("violations", static_cast<double>(report.violations.size()));
              });
      }
    }
  }

  // Trace-overhead check: the span recorder's contract is that an enabled
  // recording costs a few percent at pipeline granularity and a disabled one
  // costs one branch per site. Same batched parallel pass, recorder off/on.
  const std::string overhead_design = s.opts().quick ? "uart" : "sha3";
  for (const bool enabled : {false, true}) {
    s.add(std::string("trace-overhead/") + (enabled ? "on" : "off"),
          [&cache, overhead_design, enabled](case_context& ctx) {
            const auto& g = cache.get(overhead_design, 2, ctx.scale());
            engine_config cfg;
            cfg.run_mode = engine::mode::parallel;
            drc_engine eng(cfg);
            eng.add_rules(make_deck());
            while (ctx.next_rep()) {
              if (enabled) trace::recorder::instance().enable();
              eng.check(g.lib);
              if (enabled) trace::recorder::instance().disable();
            }
          });
  }

  return s.run([&](const suite_report& rep) {
    std::printf("\nDeck batching: 9 pair rules over 3 layers (scale=%.2f, mode=%s)\n",
                rep.scale, rep.mode.c_str());
    std::printf("%-8s %-10s %10s %10s %8s\n", "Design", "Mode", "per-rule", "batched",
                "speedup");
    for (const std::string& design : designs) {
      for (const char* mode_s : {"seq", "par"}) {
        const std::string base = design + "/" + mode_s + "/";
        const double t_per_rule = median_or(rep, base + "per-rule");
        const double t_batched = median_or(rep, base + "batched");
        if (t_per_rule < 0 || t_batched < 0) continue;
        std::printf("%-8s %-10s %10.3f %10.3f %7.2fx\n", design.c_str(), mode_s, t_per_rule,
                    t_batched, t_per_rule / std::max(t_batched, 1e-9));
      }
    }
    const double t_off = median_or(rep, "trace-overhead/off");
    const double t_on = median_or(rep, "trace-overhead/on");
    if (t_off > 0 && t_on > 0) {
      std::printf("\nTrace overhead (%s, par, batched): disabled %.3fs, enabled %.3fs (%+.1f%%)\n",
                  overhead_design.c_str(), t_off, t_on,
                  100.0 * (t_on - t_off) / std::max(t_off, 1e-9));
    }
  });
}
