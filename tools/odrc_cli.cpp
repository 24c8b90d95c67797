// odrc — the command-line front end of the engine (interface layer).
//
// Usage:
//   odrc check <layout.gds> <rules.deck> [--mode=seq|par] [--report=out.txt]
//   odrc generate <design> <out.gds> [--scale=1.0] [--inject=N]
//   odrc inspect <layout.gds>
//   odrc deck-template
//
// `check` reads a GDSII stream and a text rule deck (see
// src/engine/deck_parser.hpp for the format), runs the engine and prints a
// violation summary; `generate` emits one of the six synthetic benchmark
// designs; `deck-template` prints a ready-to-edit ASAP7-like deck.
#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "engine/deck_parser.hpp"
#include "engine/plan.hpp"
#include "engine/snapshot.hpp"
#include "engine/snapshot_store.hpp"
#include "lefdef/lefdef.hpp"
#include "render/render.hpp"
#include "report/violation_db.hpp"
#include "engine/engine.hpp"
#include "gdsii/reader.hpp"
#include "gdsii/writer.hpp"
#include "infra/bench_harness.hpp"
#include "infra/timer.hpp"
#include "infra/trace.hpp"
#include "engine/shard.hpp"
#include "serve/client.hpp"
#include "serve/coord.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "workload/workload.hpp"

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>

namespace {

using namespace odrc;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  odrc check <layout.gds> <rules.deck> [--mode=seq|par] [--simd=auto|off|avx2]\n"
               "             [--window=x1,y1,x2,y2] [--report=out.txt]\n"
               "             [--markers=out.gds] [--json=out.json] [--trace=out_trace.json]\n"
               "             [--metrics] [--bench-json=out.json]\n"
               "             (also accepts --lef=<f> --def=<f>)\n"
               "  odrc generate <design> <out.gds> [--scale=1.0] [--inject=N]\n"
               "  odrc inspect <layout.gds>\n"
               "  odrc render <layout.gds> <out.svg> [--deck=rules.deck]\n"
               "  odrc diff <baseline_report.txt> <current_report.txt>\n"
               "  odrc snapshot build <layout.gds> <out.snap>\n"
               "  odrc snapshot info <file.snap>\n"
               "  odrc serve <layout.gds> <rules.deck> --socket=PATH|--listen=EP [--workers=N]\n"
               "             [--mode=seq|par] [--simd=auto|off|avx2] [--trace=out_trace.json]\n"
               "             [--snapshot=PATH]\n"
               "  odrc coord <layout.gds> <rules.deck> --socket=PATH|--listen=EP --shards=N\n"
               "             [--worker=EP ...] [--tcp] [--workers=N] [--mode=seq|par]\n"
               "             [--snapshot=PATH] (spawns N workers unless --worker given)\n"
               "  odrc client --socket=PATH|EP [--session=N]\n"
               "             <ping|check [keys]|edit <script|->|recheck|diff|stats|open <gds> <deck>|\n"
               "              check_region <x1> <y1> <x2> <y2>|query <x1> <y1> <x2> <y2> [keys]|\n"
               "              subscribe [<x1> <y1> <x2> <y2>] [--count=N] [--timeout=MS]|\n"
               "              unsubscribe <sub_id>|reload <file.snap>|close|shutdown>\n"
               "  odrc deck-template\n"
               "  odrc version\n"
               "  endpoints EP: unix:/path, tcp:host:port, or a bare unix path\n");
  return 2;
}

std::string opt_value(int argc, char** argv, const char* name, const char* fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

// Every occurrence of a repeatable option ("--worker=EP --worker=EP ...").
std::vector<std::string> opt_values(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      out.emplace_back(argv[i] + prefix.size());
    }
  }
  return out;
}

// One argument against `known`, where "name=" admits "--name=VALUE" and
// "name" the bare flag "--name". Anything else (a misspelt option, a stray
// positional) gets a message and false, which the commands turn into a
// usage error.
bool option_known(const char* arg, std::initializer_list<std::string_view> known) {
  const std::string_view a = arg;
  const bool ok = a.starts_with("--") && std::ranges::any_of(known, [&](std::string_view k) {
                    return k.ends_with('=') ? a.substr(2).starts_with(k) : a.substr(2) == k;
                  });
  if (!ok) std::fprintf(stderr, "unknown argument '%s'\n", arg);
  return ok;
}

// argv[first..] after a command's positionals: every argument must be an
// option in `known` (option_known).
bool options_known(int argc, char** argv, int first,
                   std::initializer_list<std::string_view> known) {
  for (int i = first; i < argc; ++i) {
    if (!option_known(argv[i], known)) return false;
  }
  return true;
}

// argv[first..last) are positionals: none may look like an option, or
// `generate uart --scale=0.5` would write a file named "--scale=0.5".
bool positionals_ok(char** argv, int first, int last) {
  for (int i = first; i < last; ++i) {
    if (std::string_view(argv[i]).starts_with("--")) {
      std::fprintf(stderr, "expected a positional argument, got option '%s'\n", argv[i]);
      return false;
    }
  }
  return true;
}

// Whole-string numeric option values; nullopt (after a message) for text
// that is not a number or lies outside the option's range.
std::optional<double> parse_scale(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || !std::isfinite(v) || v <= 0) {
    std::fprintf(stderr, "--scale expects a number > 0, got '%s'\n", s.c_str());
    return std::nullopt;
  }
  return v;
}

// Upper bounds for thread and process counts: a typo must not start
// thousands of threads or worker processes.
constexpr long max_workers = 256;
constexpr long max_shards = 64;

// "--name=VALUE" as an integer in [lo, hi].
std::optional<long> parse_int(const char* name, const std::string& s, long lo, long hi) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || errno != 0 || v < lo || v > hi) {
    if (hi == INT_MAX) {
      std::fprintf(stderr, "--%s expects an integer >= %ld, got '%s'\n", name, lo, s.c_str());
    } else {
      std::fprintf(stderr, "--%s expects an integer in %ld..%ld, got '%s'\n", name, lo, hi,
                   s.c_str());
    }
    return std::nullopt;
  }
  return v;
}

// "--mode=seq|par" -> execution branch; nullopt (after a message) for any
// other value, which the commands turn into a usage error.
std::optional<engine::mode> parse_mode(const std::string& s) {
  if (s == "seq") return engine::mode::sequential;
  if (s == "par") return engine::mode::parallel;
  std::fprintf(stderr, "unknown --mode value '%s' (want seq|par)\n", s.c_str());
  return std::nullopt;
}

// "--simd=auto|off|avx2" -> dispatch policy; nullopt (after a message)
// otherwise.
std::optional<simd::mode> parse_simd(const std::string& s) {
  const std::optional<simd::mode> m = simd::parse_mode(s.c_str());
  if (!m) std::fprintf(stderr, "unknown --simd value '%s' (want auto|off|avx2)\n", s.c_str());
  return m;
}

// "--window=x1,y1,x2,y2" -> rect; nullopt when absent, throws on malformed.
std::optional<rect> parse_window(int argc, char** argv) {
  const std::string s = opt_value(argc, argv, "window", "");
  if (s.empty()) return std::nullopt;
  rect w;
  char comma;
  std::istringstream in(s);
  if (!(in >> w.x_min >> comma >> w.y_min >> comma >> w.x_max >> comma >> w.y_max) ||
      w.empty()) {
    throw std::runtime_error("--window expects x1,y1,x2,y2 with x1<=x2, y1<=y2");
  }
  return w;
}

int cmd_check(int argc, char** argv) {
  if (argc < 4 || !positionals_ok(argv, 2, 4) ||
      !options_known(argc, argv, 4,
                     {"mode=", "simd=", "window=", "report=", "markers=", "json=", "trace=",
                      "metrics", "bench-json=", "lef=", "def="})) {
    return usage();
  }
  const std::string gds = argv[2];
  const std::string deck_path = argv[3];
  const std::string mode_s = opt_value(argc, argv, "mode", "seq");
  const std::optional<engine::mode> run_mode = parse_mode(mode_s);
  if (!run_mode) return usage();
  const std::string report_path = opt_value(argc, argv, "report", "");
  const std::string markers_path = opt_value(argc, argv, "markers", "");
  const std::string json_path = opt_value(argc, argv, "json", "");

  timer t_total;
  const std::string lef = opt_value(argc, argv, "lef", "");
  const std::string def = opt_value(argc, argv, "def", "");
  const db::library lib = (!lef.empty() && !def.empty())
                              ? lefdef::read_lef_def(lef, def,
                                                     {{"M1", 19}, {"M2", 20}, {"M3", 30},
                                                      {"V1", 21}, {"V2", 25}, {"PWR", 18}})
                              : gdsii::read(gds);
  const auto deck = rules::parse_deck_file(deck_path);
  std::printf("loaded %s: %zu cells, %llu flat polygons; %zu rules from %s\n", gds.c_str(),
              lib.cell_count(), static_cast<unsigned long long>(lib.expanded_polygon_count()),
              deck.size(), deck_path.c_str());

  engine_config cfg;
  cfg.run_mode = *run_mode;
  const std::optional<simd::mode> simd_mode = parse_simd(opt_value(argc, argv, "simd", "auto"));
  if (!simd_mode) return usage();
  cfg.simd = *simd_mode;
  drc_engine eng(cfg);
  eng.add_rules(deck);

  const std::string trace_path = opt_value(argc, argv, "trace", "");
  const bool want_metrics = has_flag(argc, argv, "metrics");
  if (!trace_path.empty() || want_metrics) trace::recorder::instance().enable();

  report::violation_db db(lib.name());
  const std::optional<rect> window = parse_window(argc, argv);
  timer t_check;
  engine::deck_report dr;
  if (window) {
    // Region-of-interest run: compile once, share one snapshot, and route
    // through the plan-level check_region (the serve sessions' warm path).
    std::vector<engine::exec_plan> plans;
    plans.reserve(deck.size());
    for (const rules::rule& r : deck) plans.push_back(engine::compile_plan(r));
    engine::layout_snapshot snap(lib);
    dr = eng.check_region(plans, snap, *window);
  } else {
    dr = eng.check_deck(lib);
  }
  const double check_seconds = t_check.seconds();

  if (!trace_path.empty() || want_metrics) {
    trace::recorder::instance().disable();
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) {
        std::fprintf(stderr, "cannot write trace '%s'\n", trace_path.c_str());
        return 1;
      }
      trace::recorder::instance().write_chrome_json(out);
      std::printf("trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
  }
  // A rule's time is its own predicate time; a group's time is the wall time
  // of its whole run (the shared walk plus every member's predicates).
  for (std::size_t i = 0; i < deck.size(); ++i) {
    const double secs = dr.per_rule[i].phases.total();
    std::printf("  %-16s %8.3fs own  %zu violations\n", deck[i].name.c_str(), secs,
                dr.per_rule[i].violations.size());
    db.add(deck[i].name, dr.per_rule[i].violations);
  }
  for (const engine::group_timing& g : dr.groups) {
    std::string names;
    for (const std::size_t i : g.members) names += (names.empty() ? "" : ",") + deck[i].name;
    std::printf("  group %-20s %8.3fs\n", names.c_str(), g.seconds);
  }
  engine::check_report& total = dr.total;
  std::printf("total: %zu violations in %.3fs (%s mode)\n", total.violations.size(),
              t_total.seconds(), mode_s.c_str());
  // Every rule runs in exactly one group.
  if (!dr.groups.empty()) {
    std::printf("batching: %zu rules in %zu groups\n", deck.size(), dr.groups.size());
  }

  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out) {
      std::fprintf(stderr, "cannot write report '%s'\n", report_path.c_str());
      return 1;
    }
    db.write_text(out);
    std::printf("report written to %s\n", report_path.c_str());
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write json '%s'\n", json_path.c_str());
      return 1;
    }
    db.write_json(out);
    std::printf("json written to %s\n", json_path.c_str());
  }
  if (!markers_path.empty()) {
    gdsii::write(render::violation_markers(total.violations, lib.name()), markers_path);
    std::printf("violation markers written to %s\n", markers_path.c_str());
  }
  if (want_metrics) {
    std::ostringstream ms;
    trace::recorder::instance().write_metrics(ms);
    std::fputs(ms.str().c_str(), stdout);
  }

  // --bench-json: emit the check as a one-sample odrc-bench report so a CLI
  // invocation plugs into the same bench_compare gate as the bench/ suites.
  const std::string bench_json_path = opt_value(argc, argv, "bench-json", "");
  if (!bench_json_path.empty()) {
    bench::suite_report br;
    br.suite = "cli_check";
    br.mode = "cli";
    br.scale = 1.0;
    bench::case_result c;
    c.name = "check/" + mode_s;
    c.repetitions = 1;
    c.warmup = 0;
    c.wall_s = {check_seconds};
    c.counters["violations"] = static_cast<double>(total.violations.size());
    c.counters["rules"] = static_cast<double>(deck.size());
    c.counters["polygons"] = static_cast<double>(lib.expanded_polygon_count());
    c.counters["edge_pairs_tested"] = static_cast<double>(total.check_stats.edge_pairs_tested);
    c.counters["rows"] = static_cast<double>(total.rows);
    c.counters["clips"] = static_cast<double>(total.clips);
    c.finalize();
    br.cases.push_back(std::move(c));
    std::ofstream out(bench_json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write bench json '%s'\n", bench_json_path.c_str());
      return 1;
    }
    bench::write_json(out, br);
    std::printf("bench json written to %s\n", bench_json_path.c_str());
  }
  return total.violations.empty() ? 0 : 1;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 4 || !positionals_ok(argv, 2, 4) ||
      !options_known(argc, argv, 4, {"scale=", "inject="})) {
    return usage();
  }
  const std::string design = argv[2];
  const std::string out = argv[3];
  const std::optional<double> scale = parse_scale(opt_value(argc, argv, "scale", "1.0"));
  const std::optional<long> inject = parse_int("inject", opt_value(argc, argv, "inject", "0"), 0,
                                              INT_MAX);
  if (!scale || !inject) return usage();

  auto spec = workload::spec_for(design, *scale);
  const int n = static_cast<int>(*inject);
  spec.inject = {n, n, n, n};
  const auto g = workload::generate(spec);
  gdsii::write(g.lib, out);
  std::printf("wrote %s: %zu cells, %llu flat polygons, %zu injected violation sites\n",
              out.c_str(), g.lib.cell_count(),
              static_cast<unsigned long long>(g.lib.expanded_polygon_count()), g.sites.size());
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  if (argc < 3 || !positionals_ok(argv, 2, 3) || !options_known(argc, argv, 3, {})) {
    return usage();
  }
  const db::library lib = gdsii::read(argv[2]);
  std::printf("library '%s': %zu cells, depth %zu, %llu flat polygons\n", lib.name().c_str(),
              lib.cell_count(), lib.hierarchy_depth(),
              static_cast<unsigned long long>(lib.expanded_polygon_count()));
  for (const db::cell_id top : lib.top_cells()) {
    std::printf("top cell: %s\n", lib.at(top).name().c_str());
  }
  return 0;
}

int cmd_render(int argc, char** argv) {
  if (argc < 4 || !positionals_ok(argv, 2, 4) || !options_known(argc, argv, 4, {"deck="})) {
    return usage();
  }
  const db::library lib = gdsii::read(argv[2]);
  const std::string deck_path = opt_value(argc, argv, "deck", "");
  std::vector<checks::violation> violations;
  if (!deck_path.empty()) {
    drc_engine eng;
    eng.add_rules(rules::parse_deck_file(deck_path));
    violations = eng.check(lib).violations;
    std::printf("%zu violations will be marked\n", violations.size());
  }
  render::write_svg(lib, std::string(argv[3]), {}, violations);
  std::printf("rendered %s\n", argv[3]);
  return 0;
}

int cmd_diff(int argc, char** argv) {
  if (argc < 4 || !positionals_ok(argv, 2, 4) || !options_known(argc, argv, 4, {})) {
    return usage();
  }
  std::ifstream a(argv[2]), b(argv[3]);
  if (!a || !b) {
    std::fprintf(stderr, "cannot open report files\n");
    return 2;
  }
  const auto d = report::diff_reports(report::parse_text_report(a),
                                      report::parse_text_report(b));
  std::printf("fixed: %zu, introduced: %zu\n", d.fixed.size(), d.introduced.size());
  for (const report::report_line& rl : d.introduced) {
    std::printf("  NEW %s %s L%d [%d,%d .. %d,%d] measured=%lld\n", rl.rule.c_str(),
                std::string(checks::rule_kind_name(rl.kind)).c_str(), rl.layer1, rl.box.x_min,
                rl.box.y_min, rl.box.x_max, rl.box.y_max,
                static_cast<long long>(rl.measured));
  }
  return d.clean() ? 0 : 1;
}

int cmd_snapshot(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string sub = argv[2];
  if (sub == "build") {
    if (argc < 5 || !positionals_ok(argv, 3, 5) || !options_known(argc, argv, 5, {})) {
      return usage();
    }
    const db::library lib = gdsii::read(argv[3]);
    const engine::snapshot_build_stats st = engine::build_snapshot_file(lib, argv[4]);
    std::printf(
        "wrote %s: %llu bytes, %u sections, %llu cells, %llu views, %llu instance sets, "
        "%llu packed sets\n",
        argv[4], static_cast<unsigned long long>(st.file_bytes), st.sections,
        static_cast<unsigned long long>(st.cells), static_cast<unsigned long long>(st.views),
        static_cast<unsigned long long>(st.instance_sets),
        static_cast<unsigned long long>(st.packed_sets));
    return 0;
  }
  if (sub == "info") {
    if (argc < 4 || !positionals_ok(argv, 3, 4) || !options_known(argc, argv, 4, {})) {
      return usage();
    }
    const auto fs = engine::frozen_snapshot::load(argv[3]);
    std::fputs(fs->info_text().c_str(), stdout);
    return 0;
  }
  std::fprintf(stderr, "odrc snapshot: unknown subcommand '%s'\n", sub.c_str());
  return usage();
}

int cmd_serve(int argc, char** argv) {
  if (argc < 4 || !positionals_ok(argv, 2, 4) ||
      !options_known(argc, argv, 4,
                     {"socket=", "listen=", "workers=", "mode=", "simd=", "trace=",
                      "snapshot="})) {
    return usage();
  }
  const std::string gds = argv[2];
  const std::string deck_path = argv[3];
  const std::string socket_path = opt_value(argc, argv, "socket", "");
  const std::string listen_ep = opt_value(argc, argv, "listen", "");
  if (socket_path.empty() && listen_ep.empty()) {
    std::fprintf(stderr, "odrc serve: --socket=PATH or --listen=EP is required\n");
    return 2;
  }
  const std::optional<engine::mode> run_mode = parse_mode(opt_value(argc, argv, "mode", "par"));
  const std::optional<long> workers =
      parse_int("workers", opt_value(argc, argv, "workers", "2"), 1, max_workers);
  const std::optional<simd::mode> simd_mode = parse_simd(opt_value(argc, argv, "simd", "auto"));
  if (!run_mode || !workers || !simd_mode) return usage();
  const std::string trace_path = opt_value(argc, argv, "trace", "");
  if (!trace_path.empty()) trace::recorder::instance().enable();

  engine_config cfg;
  cfg.run_mode = *run_mode;
  cfg.simd = *simd_mode;
  serve::session_manager sessions;
  {
    auto deck = rules::parse_deck_file(deck_path);
    const std::string snap_path = opt_value(argc, argv, "snapshot", "");
    if (!snap_path.empty()) {
      // mmap boot (DESIGN.md §9): the .snap replaces the GDSII parse and the
      // snapshot build; the positional layout argument is ignored.
      auto fs = engine::frozen_snapshot::load(snap_path);
      db::library lib = fs->make_library();
      std::printf("booted %s: %llu mapped bytes, %zu cells; %zu rules from %s\n",
                  snap_path.c_str(), static_cast<unsigned long long>(fs->mapped_bytes()),
                  lib.cell_count(), deck.size(), deck_path.c_str());
      sessions.create_frozen(std::move(fs), std::move(lib), std::move(deck), cfg);
    } else {
      db::library lib = gdsii::read(gds);
      std::printf("loaded %s: %zu cells, %llu flat polygons; %zu rules from %s\n", gds.c_str(),
                  lib.cell_count(),
                  static_cast<unsigned long long>(lib.expanded_polygon_count()), deck.size(),
                  deck_path.c_str());
      sessions.create(std::move(lib), std::move(deck), cfg);
    }
  }

  serve::server_config scfg;
  scfg.socket_path = socket_path;
  scfg.endpoint = listen_ep;
  scfg.workers = static_cast<std::size_t>(*workers);
  scfg.engine = cfg;
  serve::server srv(scfg, sessions);
  srv.start();
  std::printf("serving session 1 on %s (%zu workers); send 'shutdown' to stop\n",
              srv.bound_endpoint().c_str(), scfg.workers);
  std::fflush(stdout);
  srv.wait();

  if (!trace_path.empty()) {
    trace::recorder::instance().disable();
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot write trace '%s'\n", trace_path.c_str());
      return 1;
    }
    trace::recorder::instance().write_chrome_json(out);
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  const serve::server_stats_snapshot st = srv.stats();
  std::printf("served %zu requests (%zu rejected, %zu protocol errors), p50 %.2fms p95 %.2fms\n",
              st.requests_total, st.requests_rejected, st.protocol_errors, st.p50_ms, st.p95_ms);
  return 0;
}

// Spawn one `odrc serve` worker via /proc/self/exe; returns its pid.
pid_t spawn_worker(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    std::vector<char*> argv_c;
    argv_c.reserve(args.size() + 1);
    for (const std::string& a : args) argv_c.push_back(const_cast<char*>(a.c_str()));
    argv_c.push_back(nullptr);
    ::execv("/proc/self/exe", argv_c.data());
    std::perror("execv");
    _exit(127);
  }
  return pid;
}

// SIGTERM + reap every spawned worker; the list is cleared so a later call
// cannot signal a recycled pid.
void kill_workers(std::vector<pid_t>& children) {
  for (const pid_t pid : children) ::kill(pid, SIGTERM);
  for (const pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  children.clear();
}

// Block until a worker answers ping on `ep` (it has to parse the layout
// first) or the deadline passes. A spawned worker (`pid` > 0) that exits
// first is reaped and reported through `exit_status`; pre-started workers
// pass pid 0.
enum class worker_wait { up, exited, timed_out };
worker_wait await_worker(const std::string& ep, pid_t pid, int timeout_ms, int& exit_status) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pid > 0 && ::waitpid(pid, &exit_status, WNOHANG) == pid) return worker_wait::exited;
    try {
      serve::client c;
      c.connect(ep);
      if (serve::client::ok(c.request(serve::msg_type::ping, 0))) return worker_wait::up;
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return worker_wait::timed_out;
}

int cmd_coord(int argc, char** argv) {
  if (argc < 4 || !positionals_ok(argv, 2, 4) ||
      !options_known(argc, argv, 4,
                     {"socket=", "listen=", "tcp", "shards=", "worker=", "workers=", "mode=",
                      "snapshot="})) {
    return usage();
  }
  const std::string gds = argv[2];
  const std::string deck_path = argv[3];
  const std::string socket_path = opt_value(argc, argv, "socket", "");
  std::string listen_ep = opt_value(argc, argv, "listen", "");
  if (listen_ep.empty() && has_flag(argc, argv, "tcp")) listen_ep = "tcp:127.0.0.1:0";
  if (socket_path.empty() && listen_ep.empty()) {
    std::fprintf(stderr, "odrc coord: --socket=PATH or --listen=EP is required\n");
    return 2;
  }
  const std::string snap_path = opt_value(argc, argv, "snapshot", "");
  const std::string mode_s = opt_value(argc, argv, "mode", "par");
  const std::string workers_s = opt_value(argc, argv, "workers", "2");
  const std::optional<long> shards_n =
      parse_int("shards", opt_value(argc, argv, "shards", "2"), 1, max_shards);
  if (!parse_mode(mode_s) || !parse_int("workers", workers_s, 1, max_workers) || !shards_n) {
    return usage();
  }

  std::vector<std::string> worker_eps = opt_values(argc, argv, "worker");
  const std::size_t shards =
      worker_eps.empty() ? static_cast<std::size_t>(*shards_n) : worker_eps.size();

  // Plan the bands over the layout the workers will load.
  const db::library lib = snap_path.empty()
                              ? gdsii::read(gds)
                              : engine::frozen_snapshot::load(snap_path)->make_library();
  std::vector<rect> bands = engine::plan_shards(lib, shards);
  if (bands.size() < shards) {
    std::printf("layout yields %zu independent band(s); using %zu shard(s)\n", bands.size(),
                bands.size());
  }
  if (!worker_eps.empty()) {
    worker_eps.resize(bands.size());  // trimmed workers stay idle
  }

  // Spawn workers unless the fleet was provided (pre-started, maybe remote).
  // Their sockets live in a fresh temp directory, removed with any socket
  // left in it when this function returns: every return path has reaped or
  // killed the workers by then.
  struct dir_remover {
    std::string path;
    dir_remover() = default;
    dir_remover(const dir_remover&) = delete;
    dir_remover& operator=(const dir_remover&) = delete;
    ~dir_remover() {
      std::error_code ec;
      if (!path.empty()) std::filesystem::remove_all(path, ec);
    }
  } sock_dir;
  std::vector<pid_t> children;
  if (worker_eps.empty()) {
    char dir_templ[] = "/tmp/odrc_coord_XXXXXX";
    const char* dir = ::mkdtemp(dir_templ);
    if (dir == nullptr) {
      std::fprintf(stderr, "odrc coord: mkdtemp failed\n");
      return 1;
    }
    sock_dir.path = dir;
    for (std::size_t i = 0; i < bands.size(); ++i) {
      const std::string ep = std::string(dir) + "/worker" + std::to_string(i) + ".sock";
      std::vector<std::string> args = {"odrc",           "serve",
                                       gds,              deck_path,
                                       "--socket=" + ep, "--workers=" + workers_s,
                                       "--mode=" + mode_s};
      if (!snap_path.empty()) args.push_back("--snapshot=" + snap_path);
      children.push_back(spawn_worker(args));
      worker_eps.push_back(ep);
    }
  }
  for (std::size_t i = 0; i < worker_eps.size(); ++i) {
    const pid_t pid = i < children.size() ? children[i] : 0;
    int status = 0;
    switch (await_worker(worker_eps[i], pid, 30000, status)) {
      case worker_wait::up:
        continue;
      case worker_wait::exited:
        std::fprintf(stderr, "odrc coord: worker %zu exited (status %d) before coming up\n", i,
                     WIFEXITED(status) ? WEXITSTATUS(status) : status);
        children.erase(children.begin() + static_cast<std::ptrdiff_t>(i));  // already reaped
        break;
      case worker_wait::timed_out:
        std::fprintf(stderr, "odrc coord: worker %s did not come up\n", worker_eps[i].c_str());
        break;
    }
    kill_workers(children);
    return 1;
  }

  serve::coord_config ccfg;
  ccfg.listen.socket_path = socket_path;
  ccfg.listen.endpoint = listen_ep;
  ccfg.listen.workers = std::max<std::size_t>(2, bands.size());
  ccfg.worker_endpoints = worker_eps;
  ccfg.bands = bands;
  try {
    serve::coordinator coord(std::move(ccfg));
    coord.start();
    std::printf("coordinating %zu shard(s) on %s; send 'shutdown' to stop\n", worker_eps.size(),
                coord.bound_endpoint().c_str());
    for (std::size_t i = 0; i < worker_eps.size(); ++i) {
      std::printf("  shard %zu -> %s (band y %d..%d)\n", i, worker_eps[i].c_str(), bands[i].y_min,
                  bands[i].y_max);
    }
    std::fflush(stdout);
    coord.wait();

    // Normal shutdown forwarded `shutdown` to the workers; just reap.
    for (const pid_t pid : children) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    children.clear();
    const serve::server_stats_snapshot st = coord.stats();
    std::printf("coordinated %zu requests (%zu rejected, %zu protocol errors)\n",
                st.requests_total, st.requests_rejected, st.protocol_errors);
  } catch (const std::exception& e) {
    // Coordinator construction/start failed (worker rejected its shard, bind
    // error, ...): don't orphan the forked workers.
    std::fprintf(stderr, "odrc coord: %s\n", e.what());
    kill_workers(children);
    return 1;
  }
  return 0;
}

int cmd_client(int argc, char** argv) {
  const std::string socket_path = opt_value(argc, argv, "socket", "");
  if (socket_path.empty()) {
    std::fprintf(stderr, "odrc client: --socket=PATH is required\n");
    return 2;
  }
  // First non-option argument after "client" is the verb; the rest are its
  // args. Options may appear anywhere.
  std::vector<std::string> pos;
  for (int i = 2; i < argc; ++i) {
    if (!std::string_view(argv[i]).starts_with("--")) {
      pos.emplace_back(argv[i]);
    } else if (!option_known(argv[i], {"socket=", "session=", "count=", "timeout="})) {
      return usage();
    }
  }
  const std::optional<long> session =
      parse_int("session", opt_value(argc, argv, "session", "0"), 0, UINT32_MAX);
  const std::optional<long> count = parse_int("count", opt_value(argc, argv, "count", "0"), 0,
                                              INT_MAX);
  const std::optional<long> timeout_ms =
      parse_int("timeout", opt_value(argc, argv, "timeout", "-1"), -1, INT_MAX);
  if (pos.empty() || !session || !count || !timeout_ms) return usage();
  const std::string& verb = pos[0];

  if (verb == "subscribe") {
    // Long-running: subscribe, then stream pushed delta frames to stdout
    // (one payload per line group) until --count frames arrived, the
    // --timeout per-frame wait expires, or the server goes away.
    std::string window;
    if (pos.size() >= 5) window = pos[1] + " " + pos[2] + " " + pos[3] + " " + pos[4];
    serve::client cl;
    cl.connect(socket_path);
    const serve::frame resp =
        cl.request(serve::msg_type::subscribe, static_cast<std::uint32_t>(*session), window);
    std::printf("%s\n", resp.payload.c_str());
    std::fflush(stdout);
    if (!serve::client::ok(resp)) return 1;
    int seen = 0;
    while (*count == 0 || seen < *count) {
      const std::optional<serve::frame> pf = cl.wait_push(static_cast<int>(*timeout_ms));
      if (!pf) break;  // timeout or connection closed
      std::printf("%s\n", pf->payload.c_str());
      std::fflush(stdout);
      ++seen;
    }
    return (*count > 0 && seen < *count) ? 1 : 0;
  }

  serve::msg_type type;
  std::string payload;
  if (verb == "ping") {
    type = serve::msg_type::ping;
  } else if (verb == "check") {
    type = serve::msg_type::check;
    if (pos.size() >= 2 && pos[1] == "keys") payload = "keys";
  } else if (verb == "recheck") {
    type = serve::msg_type::recheck;
  } else if (verb == "diff") {
    type = serve::msg_type::diff;
  } else if (verb == "stats") {
    type = serve::msg_type::stats;
  } else if (verb == "close") {
    type = serve::msg_type::close;
  } else if (verb == "shutdown") {
    type = serve::msg_type::shutdown;
  } else if (verb == "open") {
    if (pos.size() < 3) {
      std::fprintf(stderr, "odrc client open: expects <layout.gds> <rules.deck>\n");
      return 2;
    }
    type = serve::msg_type::open;
    payload = pos[1] + " " + pos[2];
  } else if (verb == "check_region") {
    if (pos.size() < 5) {
      std::fprintf(stderr, "odrc client check_region: expects <x1> <y1> <x2> <y2>\n");
      return 2;
    }
    type = serve::msg_type::check_region;
    payload = pos[1] + " " + pos[2] + " " + pos[3] + " " + pos[4];
  } else if (verb == "query") {
    if (pos.size() < 5) {
      std::fprintf(stderr, "odrc client query: expects <x1> <y1> <x2> <y2> [keys]\n");
      return 2;
    }
    type = serve::msg_type::query;
    payload = pos[1] + " " + pos[2] + " " + pos[3] + " " + pos[4];
    if (pos.size() >= 6 && pos[5] == "keys") payload += " keys";
  } else if (verb == "unsubscribe") {
    if (pos.size() < 2) {
      std::fprintf(stderr, "odrc client unsubscribe: expects <sub_id>\n");
      return 2;
    }
    type = serve::msg_type::unsubscribe;
    payload = pos[1];
  } else if (verb == "reload") {
    if (pos.size() < 2) {
      std::fprintf(stderr, "odrc client reload: expects <file.snap>\n");
      return 2;
    }
    type = serve::msg_type::reload;
    payload = pos[1];
  } else if (verb == "edit") {
    if (pos.size() < 2) {
      std::fprintf(stderr, "odrc client edit: expects an edit script file (or '-' for stdin)\n");
      return 2;
    }
    type = serve::msg_type::edit;
    std::ostringstream script;
    if (pos[1] == "-") {
      script << std::cin.rdbuf();
    } else {
      std::ifstream in(pos[1]);
      if (!in) {
        std::fprintf(stderr, "cannot open edit script '%s'\n", pos[1].c_str());
        return 2;
      }
      script << in.rdbuf();
    }
    payload = script.str();
  } else {
    std::fprintf(stderr, "odrc client: unknown verb '%s'\n", verb.c_str());
    return usage();
  }

  serve::client cl;
  cl.connect(socket_path);
  const serve::frame resp = cl.request(type, static_cast<std::uint32_t>(*session), payload);
  std::printf("%s\n", resp.payload.c_str());
  return serve::client::ok(resp) ? 0 : 1;
}

int cmd_deck_template() {
  std::printf(
      "# ASAP7-like BEOL rule deck (distances in nm = dbu)\n"
      "rule SHAPES      rectilinear\n"
      "rule M1.W.1      width       layer=19 min=18\n"
      "rule M2.W.1      width       layer=20 min=18\n"
      "rule M3.W.1      width       layer=30 min=18\n"
      "rule M1.S.1      spacing     layer=19 min=18\n"
      "rule M2.S.1      spacing     layer=20 min=18\n"
      "# conditional (PRL) spacing example — long parallel runs need more room:\n"
      "# rule M2.S.PRL   spacing     layer=20 min=18 prl=500:24\n"
      "rule M3.S.1      spacing     layer=30 min=18\n"
      "rule M1.A.1      area        layer=19 min=1000\n"
      "rule V1.M1.EN.1  enclosure   inner=21 outer=19 min=5\n"
      "rule V2.M2.EN.1  enclosure   inner=25 outer=20 min=5\n"
      "rule V2.M3.EN.1  enclosure   inner=25 outer=30 min=5\n"
      "rule V1.M1.OV    overlap     layer=21 with=19 min_area=64\n");
  return 0;
}

// Build + dispatch report for CI logs: a mis-dispatched SIMD tier (e.g. a
// scalar fallback on a runner that should have AVX2) is visible here.
int cmd_version() {
  std::printf("odrc (OpenDRC reproduction)\n");
  std::printf("%s\n", simd::describe().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    const std::string cmd = argv[1];
    if (cmd == "check") return cmd_check(argc, argv);
    if (cmd == "generate") return cmd_generate(argc, argv);
    if (cmd == "inspect") return cmd_inspect(argc, argv);
    if (cmd == "render") return cmd_render(argc, argv);
    if (cmd == "diff") return cmd_diff(argc, argv);
    if (cmd == "snapshot") return cmd_snapshot(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "coord") return cmd_coord(argc, argv);
    if (cmd == "client") return cmd_client(argc, argv);
    if (cmd == "deck-template") return cmd_deck_template();
    if (cmd == "version" || cmd == "--version") return cmd_version();
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "odrc: %s\n", e.what());
    return 1;
  }
}
